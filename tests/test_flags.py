import heapq
import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from trivector.errors import NonStableInput
from trivector.fields import GF
from trivector.flags import (FLAG_MONOMIALS, Flag1368, _h_tail,
                             chern_top_class, flag_compatible, flag_search,
                             flags_at_point, reduce_mod_symmetric,
                             standard_flag)
from trivector.linalg import Matrix
from trivector.polys import embed_map
from trivector.trivector import (CURVE_DEGREES, CurveCoeffs, gamma0, gl_act,
                                 permuted_gamma_c)


def test_condition_list():
    assert len(FLAG_MONOMIALS) == 31
    assert len(set(FLAG_MONOMIALS)) == 31
    fam1 = [t for t in FLAG_MONOMIALS if t[2] == 9 and t[0] >= 4]
    fam2 = [t for t in FLAG_MONOMIALS if t[2] == 9 and t[0] in (2, 3)]
    fam3 = [t for t in FLAG_MONOMIALS if t[1:] == (7, 8)]
    fam4 = [t for t in FLAG_MONOMIALS if t[2] in (7, 8) and t[1] <= 6]
    assert (len(fam1), len(fam2), len(fam3), len(fam4)) == (10, 10, 5, 6)
    assert (7, 8, 9) in fam1 and (2, 7, 8) in fam3 and (4, 5, 7) in fam4


def test_flag_validation():
    f5 = GF(5)
    sf = standard_flag(f5)
    assert sf[1].nrows == 1 and sf[8].nrows == 8
    rows = [[1 if i == j else 0 for j in range(9)] for i in range(8)]
    with pytest.raises(ValueError):
        # F3 not containing F1
        Flag1368(f5, [rows[5]], rows[:3], rows[:6], rows[:8])
    with pytest.raises(ValueError):
        Flag1368(f5, rows[:1], [rows[0], rows[1], rows[1]], rows[:6], rows[:8])


def test_gamma0_standard_flag_violation():
    f2 = GF(2)
    rep = flag_compatible(gamma0(f2), standard_flag(f2))
    assert not rep.compatible
    assert [t for t, _ in rep.violated] == [(2, 4, 9)]


def test_permuted_family_compatible_f5():
    f5 = GF(5)
    rng = random.Random(0)
    sf = standard_flag(f5)
    for _ in range(10):
        c = CurveCoeffs(f5, {d: f5.random(rng) for d in CURVE_DEGREES})
        assert flag_compatible(permuted_gamma_c(c), sf).compatible


def test_compatibility_equivariance():
    rng = random.Random(1)
    f5 = GF(5)
    t = permuted_gamma_c(CurveCoeffs(f5, {15: 1, 30: 2}))
    flag = standard_flag(f5)
    for _ in range(4):
        g = Matrix(f5, [[f5.random(rng) for _ in range(9)] for _ in range(9)])
        if not g.is_invertible():
            continue
        moved = Flag1368(f5, *[
            Matrix(f5, [g.apply(list(row)) for row in flag[d].rows])
            for d in (1, 3, 6, 8)])
        rep = flag_compatible(gl_act(g, t), moved)
        assert rep.compatible
    # incompatibility transported as well
    t0 = gamma0(f5)
    g = Matrix(f5, [[f5.random(rng) for _ in range(9)] for _ in range(9)])
    while not g.is_invertible():
        g = Matrix(f5, [[f5.random(rng) for _ in range(9)] for _ in range(9)])
    moved = Flag1368(f5, *[
        Matrix(f5, [g.apply(list(row)) for row in standard_flag(f5)[d].rows])
        for d in (1, 3, 6, 8)])
    assert not flag_compatible(gl_act(g, t0), moved).compatible


def test_reducer_choice_independence():
    # presenting the same flag through different spanning rows cannot change
    # the verdict
    f5 = GF(5)
    t = permuted_gamma_c(CurveCoeffs(f5, {24: 3}))
    rows = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    mixed_f3 = Matrix(f5, [[1, 1, 1, 0, 0, 0, 0, 0, 0],
                           [0, 1, 4, 0, 0, 0, 0, 0, 0],
                           [0, 0, 2, 0, 0, 0, 0, 0, 0]])
    mixed_f6 = Matrix(f5, [[1, 2, 3, 4, 0, 1, 0, 0, 0],
                           [0, 1, 0, 1, 0, 3, 0, 0, 0],
                           [0, 0, 1, 0, 0, 2, 0, 0, 0],
                           [0, 0, 0, 1, 0, 4, 0, 0, 0],
                           [0, 0, 0, 0, 1, 2, 0, 0, 0],
                           [0, 0, 0, 0, 0, 3, 0, 0, 0]])
    a = flag_compatible(t, standard_flag(f5))
    b = flag_compatible(t, Flag1368(f5, rows[:1], mixed_f3, mixed_f6, rows[:8]))
    assert a.compatible == b.compatible == True


def test_flag_search_f4_and_standard_flag():
    f2, f4 = GF(2), GF(2, 2)
    c = CurveCoeffs(f2, {15: 1}).map_coeffs(f4, embed_map(f2, f4))
    rep = flag_search(permuted_gamma_c(c), max_ext_degree=1)
    assert rep.weighted_count >= 1
    assert any(f == standard_flag(f4) for f, _ in rep.flags)
    for f, d in rep.flags:
        assert flag_compatible(permuted_gamma_c(c), f).compatible
        assert d == 1
    # pi-injectivity: flags found at distinct points are distinct
    keys = [f.key() for f, _ in rep.flags]
    assert len(keys) == len(set(keys))


def test_flag_search_rejects_non_stable():
    f2 = GF(2)
    from trivector.trivector import Trivector
    # a single monomial has a rank-2 point, tripping the scan-level check
    t = Trivector(f2, {(1, 2, 3): f2.one})
    with pytest.raises(NonStableInput):
        flag_search(t, max_ext_degree=1)
    # gamma0 has no rank <= 2 point over F_2; the up-front verification
    # catches it instead
    with pytest.raises(NonStableInput):
        flag_search(gamma0(f2), max_ext_degree=1, verify_stable=True)


def test_flags_at_point_unique_per_point():
    f2, f4 = GF(2), GF(2, 2)
    c = CurveCoeffs(f2, {15: 1}).map_coeffs(f4, embed_map(f2, f4))
    t = permuted_gamma_c(c)
    # the per-point reconstruction without early exit
    from trivector.loci import rank_locus_codes
    kern, _, codes, _ = rank_locus_codes(t, max_rank=4)
    for row in codes:
        coords = [kern.decode(v) for v in row]
        assert len(flags_at_point(t, coords)) <= 1


def test_chern_top_class():
    coeff, exps = chern_top_class()
    assert coeff == 81
    assert exps == (0, 1, 1, 3, 3, 3, 6, 6, 8)
    assert sum(exps) == 31          # the dimension of the flag variety


def test_reduce_mod_symmetric_basics():
    e1 = {tuple(1 if k == v else 0 for k in range(9)): 1 for v in range(9)}
    assert reduce_mod_symmetric(e1) == {}
    # x1^1 rewrites to minus the sum of the other variables
    x1 = {(1, 0, 0, 0, 0, 0, 0, 0, 0): 1}
    out = reduce_mod_symmetric(x1)
    assert len(out) == 8 and all(v == -1 for v in out.values())
    stair = {(0, 1, 2, 3, 0, 0, 0, 0, 0): 5}
    assert reduce_mod_symmetric(dict(stair)) == stair


_H_TAILS = {i: _h_tail(i) for i in range(1, 10)}


def heap_reduce_mod_symmetric(poly: dict) -> dict:
    """Oracle: the same normal form by one-term-at-a-time division, always
    rewriting the lex-largest reducible term, with Python integers."""
    poly = {e: c for e, c in poly.items() if c}
    heap = [tuple(-v for v in e) for e in poly]
    heapq.heapify(heap)
    seen = set(heap)
    while heap:
        neg = heapq.heappop(heap)
        seen.discard(neg)
        e = tuple(-v for v in neg)
        c = poly.get(e)
        if not c:
            continue
        i = next((k for k in range(1, 10) if e[k - 1] >= k), None)
        if i is None:
            continue
        del poly[e]
        rest = list(e)
        rest[i - 1] -= i
        for tail in _H_TAILS[i]:
            ne = tuple(r + s for r, s in zip(rest, tail))
            poly[ne] = poly.get(ne, 0) - c
            if poly[ne] == 0:
                del poly[ne]
                continue
            nneg = tuple(-v for v in ne)
            if nneg not in seen:
                heapq.heappush(heap, nneg)
                seen.add(nneg)
    return poly


_exponents = st.lists(st.integers(0, 8), max_size=12).map(
    lambda vs: tuple(vs.count(v) for v in range(9)))
_coefficients = st.one_of(st.integers(-5, 5), st.integers(-2**40, 2**40))


@st.composite
def _integer_polys(draw):
    """Integer polynomials of degree <= 12, built from a term list that
    repeats some monomials and adds exact negatives of others."""
    terms = draw(st.lists(st.tuples(_exponents, _coefficients), max_size=8))
    if terms:
        picks = draw(st.lists(st.sampled_from(terms), max_size=4))
        terms += [(e, c) for e, c in picks]
        terms += [(e, -c) for e, c in draw(st.lists(st.sampled_from(terms),
                                                    max_size=4))]
    poly = {}
    for e, c in terms:
        poly[e] = poly.get(e, 0) + c
    return poly


@settings(max_examples=100, deadline=None)
@given(_integer_polys())
def test_reduce_mod_symmetric_matches_heap_oracle(poly):
    assert reduce_mod_symmetric(dict(poly)) == heap_reduce_mod_symmetric(poly)


def test_reduce_mod_symmetric_domain():
    x1 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(OverflowError):
        reduce_mod_symmetric({x1: 2**70})
    # valid input whose rewriting would push the coefficients past 2**62
    with pytest.raises(OverflowError):
        reduce_mod_symmetric({x1: 2**61})
    with pytest.raises(ValueError):
        reduce_mod_symmetric({(64, 0, 0, 0, 0, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        reduce_mod_symmetric({(0, 0, 0, 0, 0, 0, 0, 0, 63): 1,
                              (2, -1, 0, 0, 0, 0, 0, 0, 0): 1})
    top = (0, 0, 0, 0, 0, 0, 0, 0, 63)
    assert reduce_mod_symmetric({top: 1, (0,) * 9: 3}) == {(0,) * 9: 3}


def _block_orderings(sizes, rest):
    """One permutation per coset of the block stabilizer (blocks of the
    given sizes, each block in increasing order)."""
    if not sizes:
        yield ()
        return
    for head in itertools.combinations(rest, sizes[0]):
        left = [v for v in rest if v not in head]
        for tail in _block_orderings(sizes[1:], left):
            yield head + tail


def localization_top_chern(weights) -> Fraction:
    """Integral of c_31 of the condition bundle over Fl(1,3,6,8;9) by
    Atiyah-Bott localization at the 15,120 torus-fixed coordinate flags."""
    sizes = (1, 2, 3, 2, 1)
    block = [b for b, n in enumerate(sizes) for _ in range(n)]
    pairs = [(a, b) for a, b in itertools.combinations(range(9), 2)
             if block[a] < block[b]]
    total = Fraction(0)
    for sigma in _block_orderings(sizes, range(9)):
        t = [weights[s] for s in sigma]
        total += Fraction(
            prod(t[i - 1] + t[j - 1] + t[k - 1] for i, j, k in FLAG_MONOMIALS),
            prod(t[b] - t[a] for a, b in pairs))
    return total


@pytest.mark.parametrize("seed", [0, 1])
def test_chern_number_by_localization(seed):
    weights = random.Random(seed).sample(range(-100, 100), 9)
    assert localization_top_chern(weights) == 81
