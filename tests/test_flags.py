import heapq
import itertools
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import trivector.flags as fl
from trivector.e8 import COMP, EPS, _shuffle_sign, wedge33
from trivector.errors import Disagreement, NonStableInput
from trivector.fields import GF
from trivector.flags import (FLAG_MONOMIALS, Flag1368, _coded_flag_candidates,
                             _dual_flag_basis, _h_tail, _schubert_expand,
                             _schubert_product, _span_stack,
                             _times_linear_form, _vanishes, _wedge_line,
                             chern_top_class, flag_compatible, flag_search,
                             flags_at_point, reduce_mod_symmetric,
                             standard_flag)
from trivector.linalg import Matrix, kernel_matrix
from trivector.loci import _structure_tensor_codes, rank_locus_codes
from trivector.polys import embed_map
from trivector.scan import field_kernel
from trivector.stability import curve_is_smooth
from trivector.trivector import (CURVE_DEGREES, TRIPLE_INDEX, TRIPLES,
                                 CurveCoeffs, Trivector, build_gamma_c,
                                 gamma0, gl_act, permuted_gamma_c, phi_at)


# ---------------------------------------------------------------------------
# object-route oracles: compatibility through an adapted basis and gl_act,
# and the per-line flag loop in field-element arithmetic

def _adapted_matrix(flag: Flag1368) -> Matrix:
    """An invertible matrix whose first 1, 3, 6, 8 columns span the flag."""
    field = flag.field
    basis = []
    basis_mat = None
    for dim in Flag1368.DIMS + (9,):
        cands = (flag[dim].rows if dim != 9 else
                 Matrix.identity(field, 9).rows)
        for row in cands:
            if len(basis) == dim:
                break
            trial = Matrix(field, basis + [list(row)])
            if trial.rank() == len(basis) + 1:
                basis.append(list(row))
                basis_mat = trial
    if len(basis) != 9:
        raise ValueError("flag does not extend to a basis")
    return basis_mat.transpose()


def _violations(adapted: Trivector):
    return [(trip, adapted.coeff(trip)) for trip in FLAG_MONOMIALS
            if not adapted.coeff(trip).is_zero()]


def gl_act_compatible(t: Trivector, flag: Flag1368) -> bool:
    """Oracle: move the flag to the standard one and read the 31
    coefficients."""
    return not _violations(gl_act(_adapted_matrix(flag).inverse(), t))


def _span_of_trivector(v: Trivector) -> Matrix:
    """Support of a trivector: span of all double contractions."""
    field = v.field
    z = field.zero
    rows_by_pair = {}
    for (i, j, k), c in v.coeffs.items():
        for pair, other, flip in (((i, j), k, False),
                                  ((i, k), j, True),
                                  ((j, k), i, False)):
            vec = rows_by_pair.get(pair)
            if vec is None:
                vec = [z] * 9
                rows_by_pair[pair] = vec
            vec[other - 1] = vec[other - 1] - c if flip else vec[other - 1] + c
    rows = [r for r in rows_by_pair.values()
            if any(not x.is_zero() for x in r)]
    if not rows:
        return Matrix(field, [])
    red, piv = Matrix(field, rows).rref()
    return Matrix(field, red.rows[:len(piv)])


def _wedge_u_bivector(field, u, m: Matrix) -> Trivector:
    """u ^ (the bivector with matrix m) as a trivector."""
    coeffs = {}
    for a in range(9):
        for b in range(a + 1, 9):
            c = m.rows[a][b]
            if c.is_zero():
                continue
            for pos, uc in enumerate(u):
                if uc.is_zero() or pos == a or pos == b:
                    continue
                trip = tuple(sorted((pos + 1, a + 1, b + 1)))
                # sign of sorting (pos, a, b) with u in front
                if pos < a:
                    sgn = 1
                elif pos < b:
                    sgn = -1
                else:
                    sgn = 1
                v = uc * c if sgn > 0 else -(uc * c)
                s = coeffs.get(trip)
                s = v if s is None else s + v
                if s.is_zero():
                    coeffs.pop(trip, None)
                else:
                    coeffs[trip] = s
    return Trivector(field, coeffs)


def _wedge6_support(field, w6):
    """For a pure six-vector: its 6-dimensional support; None if not pure."""
    dual = Trivector(field, {trip: (c if EPS[trip] > 0 else -c)
                             for trip, c in w6.coeffs.items()})
    if dual.is_zero():
        return None
    star_basis = _span_of_trivector(dual)
    if star_basis.nrows != 3:
        return None
    support = kernel_matrix(star_basis)
    return support if support.nrows == 6 else None


def _object_flags_at_point(t: Trivector, x_coords, early_exit=False):
    """Oracle for flags_at_point: every line of the image of phi(x) in turn,
    the forced chain F3, F6 in element arithmetic, and the gl_act test."""
    field = t.field
    m = phi_at(t, list(x_coords))
    red, piv = m.rref()
    if len(piv) != 4:
        return []
    s4 = Matrix(field, red.rows[:4])
    f8 = kernel_matrix(Matrix(field, [list(x_coords)]))
    out = []
    els = list(field.elements())
    for lead in range(4):
        for tail in itertools.product(els, repeat=3 - lead):
            coeffs = [field.zero] * lead + [field.one] + list(tail)
            u = [field.zero] * 9
            for cf, row in zip(coeffs, s4.rows):
                if not cf.is_zero():
                    u = [a + cf * b for a, b in zip(u, row)]
            v1 = _wedge_u_bivector(field, u, m)
            if v1.is_zero():
                continue
            v2 = wedge33(v1, t)
            if v2.is_zero():
                continue
            f6 = _wedge6_support(field, v2)
            if f6 is None:
                continue
            f3 = _span_of_trivector(v1)
            if f3.nrows != 3:
                continue
            try:
                flag = Flag1368(field, Matrix(field, [u]), f3, f6, f8)
            except ValueError:
                continue
            if gl_act_compatible(t, flag):
                out.append(flag)
                if early_exit:
                    return out
    return out


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


def test_flag_search_needs_a_degree():
    # an empty report would read as "no compatible flag found"
    c = CurveCoeffs(GF(3), {30: 1, 24: 1, 0: 1})
    for d in (0, -2):
        with pytest.raises(ValueError):
            flag_search(build_gamma_c(c), max_ext_degree=d)


def _smooth_f3_curves(count, seed):
    f3 = GF(3)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = CurveCoeffs(f3, {d: f3.random(rng) for d in CURVE_DEGREES})
        if curve_is_smooth(c):
            out.append(build_gamma_c(c))
    return out


def test_flags_at_point_unique_per_point():
    f2, f4 = GF(2), GF(2, 2)
    c = CurveCoeffs(f2, {15: 1}).map_coeffs(f4, embed_map(f2, f4))
    found = 0
    for t in [permuted_gamma_c(c)] + _smooth_f3_curves(3, seed=5):
        kern, _, codes, _ = rank_locus_codes(t, max_rank=4)
        for row in codes:
            coords = [kern.decode(v) for v in row]
            flags = flags_at_point(t, coords)
            # the per-point reconstruction without early exit
            assert len(flags) <= 1
            oracle = [f.key() for f in _object_flags_at_point(t, coords)]
            assert [f.key() for f in flags] == oracle
            first = [f.key() for f in flags_at_point(t, coords, True)]
            # with no hit the early-exit loop visits the same lines in vain
            assert first == ([f.key() for f in _object_flags_at_point(
                t, coords, early_exit=True)] if oracle else [])
            found += len(flags)
    assert found >= 4


@pytest.mark.parametrize("q,points", [(2, 6), (3, 2)])
def test_flags_at_point_many_flags_per_point(q, points):
    # e123 + e456 + e789 is not stable: its rank-4 points carry up to 8
    # compatible flags each, so every coded filter, the line order and the
    # early exit are exercised; a random g makes the lines non-coordinate
    field = GF(q)
    rng = random.Random(7)
    t = Trivector(field, {(1, 2, 3): field.one, (4, 5, 6): field.one,
                          (7, 8, 9): field.one})
    g = None
    while g is None or not g.is_invertible():
        g = Matrix(field, [[field.random(rng) for _ in range(9)]
                           for _ in range(9)])
    t = gl_act(g, t)
    kern, _, codes, ranks = rank_locus_codes(t, max_rank=4)
    found = 0
    for row in codes[ranks == 4][:points]:
        coords = [kern.decode(v) for v in row]
        oracle = [f.key() for f in _object_flags_at_point(t, coords)]
        assert [f.key() for f in flags_at_point(t, coords)] == oracle
        assert [f.key() for f in flags_at_point(t, coords, True)] == oracle[:1]
        found += len(oracle)
    assert found >= 3 * points


def test_flags_at_point_rejects_a_wrong_candidate(monkeypatch):
    # the object route re-checks each coded hit: a coded filter that lets
    # an incompatible line through is caught, not returned
    f5 = GF(5)
    t = gamma0(f5)
    x = [f5.zero] * 8 + [f5.one]
    sf = standard_flag(f5)
    codes = lambda m: np.array([[f5.to_int(v) for v in row] for row in m.rows])

    def fake(t, kern, points):
        yield 0, codes(sf[1])[0], codes(sf[3]), codes(sf[6])

    monkeypatch.setattr(fl, "_coded_flag_candidates", fake)
    with pytest.raises(Disagreement):
        fl.flags_at_point(t, x)


# ---------------------------------------------------------------------------
# the brute-force oracle of the coded candidates: every line of the image of
# phi(x) at every rank-4 point, through the same coded tests

def _line_codes(field):
    """Coefficients, in the rows of the reduced image basis, of the lines
    of a 4-space over the field: leading 1 at position lead = 0..3, then
    itertools.product of field.elements() on the tail, as (L, 4) codes."""
    els = [field.to_int(e) for e in field.elements()]
    rows = [[0] * lead + [1] + list(tail) for lead in range(4)
            for tail in itertools.product(els, repeat=3 - lead)]
    return np.array(rows, dtype=np.int64)


def _enumerated_flag_candidates(t, kern, points, pure_only=False):
    """Oracle for _coded_flag_candidates: all q^3+q^2+q+1 lines u of the
    image of phi(x) at each rank-4 point, in batches of about 8192, through
    the rank tests on v1 = u ^ phi(x) and on the dual three-form of
    v2 = v1 ^ t (its 20-term splitting sum, coefficient by coefficient)
    and the contraction tests.  With pure_only, yields (point, u) of the
    lines that pass the two rank tests, the lines _pure_lines solves for."""
    # coefficient T of the dual three-form of v ^ t: EPS[T] times the sum
    # of sign * v_T1 * t_T2 over the 20 splittings of comp(T) into T1 + T2
    split = np.array([[(TRIPLE_INDEX[t1], TRIPLE_INDEX[t2],
                        EPS[trip] * _shuffle_sign(t1, t2))
                       for t1 in itertools.combinations(COMP[trip], 3)
                       for t2 in [tuple(v for v in COMP[trip] if v not in t1)]]
                      for trip in TRIPLES])
    d1, d2, dsign = split[..., 0], split[..., 1], split[..., 2]
    coeff = [t.coeffs.get(trip, t.field.zero) for trip in TRIPLES]
    dcoef = np.array([[kern.encode(coeff[n] if s > 0 else -coeff[n])
                       for n, s in zip(row_n, row_s)]
                      for row_n, row_s in zip(d2, dsign)], dtype=kern.dtype)
    tensor = _structure_tensor_codes(t, kern)
    lines = _line_codes(t.field).astype(kern.dtype)
    n_lines = lines.shape[0]
    step = max(1, 8192 // n_lines)
    for start in range(0, points.shape[0], step):
        x = points[start:start + step]
        m = kern.build_skew(x, tensor)
        ranks, _, red = kern.batched_rref(m)
        pidx = np.repeat(np.nonzero(ranks == 4)[0], n_lines)
        lidx = np.tile(np.arange(n_lines), len(pidx) // n_lines)
        u = kern.matmul(lines[lidx, None, :], red[pidx, :4, :])[:, 0]
        v1 = _wedge_line(kern, u, m.reshape(-1, 81)[pidx])
        r3, _, red3 = kern.batched_rref(_span_stack(kern, v1))
        keep = r3 == 3
        pidx, u, v1, f3 = pidx[keep], u[keep], v1[keep], red3[keep, :3]
        dual = np.zeros_like(v1)
        for s in range(d1.shape[1]):
            dual = kern.add(dual, kern.mul(dcoef[:, s], v1[:, d1[:, s]]))
        r6, _, red6 = kern.batched_rref(_span_stack(kern, dual))
        keep = r6 == 3
        pidx, u, f3, a6 = pidx[keep], u[keep], f3[keep], red6[keep, :3]
        if pure_only:
            for n in range(len(pidx)):
                yield start + pidx[n], u[n]
            continue
        f6 = kern.batched_kernel_basis(a6)[1][:, :6]
        a3 = kern.batched_kernel_basis(f3)[1][:, :6]
        a1 = kern.batched_kernel_basis(u[:, None, :])[1][:, :8]
        a3t = a3.transpose(0, 2, 1)
        ok = _vanishes(kern, a3, u[:, :, None])
        ok &= _vanishes(kern, a6, f3.transpose(0, 2, 1))
        ok &= _vanishes(kern, x[pidx][:, None, :], f6.transpose(0, 2, 1))
        ok &= _vanishes(kern, a1, kern.matmul(m[pidx], a3t))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            w = kern.double_contract(a6[:, a], a6[:, b], tensor)
            ok &= _vanishes(kern, a1, w[:, :, None])
        for a in range(3):
            ma = kern.build_skew(a6[:, a], tensor)
            ok &= _vanishes(kern, a3, kern.matmul(ma, a3t))
        for n in np.nonzero(ok)[0]:
            yield start + pidx[n], u[n], f3[n], f6[n]


def _as_lists(items):
    return [[np.asarray(a).tolist() for a in item] for item in items]


def _pure_line_list(t, kern, points):
    """(point, u) of the lines _pure_lines solves for at the rank-4 points
    among the coded points."""
    tensor = _structure_tensor_codes(t, kern)
    m = kern.build_skew(points, tensor)
    ranks, piv, red = kern.batched_rref(m)
    at = np.nonzero(ranks == 4)[0]
    if not at.size:
        return []
    pidx, u = fl._pure_lines(kern, tensor, m[at], red[at, :4], piv[at, :4])
    return _as_lists(zip(at[pidx], u))


def _assert_candidates_match_enumeration(t, points):
    kern = field_kernel(t.field)
    points = np.asarray(points, dtype=kern.dtype)
    assert (_pure_line_list(t, kern, points) == _as_lists(
        _enumerated_flag_candidates(t, kern, points, pure_only=True)))
    assert (_as_lists(_coded_flag_candidates(t, kern, points))
            == _as_lists(_enumerated_flag_candidates(t, kern, points)))


def _random_invertible(field, rng):
    g = None
    while g is None or not g.is_invertible():
        g = Matrix(field, [[field.random(rng) for _ in range(9)]
                           for _ in range(9)])
    return g


def _random_rank4_points(t, rng, count, tries=3000):
    """Up to `count` random coded points of rank 4 (for trivectors whose
    Pfaffian cubic vanishes, where a P^8 scan ranks every point)."""
    kern = field_kernel(t.field)
    pts = np.array([[rng.randrange(kern.q) for _ in range(9)]
                    for _ in range(tries)], dtype=kern.dtype)
    pts = pts[pts.any(axis=1)]
    ranks = kern.batched_rank(kern.build_skew(pts, _structure_tensor_codes(
        t, kern)))
    return pts[ranks == 4][:count]


_ORACLE_FIELDS = (GF(2), GF(3), GF(2, 2), GF(5))


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS),
       st.sampled_from(("gamma_c", "e123", "sparse")),
       st.integers(0, 2**32 - 1))
def test_coded_candidates_match_line_enumeration(field, kind, seed):
    # the solved pure lines and the coded candidates equal the brute-force
    # enumeration, codes and order, off the coordinate flag (g random)
    rng = random.Random(seed)
    if kind == "sparse":
        trips = rng.sample(TRIPLES, rng.randint(2, 6))
        t = Trivector(field, {trip: field.random(rng) for trip in trips})
        points = _random_rank4_points(t, rng, 40)
    else:
        if kind == "gamma_c":
            t = build_gamma_c(CurveCoeffs(
                field, {d: field.random(rng) for d in CURVE_DEGREES}))
        else:
            t = Trivector(field, {(1, 2, 3): field.one, (4, 5, 6): field.one,
                                  (7, 8, 9): field.one})
        t = gl_act(_random_invertible(field, rng), t)
        if kind == "gamma_c":
            points = rank_locus_codes(t, max_rank=4)[2]
        else:
            points = _random_rank4_points(t, rng, 12)
    _assert_candidates_match_enumeration(t, points)


def test_pure_line_cases_are_reached(monkeypatch):
    # a moved smooth gamma_c has tau pure at its rank-4 points; a sparse
    # trivector has tau = 0; both cases agree with the enumeration
    seen = {}

    def spy(name):
        inner = getattr(fl, name)

        def wrapped(*args):
            for pidx, c in inner(*args):
                seen[name] = seen.get(name, 0) + len(pidx)
                yield pidx, c
        monkeypatch.setattr(fl, name, wrapped)

    spy("_lines_in_kernel")
    spy("_lines_of_rank_two")
    f3 = GF(3)
    rng = random.Random(11)
    t = gl_act(_random_invertible(f3, rng), _smooth_f3_curves(1, seed=3)[0])
    _assert_candidates_match_enumeration(t, rank_locus_codes(t, 4)[2])
    assert seen.get("_lines_in_kernel", 0) > 0
    assert "_lines_of_rank_two" not in seen
    sparse = Trivector(f3, {(1, 2, 3): f3.one, (1, 4, 5): f3.one,
                            (2, 6, 7): -f3.one})
    _assert_candidates_match_enumeration(
        sparse, _random_rank4_points(sparse, rng, 40))
    assert seen.get("_lines_of_rank_two", 0) > 0


@pytest.mark.parametrize("field", [GF(5), GF(7)], ids=str)
def test_rank_two_lines_in_small_blocks_equal_one_block(field, monkeypatch):
    # tau = 0 at the rank-4 points of a moved sparse trivector: the lambdas
    # in blocks of 7 (a last partial block) give the candidates of one block
    rng = random.Random(field.order)
    one = field.one
    t = gl_act(_random_invertible(field, rng), Trivector(
        field, {(1, 2, 3): one, (1, 4, 5): one, (2, 6, 7): -one}))
    kern = field_kernel(field)
    points = _random_rank4_points(t, rng, 4)
    seen = []
    inner = fl._lines_of_rank_two

    def spy(*args):
        for pidx, c in inner(*args):
            seen.append(len(pidx))
            yield pidx, c
    monkeypatch.setattr(fl, "_lines_of_rank_two", spy)
    monkeypatch.setattr(fl, "_LAMBDA_BATCH", 1 << 30)
    whole = _as_lists(_coded_flag_candidates(t, kern, points))
    assert len(points) == 4 and sum(seen) > 0
    monkeypatch.setattr(fl, "_LAMBDA_BATCH", 7)
    assert _as_lists(_coded_flag_candidates(t, kern, points)) == whole


_FIELDS = (GF(3), GF(2, 2), GF(5))


@st.composite
def _moved_pairs(draw):
    """(field, t, g, triple, coefficient, forbidden triple): t from the
    permuted family, g invertible, the coefficient nonzero and the forbidden
    triple one of the 31 conditions."""
    field = draw(st.sampled_from(_FIELDS))
    els = list(field.elements())
    el = st.sampled_from(els)
    c = CurveCoeffs(field, {d: draw(el) for d in CURVE_DEGREES})
    g = Matrix(field, [[draw(el) for _ in range(9)] for _ in range(9)])
    assume(g.is_invertible())
    trip = draw(st.sampled_from(TRIPLES))
    coeff = draw(st.sampled_from(els[1:]))
    forbidden = draw(st.sampled_from(FLAG_MONOMIALS))
    return field, permuted_gamma_c(c), g, trip, coeff, forbidden


def _check_against_gl_act(t, flag):
    rep = flag_compatible(t, flag)
    assert rep.compatible == gl_act_compatible(t, flag)
    # the violated list is the list of the gl_act route run with the
    # transporter whose inverse has the dual basis as its rows
    h = Matrix(t.field, _dual_flag_basis(flag))
    assert rep.violated == _violations(gl_act(h, t))
    assert rep.compatible == (not rep.violated)
    # ... and that transporter is adapted to the flag
    g = h.inverse().transpose()
    for d in Flag1368.DIMS:
        assert flag[d].stack(Matrix(t.field, g.rows[:d])).rank() == d
    return rep.compatible


@settings(max_examples=10, deadline=None)
@given(_moved_pairs())
def test_flag_compatible_matches_gl_act_route(pair):
    field, t, g, trip, coeff, forbidden = pair
    std = standard_flag(field)
    flag = Flag1368(field, *[
        Matrix(field, [g.apply(list(row)) for row in std[d].rows])
        for d in Flag1368.DIMS])
    bump = lambda s, tr: s + Trivector(field, {tr: coeff})
    # moved family: compatible; a forbidden monomial before the move:
    # incompatible; a random monomial after the move: either
    assert _check_against_gl_act(gl_act(g, t), flag)
    assert not _check_against_gl_act(gl_act(g, bump(t, forbidden)), flag)
    moved = bump(gl_act(g, t), trip)
    _check_against_gl_act(moved, flag)
    # for the standard flag the violated list is read off the coefficients
    assert flag_compatible(moved, std).violated == _violations(moved)


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
    # exponents past int64 are outside the domain, not a numpy overflow
    for key in ((2**70, 0, 0, 0, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0, 0, -2**70, 1), (1,) * 8):
        with pytest.raises(ValueError):
            reduce_mod_symmetric({key: 1})


def test_reduce_mod_symmetric_rejects_non_integers():
    x1 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    for poly in ({(1.5, 0, 0, 0, 0, 0, 0, 0, 0): 1},     # was read as x1
                 {x1: 2.7},                             # was truncated to 2
                 {x1: Fraction(1, 2)},                  # was a 0 term
                 {x1: 1, (0, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(0)},
                 {(Fraction(1), 0, 0, 0, 0, 0, 0, 0, 0): 1}):
        with pytest.raises(TypeError):
            reduce_mod_symmetric(poly)
    # numpy integers are integers
    np_x1 = tuple(np.int64(v) for v in x1)
    assert (reduce_mod_symmetric({np_x1: np.int32(3)})
            == {k: 3 * v for k, v in reduce_mod_symmetric({x1: 1}).items()})


def _product_by_reduction(forms):
    """The product of the linear forms (tuples of x-indices), reduced
    factor by factor with reduce_mod_symmetric: the monomial route."""
    poly = {(0,) * 9: 1}
    for form in forms:
        out = {}
        for e, c in poly.items():
            for v in form:
                ne = list(e)
                ne[v - 1] += 1
                ne = tuple(ne)
                out[ne] = out.get(ne, 0) + c
        poly = reduce_mod_symmetric(out)
    return poly


_linear_forms = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.lists(_linear_forms, max_size=8))
def test_schubert_product_matches_monomial_reduction(forms):
    assert (_schubert_expand(*_schubert_product(forms))
            == _product_by_reduction(forms))


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(9)))
def test_schubert_polynomials_are_normal_forms(w):
    poly = _schubert_expand(np.array([w], dtype=np.int8),
                            np.ones(1, dtype=np.int64))
    assert poly and all(c > 0 for c in poly.values())
    assert all(e[k] <= k for e in poly for k in range(9))
    assert reduce_mod_symmetric(dict(poly)) == poly


def test_chern_top_class_matches_monomial_reduction():
    # a second route to the exponent vector; localization is the second
    # route to the 81
    (exps, coeff), = _product_by_reduction(FLAG_MONOMIALS).items()
    assert chern_top_class() == (coeff, exps)


def test_schubert_route_overflow_guard():
    ident = np.arange(9, dtype=np.int8)[None, :]
    # x_1 + x_2 + x_3 splits into 18 pairs of weight 1: 18 * 2**58 > 2**62
    with pytest.raises(OverflowError):
        _times_linear_form(ident, np.array([2**58]), (1, 2, 3))
    # x_9 = y_1 has 8 pairs of weight 1, and S_id times it is S_{s_1}
    with pytest.raises(OverflowError):
        _times_linear_form(ident, np.array([2**59]), (9,))
    perms, coeffs = _times_linear_form(ident, np.array([2**57]), (9,))
    assert coeffs.tolist() == [2**57]
    assert _schubert_expand(perms, coeffs) == {(0,) * 8 + (1,): 2**57}
    # S_{s_2} = y_1 + y_2 has two terms, so 2**61 of it reaches 2**62
    s2 = np.array([[0, 2, 1, 3, 4, 5, 6, 7, 8]], dtype=np.int8)
    with pytest.raises(OverflowError):
        _schubert_expand(s2, np.array([2**61]))


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
