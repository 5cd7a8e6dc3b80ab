import random

import pytest
from hypothesis import given, settings, strategies as st

from trivector.errors import NotInvertible, Singular
from trivector.fields import GF, Q
from trivector.linalg import Matrix
from trivector.stability import double_contract
from trivector.trivector import (CARTAN_LINES, CONTRACTION_SLOTS,
                                 CURVE_DEGREES, FLAG_PERMUTATION,
                                 GAMMA_BASE_TERMS, TRIPLES, CurveCoeffs,
                                 ProjPoint, Trivector, build_gamma_c,
                                 diagonal_matrix, gamma0, gl_act,
                                 permutation_matrix, phi_at, phi_pencil,
                                 sort_with_sign, standard_cartan_element,
                                 weighted_torus_act)


def _random_trivector(field, rng, nterms=8):
    return Trivector(field, {TRIPLES[rng.randrange(84)]: field.random(rng)
                             for _ in range(nterms)})


def _random_invertible(field, rng):
    while True:
        g = Matrix(field, [[field.random(rng) for _ in range(9)]
                           for _ in range(9)])
        if g.is_invertible():
            return g


def test_gamma_c_slots():
    f7 = GF(7)
    g0 = gamma0(f7)
    assert len(g0.coeffs) == 8
    assert all(c == f7.one for c in g0.coeffs.values())
    assert set(g0.coeffs) == set(GAMMA_BASE_TERMS)

    c = CurveCoeffs(f7, {3: 1})
    assert build_gamma_c(c).coeff((2, 5, 7)) == f7.el(-1)
    c = CurveCoeffs(f7, {30: 5})
    assert build_gamma_c(c).coeff((1, 2, 3)) == f7.el(5)


def test_gl_act_identity_and_composition():
    rng = random.Random(0)
    for field, trials in ((GF(7), 100), (GF(2, 2), 20), (Q, 10)):
        for _ in range(trials):
            t = _random_trivector(field, rng)
            g = _random_invertible(field, rng)
            h = _random_invertible(field, rng)
            assert gl_act(Matrix.identity(field, 9), t) == t
            assert gl_act(g, gl_act(h, t)) == gl_act(g * h, t)


def _elements(field):
    if field.order is None:
        return st.integers(-3, 3).map(field.el)
    return st.integers(0, field.order - 1).map(field.from_int)


@st.composite
def _invertible(draw, field):
    """P L U: a permutation, a unit lower triangle and an upper triangle
    with nonzero diagonal, so every draw is invertible."""
    el, nonzero = _elements(field), _elements(field).filter(
        lambda a: not a.is_zero())
    sigma = draw(st.permutations(range(1, 10)))
    low = [[draw(el) if j < i else field.el(int(i == j)) for j in range(9)]
           for i in range(9)]
    up = [[draw(nonzero) if i == j else draw(el) if j > i else field.zero
           for j in range(9)] for i in range(9)]
    return permutation_matrix(field, sigma) * Matrix(field, low) \
        * Matrix(field, up)


@pytest.mark.parametrize("field", [GF(7), GF(2, 2), Q], ids=repr)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_gl_act_is_a_homomorphism(field, data):
    t = Trivector(field, data.draw(st.dictionaries(
        st.sampled_from(TRIPLES), _elements(field), max_size=6)))
    g, h = data.draw(_invertible(field)), data.draw(_invertible(field))
    assert gl_act(g, gl_act(h, t)) == gl_act(g * h, t)


def test_gl_act_rejects_singular():
    f5 = GF(5)
    with pytest.raises(Singular):
        gl_act(Matrix.zero(f5, 9, 9), gamma0(f5))


def test_gl_act_diagonal_weight():
    # diag weights (t^3 x6, t^-6 x3) scale [789] by t^-18
    f7 = GF(7)
    t = f7.el(3)
    g = diagonal_matrix(f7, [t ** 3] * 6 + [t.inv() ** 6] * 3)
    v = Trivector(f7, {(7, 8, 9): f7.one})
    out = gl_act(g, v)
    assert out.coeff((7, 8, 9)) == t.inv() ** 18


def test_permutation_matches_printed_family():
    """The frozen permutation reproduces the printed 16-term family's
    monomials in 15 of 16 slots; the remaining slot is a typo in the source
    display (no permutation at all realizes it, signed or not)."""
    printed = {(3, 4, 8), (3, 5, 7), (2, 6, 7), (1, 8, 9), (4, 5, 6),
               (2, 3, 9), (1, 4, 7), (2, 5, 8), (3, 4, 5), (2, 3, 4),
               (1, 2, 7), (1, 2, 4), (3, 5, 6), (2, 3, 6), (1, 2, 6),
               (1, 3, 6)}
    from trivector.trivector import GAMMA_C_TERMS
    slots = list(GAMMA_BASE_TERMS) + [GAMMA_C_TERMS[d][1] for d in CURVE_DEGREES]
    images = set()
    for trip in slots:
        img, _ = sort_with_sign(*(FLAG_PERMUTATION[i - 1] for i in trip))
        images.add(img)
    assert len(images & printed) == 15
    assert images - printed == {(1, 2, 5)}         # printed as [236] upstream
    assert printed - images == {(2, 3, 6)}


def test_weighted_torus_examples():
    f7 = GF(7)
    c = CurveCoeffs(f7, {3: 1})
    acted, expected, ok = weighted_torus_act(f7.one, c)
    assert ok
    acted, expected, ok = weighted_torus_act(f7.el(2), c)
    assert ok
    assert acted.coeff((2, 5, 7)) == f7.el(6)    # -2^3 = -8 = 6 mod 7
    with pytest.raises(NotInvertible):
        weighted_torus_act(f7.zero, c)


def test_weighted_torus_random():
    f11 = GF(11)
    rng = random.Random(1)
    for _ in range(20):
        s = f11.zero
        while s.is_zero():
            s = f11.random(rng)
        c = CurveCoeffs(f11, {d: f11.random(rng) for d in CURVE_DEGREES})
        assert weighted_torus_act(s, c)[2]


def test_cartan_element():
    f7 = GF(7)
    v = standard_cartan_element(1, 0, 0, 0, field=f7)
    assert set(v.coeffs) == {(1, 2, 3), (4, 5, 6), (7, 8, 9)}
    assert standard_cartan_element(0, 0, 0, 0, field=f7).is_zero()
    v = standard_cartan_element(1, 1, 1, 1, field=f7)
    assert len(v.coeffs) == 12
    assert all(c == f7.one for c in v.coeffs.values())
    lines = {t for group in CARTAN_LINES for t in group}
    assert set(v.coeffs) == lines


def test_contraction_slots_follow_from_the_interior_product():
    # iota_x(e_i ^ e_j ^ e_k) = x_i e_jk - x_j e_ik + x_k e_ij: contracting
    # the factor at position v of the wedge costs (-1)^v and leaves the
    # other two factors in their order
    derived = []
    for v in range(3):
        a, b = (p for p in range(3) if p != v)
        derived.append((a, b, v, (-1) ** v))
    assert sorted(CONTRACTION_SLOTS) == sorted(derived)
    # and phi_at puts x_{T[v]} t_T with that sign at (T[a], T[b]) of phi(x)
    f5 = GF(5)
    for trip in ((1, 2, 3), (2, 5, 9)):
        for a, b, v, sign in derived:
            x = [f5.el(int(u == trip[v])) for u in range(1, 10)]
            m = phi_at(Trivector(f5, {trip: f5.el(2)}), x)
            assert m.rows[trip[a] - 1][trip[b] - 1] == f5.el(2 * sign)
            assert m.rows[trip[b] - 1][trip[a] - 1] == f5.el(-2 * sign)


def test_phi_at_single_monomial():
    f5 = GF(5)
    t = Trivector(f5, {(1, 2, 3): f5.one})
    x = [f5.one] + [f5.zero] * 8     # e_1*
    m = phi_at(t, x)
    assert m.rows[1][2] == f5.one and m.rows[2][1] == f5.el(-1)
    total = sum(1 for i in range(9) for j in range(9)
                if not m.rows[i][j].is_zero())
    assert total == 2


def test_phi_at_gamma0_last_coordinate():
    # only [169] and [249] contain index 9: rank 4 at [0:...:0:1]
    f2 = GF(2)
    x = [f2.zero] * 8 + [f2.one]
    m = phi_at(gamma0(f2), x)
    assert m.rank() == 4


def test_phi_skew_even_rank_and_isotropy():
    rng = random.Random(2)
    for field in (GF(3), GF(2, 2)):
        for _ in range(25):
            t = _random_trivector(field, rng)
            x = [field.random(rng) for _ in range(9)]
            if all(v.is_zero() for v in x):
                continue
            m = phi_at(t, x)
            for i in range(9):
                assert m.rows[i][i].is_zero()
                for j in range(9):
                    assert m.rows[i][j] == -m.rows[j][i]
            assert m.rank() % 2 == 0
            # contracting twice by the same covector kills the trivector
            assert all(v.is_zero() for v in double_contract(t, x, x))
            # equivalently x pairs to zero with its own image
            img = m.apply(x)
            acc = field.zero
            for a, b in zip(x, img):
                acc = acc + a * b
            assert acc.is_zero()


def _pencil_at(field, pencil, x):
    """The matrix of the grid of linear forms evaluated at x."""
    return Matrix(field, [[e(x) for e in row] for row in pencil])


def test_phi_pencil_matches_phi_at():
    rng = random.Random(3)
    f3 = GF(3)
    t = _random_trivector(f3, rng)
    pencil = phi_pencil(t)
    for _ in range(10):
        x = [f3.random(rng) for _ in range(9)]
        assert _pencil_at(f3, pencil, x) == phi_at(t, x)
    # entries are linear forms with zero constant term
    zero = [f3.zero] * 9
    assert all(e(zero).is_zero() for row in pencil for e in row)


def test_phi_equivariance_up_to_convention():
    # the rank stratification is a GL-invariant of the pair (t, x-locus):
    # conjugating t moves the strata by the inverse-transpose coordinate change
    rng = random.Random(4)
    f3 = GF(3)
    t = build_gamma_c(CurveCoeffs(f3, {15: 1, 30: 1}))
    g = _random_invertible(f3, rng)
    tg = gl_act(g, t)
    ginv_t = g.inverse().transpose()
    for _ in range(20):
        x = [f3.random(rng) for _ in range(9)]
        if all(v.is_zero() for v in x):
            continue
        assert phi_at(tg, ginv_t.apply(x)).rank() == phi_at(t, x).rank()


def test_projpoint_canonicalization():
    f7 = GF(7)
    p = ProjPoint(f7, [0, 3, 6, 0, 1, 0, 0, 0, 0])
    q = ProjPoint(f7, [0, 1, 2, 0, 5, 0, 0, 0, 0])
    assert p == q
    assert p.coords[1] == f7.one
    with pytest.raises(ValueError):
        ProjPoint(f7, [0] * 9)


def test_hyperplane_stabilizer_fourth_vector_moves():
    from trivector.trivector import hyperplane_stabilizer_diag
    f7 = GF(7)
    g = hyperplane_stabilizer_diag(f7, f7.el(3))
    v4 = Trivector(f7, {t: f7.one for t in CARTAN_LINES[3]})
    assert gl_act(g, v4) != v4     # it scales by t^-6 != 1 for t = 3
