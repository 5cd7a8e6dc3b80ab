import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trivector.errors import (FieldMismatch, NoSolution, NotCharThree,
                              UnsupportedField)
from trivector.fields import GF, Q
from trivector.linalg import Matrix, is_semisimple
from trivector.e8 import (EPS, GradedE8Element, Wedge6, _act3_structure_codes,
                          act3, act6,
                          _ad_blocks, _commutator_deg0, _insert_sign,
                          _solve_deg0_from_action, bracket, canonical_deg0,
                          cube_class, deg0_basis_coords, deg0_from_coords,
                          dual_wedge, e8_constants, pairing_gl,
                          restricted_power, three_rank, wedge33)
from trivector.scan import field_kernel
from trivector.stability import curve_is_smooth
from trivector.trivector import (CURVE_DEGREES, TRIPLE_INDEX, TRIPLES,
                                 CurveCoeffs, Trivector, build_gamma_c, gamma0)

rng = random.Random(0)


def _basis_element(field, idx):
    """Basis element idx of the 248 coordinates: the 80 canonical deg0
    entries (row-major, the (9,9) slot skipped), then 84 + 84 triples."""
    if idx < 80:
        a = Matrix.zero(field, 9, 9)
        a.rows[idx // 9][idx % 9] = field.one
        return GradedE8Element(field, deg0=a)
    if idx < 164:
        return GradedE8Element(field, deg1=Trivector(
            field, {TRIPLES[idx - 80]: field.one}))
    return GradedE8Element(field, deg2=Wedge6(
        field, {TRIPLES[idx - 164]: field.one}))


def ad_matrix(x):
    """The object oracle for ad x: the 248 x 248 matrix whose column idx is
    the bracket of x with basis element idx."""
    field = x.field
    cols = []
    for idx in range(248):
        img = bracket(x, _basis_element(field, idx))
        cols.append(deg0_basis_coords(img.deg0)
                    + [img.deg1.coeffs.get(t, field.zero) for t in TRIPLES]
                    + [img.deg2.coeffs.get(t, field.zero) for t in TRIPLES])
    return Matrix(field, [list(row) for row in zip(*cols)])


def _ad_codes(x, kern):
    return np.array([[kern.encode(c) for c in row] for row in ad_matrix(x).rows],
                    dtype=kern.dtype)


def rand_el(field, n=5):
    d0 = Matrix.zero(field, 9, 9)
    for _ in range(n):
        d0.rows[rng.randrange(9)][rng.randrange(9)] = field.random(rng)
    d1 = Trivector(field, {TRIPLES[rng.randrange(84)]: field.random(rng)
                           for _ in range(n)})
    d2 = Wedge6(field, {TRIPLES[rng.randrange(84)]: field.random(rng)
                        for _ in range(n)})
    return GradedE8Element(field, d0, d1, d2)


def test_total_dimension():
    f3 = GF(3)
    x = rand_el(f3)
    assert len(ad_matrix(x).rows) == 248        # 80 + 84 + 84


def test_grading_respected_exactly():
    f7 = GF(7)
    a = GradedE8Element(f7, deg0=Matrix(f7, [[1 if (i, j) == (0, 1) else 0
                                              for j in range(9)]
                                             for i in range(9)]))
    w = GradedE8Element(f7, deg1=Trivector(f7, {(1, 2, 3): f7.one}))
    x = GradedE8Element(f7, deg2=Wedge6(f7, {(1, 2, 3): f7.one}))
    for left, right, deg in ((a, w, 1), (a, x, 2), (w, w, 2), (w, x, 0),
                             (x, x, 1), (a, a, 0)):
        out = bracket(left, right)
        if deg != 0:
            assert all(c.is_zero() for row in out.deg0.rows for c in row)
        if deg != 1:
            assert out.deg1.is_zero()
        if deg != 2:
            assert out.deg2.is_zero()


def test_alternation_and_antisymmetry():
    for field in (GF(3), GF(7), Q):
        for _ in range(6):
            x, y = rand_el(field), rand_el(field)
            assert bracket(x, x).is_zero()
            assert (bracket(x, y) + bracket(y, x)).is_zero()


@pytest.mark.parametrize("spec,trials", [("GF(3)", 12), ("GF(3^2)", 5),
                                         ("GF(7)", 6), ("GF(11)", 4),
                                         ("Q", 4)])
def test_jacobi_identity(spec, trials):
    from trivector.fields import parse_field
    field = parse_field(spec)
    for _ in range(trials):
        x, y, z = rand_el(field), rand_el(field), rand_el(field)
        j = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
             + bracket(bracket(z, x), y))
        assert j.is_zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        bracket(rand_el(GF(3)), rand_el(GF(7)))


def test_ad_faithfulness_on_deg1():
    # a deg0 class acting as zero on the trivector block is the zero class
    f3 = GF(3)
    k = e8_constants(f3)
    for _ in range(10):
        a = Matrix.zero(f3, 9, 9)
        for _ in range(4):
            a.rows[rng.randrange(9)][rng.randrange(9)] = f3.random(rng)
        a = canonical_deg0(a)
        if all(c.is_zero() for row in a.rows for c in row):
            continue
        acts_zero = True
        for trip in TRIPLES:
            if not k.act1(a, Trivector(f3, {trip: f3.one})).is_zero():
                acts_zero = False
                break
        assert not acts_zero


def test_restricted_power_defining_property():
    cases = [t for field in (GF(3), GF(3, 2))
             for t in (gamma0(field),
                       build_gamma_c(CurveCoeffs(field, {12: 1, 24: 1, 30: 1})))]
    for t in cases:
        a3 = restricted_power(t, 3)
        adg = ad_matrix(GradedE8Element(t.field, deg1=t))
        ad3 = adg * adg * adg
        ada = ad_matrix(GradedE8Element(t.field, deg0=a3))
        for i in range(80, 248):
            for j in range(80, 248):
                if (80 <= i < 164) == (80 <= j < 164):
                    assert ad3.rows[i][j] == ada.rows[i][j]


def test_restricted_power_char_check():
    with pytest.raises(NotCharThree):
        restricted_power(gamma0(GF(2)), 3)
    with pytest.raises(NotCharThree):
        cube_class(Matrix.identity(GF(5), 9))


def test_gamma0_powers_span_two_dimensions():
    f3 = GF(3)
    a3 = restricted_power(gamma0(f3), 3)
    a9 = restricted_power(gamma0(f3), 9)
    assert a9 == cube_class(a3)
    m = Matrix(f3, [deg0_basis_coords(a3), deg0_basis_coords(a9)])
    assert m.rank() == 2


def test_power_routes_agree():
    # matrix-cube route equals the ad-solve route for the ninth power
    f3 = GF(3)
    t = build_gamma_c(CurveCoeffs(f3, {18: 1, 30: 2}))
    a9 = restricted_power(t, 9)
    kern = field_kernel(f3)
    ad = _ad_codes(GradedE8Element(f3, deg1=t), kern)
    ad3 = kern.matmul(kern.matmul(ad, ad), ad)
    ad9 = kern.matmul(kern.matmul(ad3, ad3), ad3)
    a9b = _solve_deg0_from_action(f3, ad9[80:164, 80:164])
    assert a9 == a9b


def test_semisimple_verdict_representative_independent():
    f3 = GF(3)
    c = CurveCoeffs(f3, {24: 1})
    assert curve_is_smooth(c)
    t = build_gamma_c(c)
    a3 = restricted_power(t, 3)
    base = is_semisimple(a3)
    for lam in range(1, 3):
        shifted = Matrix(f3, [[a3.rows[i][j] + (f3.el(lam) if i == j
                                                else f3.zero)
                               for j in range(9)] for i in range(9)])
        assert is_semisimple(shifted) == base


def _smooth_weierstrass(field, want, rng2):
    while True:
        c = CurveCoeffs(field, {d: field.random(rng2) for d in (12, 18, 24, 30)})
        if want == 2 and c[24].is_zero():
            continue
        if want == 1 and (not c[24].is_zero() or c[18].is_zero()):
            continue
        if want == 0 and (not c[24].is_zero() or not c[18].is_zero()):
            continue
        if curve_is_smooth(c):
            return c


def test_three_rank_examples():
    f3, f9 = GF(3), GF(3, 2)
    rng2 = random.Random(5)
    assert three_rank(_smooth_weierstrass(f3, 2, rng2)).lie_rank == 2
    assert three_rank(_smooth_weierstrass(f3, 1, rng2)).lie_rank == 1
    assert three_rank(_smooth_weierstrass(f9, 0, rng2)).lie_rank == 0
    with pytest.raises(NotCharThree):
        three_rank(CurveCoeffs(GF(5), {24: 1}))
    with pytest.raises(ValueError):
        three_rank(CurveCoeffs(f3, {3: 1, 24: 1}))


def test_pairing_and_dual_wedge_bilinear():
    f7 = GF(7)
    t = Trivector(f7, {(1, 2, 3): f7.one})
    w = Wedge6(f7, {(1, 2, 3): f7.one})      # e_456789
    p = pairing_gl(t, w)
    assert any(not c.is_zero() for row in p.rows for c in row)
    w2 = Wedge6(f7, {(7, 8, 9): f7.one})     # e_123456
    dw = dual_wedge(w, w2)
    assert set(dw.coeffs) == {(4, 5, 6)}      # duals e*_123 ^ e*_789 -> e_456
    assert dual_wedge(w, w).is_zero()         # alternating
    # overlapping dual supports wedge to zero
    w3 = Wedge6(f7, {(1, 2, 4): f7.one})
    assert dual_wedge(w, w3).is_zero()
    v = wedge33(t, Trivector(f7, {(4, 5, 6): f7.one}))
    assert list(v.six_subsets()) == [(1, 2, 3, 4, 5, 6)]


# ---------------------------------------------------------------------------
# oracles: pairing_gl as 81 elementary actions, the bracket with every term
# evaluated, and (ad t)^3 from two full 248 x 248 products

def _elementary_act3(j, i, t):
    """Action on t of the elementary matrix sending e_i to e_j."""
    out = Trivector(t.field)
    for trip, c in t.coeffs.items():
        if i not in trip:
            continue
        slot = trip.index(i)
        ins = _insert_sign(trip[:slot] + trip[slot + 1:], j)
        if ins is None:
            continue
        key, sgn = ins
        out = out + Trivector(t.field, {key: c if (-1) ** slot * sgn > 0
                                        else -c})
    return out


def _vol_pairing_oracle(t, w):
    acc = t.field.zero
    for trip, c in t.coeffs.items():
        if trip in w.coeffs:
            v = c * w.coeffs[trip]
            acc = acc + (v if EPS[trip] > 0 else -v)
    return acc


def _pairing_gl_oracle(t, w):
    return Matrix(t.field, [[_vol_pairing_oracle(_elementary_act3(j, i, t), w)
                             for j in range(1, 10)] for i in range(1, 10)])


def _full_bracket(x, y):
    """The bracket with no term skipped, the pairing from the oracle."""
    field = x.field
    k = e8_constants(field)

    def pair(t, w):
        out = _pairing_gl_oracle(t, w).scale(k.a)
        out.rows[8][8] = out.rows[8][8] + k.a * k.tau * _vol_pairing_oracle(t, w)
        return out

    d0 = (_commutator_deg0(k, x.deg0, y.deg0) + pair(x.deg1, y.deg2)
          - pair(y.deg1, x.deg2))
    d1 = (k.act1(x.deg0, y.deg1) - k.act1(y.deg0, x.deg1)
          + dual_wedge(x.deg2, y.deg2).scale(k.b))
    d2 = (k.act2(x.deg0, y.deg2) - k.act2(y.deg0, x.deg2)
          + wedge33(x.deg1, y.deg1))
    return GradedE8Element(field, d0, d1, d2)


_FIELDS = (GF(3), GF(7), GF(3, 2), Q)


def _rand_trivector(field, r, n):
    return Trivector(field, {TRIPLES[r.randrange(84)]: field.random(r)
                             for _ in range(n)})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FIELDS), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 20), st.integers(0, 20))
@example(GF(3), 1, 0, 8)        # empty t
@example(Q, 2, 8, 0)            # empty w
def test_pairing_gl_matches_elementary_actions(field, seed, n_t, n_w):
    r = random.Random(seed)
    t = _rand_trivector(field, r, n_t)
    w = Wedge6(field, _rand_trivector(field, r, n_w).coeffs)
    assert pairing_gl(t, w) == _pairing_gl_oracle(t, w)


def _dense_act_subsets(a, coeffs):
    """The derivation action by the dense loop: every slot of every term
    against all nine rows of a, zero entries skipped one at a time."""
    out = {}
    for sub, c in coeffs.items():
        for slot, i in enumerate(sub):
            rest = sub[:slot] + sub[slot + 1:]
            sign0 = -1 if slot % 2 else 1
            for row in range(1, 10):
                aval = a.rows[row - 1][i - 1]
                if aval.is_zero():
                    continue
                ins = _insert_sign(rest, row)
                if ins is None:
                    continue
                key, sgn = ins
                v = c * aval
                if sign0 * sgn < 0:
                    v = -v
                s = out.get(key)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return out


_ACTION_MATRICES = ("sparse", "dense", "diagonal", "zero", "identity")


def _action_matrix(field, kind, r):
    if kind == "identity":
        return Matrix.identity(field, 9)
    a = Matrix.zero(field, 9, 9)
    if kind == "dense":
        a = Matrix(field, [[field.random(r) for _ in range(9)] for _ in range(9)])
    elif kind == "diagonal":
        for d in range(9):
            a.rows[d][d] = field.random(r)
    elif kind == "sparse":
        for _ in range(5):
            a.rows[r.randrange(9)][r.randrange(9)] = field.random(r)
    return a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELDS), st.sampled_from(_ACTION_MATRICES),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 30))
@example(GF(3), "zero", 1, 12)
@example(Q, "identity", 2, 12)
@example(GF(3, 2), "identity", 3, 0)
def test_act3_act6_match_the_dense_loop(field, kind, seed, n_terms):
    r = random.Random(seed)
    a = _action_matrix(field, kind, r)
    t = _rand_trivector(field, r, n_terms)
    w = Wedge6(field, _rand_trivector(field, r, n_terms).coeffs)
    got3, got6 = act3(a, t), act6(a, w)
    assert got3 == Trivector(field, _dense_act_subsets(a, t.coeffs))
    assert got6 == Wedge6.from_six_subsets(
        field, _dense_act_subsets(a, w.six_subsets()))
    if kind == "zero":
        assert got3.is_zero() and got6.is_zero()
    if kind == "identity":      # a derivation: the degree times the element
        assert got3 == t.scale(3) and got6 == w.scale(6)


_DEG0_KINDS = ("random", "zero", "scalar", "diagonal")


@st.composite
def _sparse_elements(draw, field):
    """A graded element whose components are emptied at random: deg0 zero,
    a pure scalar class (zero modulo scalars), diagonal (trace-carrying) or
    random; deg1 and deg2 empty or random."""
    r = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(_DEG0_KINDS))
    d0 = Matrix.zero(field, 9, 9)
    if kind == "random":
        for _ in range(5):
            d0.rows[r.randrange(9)][r.randrange(9)] = field.random(r)
    elif kind == "scalar":
        d0 = Matrix.identity(field, 9).scale(field.random(r))
    elif kind == "diagonal":
        for d in range(9):
            d0.rows[d][d] = field.random(r)
    d1 = _rand_trivector(field, r, 5) if draw(st.booleans()) else None
    d2 = (Wedge6(field, _rand_trivector(field, r, 5).coeffs)
          if draw(st.booleans()) else None)
    return GradedE8Element(field, d0, d1, d2)


@st.composite
def _sparse_triples(draw):
    field = draw(st.sampled_from(_FIELDS))
    return tuple(draw(_sparse_elements(field)) for _ in range(3))


@settings(max_examples=30, deadline=None)
@given(_sparse_triples())
def test_bracket_skips_only_zero_terms(xyz):
    x, y, z = xyz
    for a, b in ((x, y), (y, z), (z, x), (x, x)):
        assert bracket(a, b) == _full_bracket(a, b)
        assert (bracket(a, b) + bracket(b, a)).is_zero()
    j = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
         + bracket(bracket(z, x), y))
    assert j.is_zero()


@pytest.mark.parametrize("field", [GF(3), GF(3, 2), GF(3, 5)], ids=str)
def test_three_block_route_equals_full_ad_cube(field):
    # each block against the object oracle; a sparse t often has a3 = 0,
    # which hides a wrong sign in a block, so the gamma of a curve with
    # every coefficient drawn is checked as well
    kern = field_kernel(field)
    r = random.Random(field.order)
    dense = build_gamma_c(CurveCoeffs(field, {d: field.random(r)
                                              for d in CURVE_DEGREES}))
    for t in (_rand_trivector(field, r, 6), _rand_trivector(field, r, 20),
              dense):
        ad = _ad_codes(GradedE8Element(field, deg1=t), kern)
        to1_from0, to0_from2, to2_from1 = _ad_blocks(t, kern)
        assert np.array_equal(to1_from0, ad[80:164, :80])
        assert np.array_equal(to0_from2, ad[:80, 164:])
        assert np.array_equal(to2_from1, ad[164:, 80:164])
        full = kern.matmul(kern.matmul(ad, ad), ad)
        block = kern.matmul(kern.matmul(to1_from0, to0_from2), to2_from1)
        assert np.array_equal(block, full[80:164, 80:164])


def test_restricted_power_rejects_fields_past_the_table_limit():
    t = build_gamma_c(CurveCoeffs(GF(3, 6), {24: 1}))
    with pytest.raises(UnsupportedField, match=r"GF\(3\^5\)"):
        restricted_power(t, 3)
    with pytest.raises(UnsupportedField, match=r"GF\(3\^5\)"):
        three_rank(CurveCoeffs(GF(3, 6), {24: 1}))


def _act3_structure_oracle(field, kern):
    """The action table by the object route: act1 of each of the 80
    canonical elementary matrices on each of the 84 basis trivectors."""
    consts = e8_constants(field)
    mat = np.zeros((84 * 84, 80), dtype=np.int16)
    for col in range(80):
        a = Matrix.zero(field, 9, 9)
        a.rows[col // 9][col % 9] = field.one
        for t_idx, trip in enumerate(TRIPLES):
            img = consts.act1(a, Trivector(field, {trip: field.one}))
            for otrip, cval in img.coeffs.items():
                mat[TRIPLE_INDEX[otrip] * 84 + t_idx, col] = kern.encode(cval)
    return mat


@pytest.mark.parametrize("field", [GF(3), GF(3, 2), GF(3, 3), GF(7)],
                         ids=str)
def test_action_table_equals_act1_table(field):
    # GF(7) takes the trace-weight branch without the h-model
    kern = field_kernel(field)
    table = _act3_structure_codes(field)
    oracle = _act3_structure_oracle(field, kern)
    assert table.dtype == oracle.dtype
    assert table.tobytes() == oracle.tobytes()


def _solve_by_rref(field, action_codes):
    """The oracle of _solve_deg0_from_action: the full 7056 x 80 system of
    the action table with the action as its right-hand side, in reduced
    row echelon form."""
    kern = field_kernel(field)
    aug = np.concatenate([_act3_structure_codes(field),
                          action_codes.reshape(84 * 84, 1)], axis=1)
    _, pivots, red = kern.rref(aug)
    if 80 in pivots:
        raise NoSolution("inconsistent")
    coords = [field.zero] * 80
    for r, pc in enumerate(pivots):
        coords[pc] = kern.decode(int(red[r, 80]))
    return deg0_from_coords(field, coords)


@pytest.mark.parametrize("field", [GF(3), GF(3, 2), GF(3, 3), GF(3, 4),
                                   GF(3, 5)], ids=str)
def test_action_table_block_structure(field):
    # what _deg0_solver reads the class off: every off-diagonal row holds
    # at most one nonzero entry, +-1, in an off-diagonal coordinate; each
    # of those coordinates is hit by 21 rows; the 84 diagonal rows touch
    # only the 8 diagonal coordinates, with rank 8
    kern = field_kernel(field)
    table = _act3_structure_codes(field)
    diagonal_rows = np.arange(84) * 85
    diagonal_cols = np.arange(8) * 10
    off_rows = np.setdiff1d(np.arange(84 * 84), diagonal_rows)
    off = table[off_rows]
    assert ((off != 0).sum(axis=1) <= 1).all()
    assert not off[:, diagonal_cols].any()
    ones = {kern.encode(field.one), kern.encode(-field.one)}
    assert set(np.unique(off[off != 0]).tolist()) == ones
    hits = (off != 0).sum(axis=0)
    assert (np.delete(hits, diagonal_cols) == 21).all()
    diag = table[diagonal_rows]
    assert not np.delete(diag, diagonal_cols, axis=1).any()
    assert kern.rref(diag[:, diagonal_cols])[0] == 8


@pytest.mark.parametrize("field", [GF(3), GF(3, 2), GF(3, 5)], ids=str)
def test_deg0_solve_matches_rref_and_rejects_a_perturbed_block(field):
    kern = field_kernel(field)
    r = random.Random(field.order + 21)
    dense = build_gamma_c(CurveCoeffs(field, {d: field.random(r)
                                              for d in CURVE_DEGREES}))
    for t in (_rand_trivector(field, r, 6), _rand_trivector(field, r, 30),
              dense):
        to1_from0, to0_from2, to2_from1 = _ad_blocks(t, kern)
        block = kern.matmul(kern.matmul(to1_from0, to0_from2), to2_from1)
        assert _solve_deg0_from_action(field, block) == \
            _solve_by_rref(field, block)
        # one entry moved off the image of the action: both routes refuse
        bad = block.copy()
        i, j = r.randrange(84), r.randrange(84)
        bad[i, j] = kern.add(bad[i, j], r.randrange(1, field.order))
        with pytest.raises(NoSolution):
            _solve_by_rref(field, bad)
        with pytest.raises(NoSolution):
            _solve_deg0_from_action(field, bad)
