import bisect
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trivector.errors import BudgetExceeded, UnsupportedField
from trivector.fields import GF, Q
from trivector.linalg import Matrix, kernel_matrix
from trivector.loci import rank_locus_codes
from trivector.polys import embed_map, extension_of
from trivector import loci
from trivector.scan import field_kernel, projective_count
from trivector.stability import (_anchored_hits, _echelon_bases,
                                 _gray_scan_f2, _scan_f2,
                                 _singular_point_witness, _witness_rows_to_u,
                                 anchored_witness_search, curve_is_smooth,
                                 destabilizer_search, destabilizes,
                                 gamma_family_scan_f2,
                                 gaussian_binomial, pivot_patterns,
                                 rational_stability_report,
                                 singular_points_of_curve,
                                 stability_verdict_gamma_c, witness_verify)
from trivector.trivector import (CURVE_DEGREES, GAMMA_BASE_TERMS,
                                 GAMMA_C_TERMS, TRIPLES, CurveCoeffs,
                                 Trivector, build_gamma_c, gamma0, gl_act,
                                 phi_at)


def test_gaussian_binomial():
    assert gaussian_binomial(9, 3, 2) == 788035
    assert gaussian_binomial(9, 6, 2) == 788035
    assert gaussian_binomial(4, 2, 3) == 130


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=repr)
def test_echelon_planes_are_the_2_planes(field):
    # every 2-plane of F_q^n once, as its reduced echelon form
    kern = field_kernel(field)
    for n, size in ((4, 7), (6, 1 << 12)):
        planes = np.concatenate(list(_echelon_bases(kern, 2, n, size)))
        assert planes.shape == (gaussian_binomial(n, 2, field.order), 2, n)
        ranks, _, red = kern.batched_rref(planes)
        assert (ranks == 2).all() and np.array_equal(red, planes)
        assert len(set(map(bytes, planes))) == planes.shape[0]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2)], ids=repr)
def test_echelon_bases_of_one_row_are_the_points(field):
    # k = 1: the points of P^(n-1), leading 1 and then any digits, in
    # lexicographic order
    kern = field_kernel(field)
    q = field.order
    for n, size in ((1, 1), (3, 5), (4, 1 << 12)):
        points = np.concatenate(list(_echelon_bases(kern, 1, n, size)))[:, 0]
        want = [(0,) * lead + (1,) + tail for lead in range(n)
                for tail in itertools.product(range(q), repeat=n - 1 - lead)]
        assert points.tolist() == [list(p) for p in want]


def test_gamma0_witness_is_e4_to_e9():
    f2 = GF(2)
    verdict = destabilizer_search(gamma0(f2), 1)
    assert verdict.status == "non_stable"
    expect = Matrix(f2, [[1 if j == i + 3 else 0 for j in range(9)]
                         for i in range(6)])
    assert verdict.witness == expect


def test_zero_trivector_non_stable():
    verdict = destabilizer_search(Trivector(GF(3)), 1)
    assert verdict.status == "non_stable"
    assert verdict.witness is not None


def test_destabilizer_search_needs_a_degree():
    # c30 = 1 over GF(2) is non_stable at degree 1; searching no degree must
    # raise, not return "stable" with 0 subspaces checked
    t = build_gamma_c(CurveCoeffs(GF(2), {30: 1}))
    assert destabilizer_search(t, 1).status == "non_stable"
    for d in (0, -2):
        with pytest.raises(ValueError):
            destabilizer_search(t, d)
        with pytest.raises(ValueError):
            destabilizer_search(Trivector(GF(3)), d)


def test_c15_stable_at_bound_with_point_search_oracle():
    f2 = GF(2)
    c = CurveCoeffs(f2, {15: 1})
    verdict = destabilizer_search(build_gamma_c(c), 1)
    assert verdict.status == "stable"
    assert verdict.subspaces_checked == 788035
    # oracle: x^2 + x + z^5 has no singular point over F_{2^d}, d <= 8
    assert singular_points_of_curve(c, 8) == []
    assert curve_is_smooth(c)


def test_curve_smoothness_examples():
    f2, f7 = GF(2), GF(7)
    assert not curve_is_smooth(CurveCoeffs(f2))               # cusp at origin
    assert curve_is_smooth(CurveCoeffs(f7, {30: 1}))
    # oracle for the F_7 case: gcd(z^5 + 1, 5 z^4) = 1
    from trivector.polys import Poly
    f = Poly(f7, [1, 0, 0, 0, 0, 1])
    assert f.gcd(f.derivative()).deg == 0


def test_smoothness_against_enumeration_oracle():
    rng = random.Random(0)
    f2 = GF(2)
    for _ in range(20):
        c = CurveCoeffs(f2, {d: f2.el(rng.randrange(2)) for d in CURVE_DEGREES})
        smooth = curve_is_smooth(c)
        pts = singular_points_of_curve(c, 8)
        assert smooth == (not pts)


def _singular_points_digest(curves, bound):
    """sha256 over the curves of each one's sorted (degree, coordinate
    codes) singular points up to the given extension degree."""
    h = hashlib.sha256()
    for c in curves:
        pts = sorted((d, tuple(x.field.to_int(x) for x in coords))
                     for coords, d in singular_points_of_curve(c, bound))
        h.update(repr(pts).encode())
    return h.hexdigest()


def test_singular_points_match_pinned_outputs():
    # pinned from the resultant-based solver this enumeration replaced:
    # 160 points over all 256 F_2 curves, 22 over 30 seeded F_3 curves
    f2, f3 = GF(2), GF(3)
    f2_curves = [CurveCoeffs.from_list(f2, [f2.el(b >> i & 1)
                                            for i in range(8)])
                 for b in range(256)]
    assert _singular_points_digest(f2_curves, 4) == (
        "d886690a8ee6d537c5fc4dd6c4afb07833206f5ed56063b2b6fb231a5c9f24bd")
    rng = random.Random(15)
    f3_curves = [CurveCoeffs(f3, {d: f3.el(rng.randrange(3))
                                  for d in CURVE_DEGREES})
                 for _ in range(30)]
    assert _singular_points_digest(f3_curves, 2) == (
        "ed4a82d500a776a7fe116e2090337b40e01845bf7f35044c5e16d48785ced4c5")


def test_smoothness_over_q():
    c = CurveCoeffs(Q, {30: 1})
    assert curve_is_smooth(c)
    assert not curve_is_smooth(CurveCoeffs(Q))


def test_singular_point_search_examples():
    # the cusp curve has its singular point at the origin
    c0 = CurveCoeffs(GF(2))
    pts = singular_points_of_curve(c0, 4)
    assert any(all(v.is_zero() for v in coords) for coords, _ in pts)
    with pytest.raises(UnsupportedField):
        singular_points_of_curve(CurveCoeffs(Q), 1)


def test_singular_points_input_boundary():
    with pytest.raises(ValueError):
        singular_points_of_curve(CurveCoeffs(GF(3)), 0)
    # GF(2^9) is past the coded kernel; GF(2^12)^2 is past the 2^22 grid
    for field in (GF(2, 9), GF(2, 12)):
        with pytest.raises(BudgetExceeded):
            singular_points_of_curve(CurveCoeffs(field), 1)


def test_destabilizer_criterion_gl_equivariant():
    rng = random.Random(1)
    f3 = GF(3)
    t = gamma0(f3)
    # the known witness from the construction; equivariance of the
    # criterion needs no search
    u = Matrix(f3, [[1 if j == i + 3 else 0 for j in range(9)]
                    for i in range(6)])
    assert witness_verify(t, u)
    for _ in range(5):
        g = Matrix(f3, [[f3.random(rng) for _ in range(9)] for _ in range(9)])
        if not g.is_invertible():
            continue
        tg = gl_act(g, t)
        gu_rows = [g.apply([row[j] for j in range(9)]) for row in u.rows]
        gu = Matrix(f3, gu_rows)
        assert witness_verify(tg, gu)
        w = kernel_matrix(gu.rref()[0])
        assert destabilizes(tg, w)


def test_witness_verify_agrees_with_contractions_and_rejects_low_rank():
    # the verdict does not depend on how the rows of u are completed to a
    # basis: it equals the double-contraction criterion on random 6 x 9 u
    rng = random.Random(16)
    for field in (GF(2), GF(3), GF(2, 2)):
        t = gamma0(field)
        witness = Matrix(field, [[1 if j == i + 3 else 0 for j in range(9)]
                                 for i in range(6)])
        seen = set()
        for trial in range(40):
            g = Matrix(field, [[field.random(rng) for _ in range(9)]
                               for _ in range(9)])
            if not g.is_invertible():
                continue
            # half the draws are moved witnesses, half random 6-planes
            if trial % 2:
                u = Matrix(field, [g.apply(list(row)) for row in witness.rows])
                tt = gl_act(g, t)
            else:
                u, tt = Matrix(field, g.rows[:6]), t
            verdict = witness_verify(tt, u)
            assert verdict == destabilizes(tt, kernel_matrix(u))
            seen.add(verdict)
            # a repeated row leaves rank 5: no 6-plane, rejected
            low = Matrix(field, u.rows[:5] + [u.rows[0]])
            assert not witness_verify(tt, low)
            zero_row = Matrix(field, u.rows[:5] + [[field.zero] * 9])
            assert not witness_verify(tt, zero_row)
        assert seen == {True, False}


def test_witness_monotone_under_extension():
    f2 = GF(2)
    t = gamma0(f2)
    u = destabilizer_search(t, 1).witness
    f4 = extension_of(f2, 2)
    emb = embed_map(f2, f4)
    t4 = t.map_coeffs(f4, emb)
    u4 = Matrix(f4, [[emb(x) for x in row] for row in u.rows])
    assert witness_verify(t4, u4)


def test_budget_exceeded_carries_count():
    t = gamma0(GF(2))
    with pytest.raises(BudgetExceeded) as info:
        destabilizer_search(t, 1, budget=1000)
    assert info.value.count == 788035


def _family_curve(cmask):
    return CurveCoeffs(GF(2), {d: (cmask >> i) & 1
                               for i, d in enumerate(CURVE_DEGREES)})


@pytest.fixture(scope="module")
def family_scan():
    return gamma_family_scan_f2()


def test_family_scan_agrees_with_direct_search(family_scan):
    found, witness, checked = family_scan
    assert checked == 788035
    assert sorted(witness) == [c for c in range(256) if found[c]]
    rng = random.Random(2)
    for cmask in rng.sample(range(256), 12):
        direct = destabilizer_search(build_gamma_c(_family_curve(cmask)), 1)
        assert found[cmask] == (direct.status == "non_stable")
    # the one-generator scan of each destabilized c finds the same witness
    for cmask in witness:
        direct = destabilizer_search(build_gamma_c(_family_curve(cmask)), 1)
        assert direct.witness == _witness_rows_to_u(GF(2), witness[cmask])


def _single_scans():
    """One-generator scans: gamma0, a smooth curve (no witness), and a
    trivector with no witness in pivot pattern 0 whose first witness opens
    pattern 1."""
    f2 = GF(2)
    tm = Trivector(f2, {trip: f2.one for trip in ((4, 6, 7), (5, 7, 8),
                                                  (1, 5, 6), (2, 5, 6),
                                                  (1, 3, 9))})
    return [[tuple(t.coeffs)] for t in
            (gamma0(f2), build_gamma_c(CurveCoeffs(f2, {15: 1})), tm)]


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_f2_scans_match_pinned_outputs(family_scan):
    """Outputs of the F_2 scans recorded from the list-based Gray-code
    kernel that preceded the contraction-table scan."""
    assert [_scan_f2(gens) for gens in _single_scans()] == [
        ({0: (1, 2, 4)}, 1), ({}, 788035), ({0: (1, 2, 8)}, 262145)]
    found, witness, checked = family_scan
    assert _sha256((found, sorted(witness.items()), checked)) == \
        "e8fe2e343ae7f81386e7ac97a012aa272e351633d83b4a15b980600a6f9b2d73"
    gens = [GAMMA_BASE_TERMS] + [(GAMMA_C_TERMS[d][1],) for d in CURVE_DEGREES]
    first = _gray_scan_f2(gens, range(len(pivot_patterns(3, 9))))
    assert _sha256(sorted(first.items())) == \
        "358b21944382b07d36780e7d86f3cfc91bda5049aa32a877d9ed428cc9608d30"


def _pattern_offsets():
    offsets = [0]
    for _, free in pivot_patterns(3, 9):
        offsets.append(offsets[-1] + 2 ** sum(len(f) for f in free))
    return offsets


def _mask_trivector(gens, mask):
    """gens[0] + sum of gens[i] over the set bits i-1 of mask, over F_2."""
    f2 = GF(2)
    terms = {}
    for g, gen in enumerate(gens):
        if g == 0 or mask >> (g - 1) & 1:
            for trip in gen:
                terms[trip] = terms.get(trip, 0) ^ 1
    return Trivector(f2, {trip: f2.one for trip, v in terms.items() if v})


def _pattern_rows(index, local):
    """The annihilator rows at position `local` of pivot pattern `index` in
    the scan order: first row, then second row in binary order of their
    free entries, then the third row in Gray-code order."""
    pivots, free = pivot_patterns(3, 9)[index]
    n0, n1, n2 = (len(f) for f in free)
    step = local % 2 ** n2
    bits = (local >> (n1 + n2), (local >> n2) % 2 ** n1, step ^ (step >> 1))
    return tuple((1 << pivots[r]) | sum(1 << c for i, c in enumerate(free[r])
                                        if bits[r] >> i & 1)
                 for r in range(3))


def _position_rows(position):
    """The annihilator rows at a sequential position of the whole scan."""
    offsets = _pattern_offsets()
    index = bisect.bisect_right(offsets, position) - 1
    return _pattern_rows(index, position - offsets[index])


def _rows_matrix(rows):
    f2 = GF(2)
    return Matrix(f2, [[f2.one if x >> c & 1 else f2.zero for c in range(9)]
                       for x in rows])


def _gray_scan_oracle(gens, pattern_indices):
    """First hit per mask by the object route, walking each pattern in the
    scan order of _pattern_rows."""
    offsets = _pattern_offsets()
    trivectors = {mask: _mask_trivector(gens, mask)
                  for mask in range(2 ** (len(gens) - 1))}
    first = {}
    for index in pattern_indices:
        for local in range(offsets[index + 1] - offsets[index]):
            rows = _pattern_rows(index, local)
            w = _rows_matrix(rows)
            for mask, t in trivectors.items():
                if mask not in first and destabilizes(t, w):
                    first[mask] = (offsets[index] + local, rows)
    return first


# patterns of at most 2^9 subspaces, with up to 3 Gray-coded columns
_SMALL_PATTERNS = [i for i, (_, free) in enumerate(pivot_patterns(3, 9))
                   if sum(len(f) for f in free) <= 9]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=10,
                         unique=True).map(tuple), min_size=1, max_size=3),
       st.lists(st.sampled_from(_SMALL_PATTERNS), min_size=1, max_size=3,
                unique=True).map(sorted))
# first hit at Gray step 3, the first step whose flipped column is not the
# highest bit of the step number
@example([((2, 5, 7), (1, 4, 8), (2, 3, 9), (2, 8, 9), (1, 4, 6), (2, 4, 9))],
         [19])
def test_gray_scan_matches_object_oracle(gens, pattern_indices):
    assert _gray_scan_f2(gens, pattern_indices) == \
        _gray_scan_oracle(gens, pattern_indices)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=12,
                         unique=True).map(tuple), min_size=1, max_size=3))
def test_gray_scan_whole_grassmannian(gens):
    # every first hit over all 84 patterns destabilizes its trivector by the
    # object route and sits at the position the oracle's scan order gives it
    first = _gray_scan_f2(gens, range(len(pivot_patterns(3, 9))))
    for mask, (position, rows) in first.items():
        assert destabilizes(_mask_trivector(gens, mask), _rows_matrix(rows))
        assert _position_rows(position) == rows


def test_pivot_patterns_colex_order_and_count():
    patterns = pivot_patterns(3, 9)
    assert [p for p, _ in patterns] == sorted(
        itertools.combinations(range(9), 3), key=lambda p: p[::-1])
    assert sum(2 ** sum(len(f) for f in free)
               for _, free in patterns) == gaussian_binomial(9, 3, 2)


def test_verdict_consistency_random_f2():
    rng = random.Random(3)
    f2 = GF(2)
    for _ in range(6):
        c = CurveCoeffs(f2, {d: f2.el(rng.randrange(2)) for d in CURVE_DEGREES})
        report = stability_verdict_gamma_c(c, max_ext_degree=2)
        assert report.consistent
        if report.verdict.status == "non_stable":
            ext = report.verdict.witness.field
            emb = embed_map(f2, ext) if ext != f2 else (lambda a: a)
            te = build_gamma_c(c.map_coeffs(ext, emb)) if ext != f2 \
                else build_gamma_c(c)
            assert witness_verify(te, report.verdict.witness)


def test_anchored_search_finds_extension_witness():
    # a singular curve whose singular point lives only over F_4
    f2 = GF(2)
    c = CurveCoeffs(f2, {3: 1, 9: 1, 15: 1, 12: 1, 18: 1})
    if curve_is_smooth(c):
        pytest.skip("instance unexpectedly smooth")
    assert destabilizer_search(build_gamma_c(c), 1).status == "stable"
    u = anchored_witness_search(build_gamma_c(c), 2)
    assert u is not None


def _object_anchored_search(t, ext_degree):
    """Oracle: the object-level loop over the rank-6 points in scan order
    (phi_at, rref, kernel_matrix, destabilizes on each one)."""
    ext = extension_of(t.field, ext_degree)
    te = t.map_coeffs(ext, embed_map(t.field, ext))
    kern, _, codes, ranks = rank_locus_codes(te, max_rank=6)
    for row, r in zip(codes, ranks):
        if r != 6:
            continue
        red, piv = phi_at(te, [kern.decode(c) for c in row]).rref()
        if len(piv) != 6:
            continue
        u = Matrix(ext, red.rows[:6])
        w = kernel_matrix(u)
        if w.nrows == 3 and destabilizes(te, w):
            return u
    return None


@pytest.mark.parametrize("coeffs", [[0, 0, 0, 1, 0, 0, 1, 0],
                                    [0, 0, 0, 1, 0, 1, 1, 1],
                                    [1, 0, 1, 0, 1, 0, 0, 0]],
                         ids=lambda v: "".join(map(str, v)))
def test_anchored_search_matches_object_loop(coeffs):
    # curves over F_2 whose singular points all have degree 2
    f2 = GF(2)
    c = CurveCoeffs.from_list(f2, [f2.el(v) for v in coeffs])
    assert not curve_is_smooth(c)
    t = build_gamma_c(c)
    u = anchored_witness_search(t, 2)
    assert u is not None
    assert u == _object_anchored_search(t, 2)


def _degree2_singular_curves():
    """The normal-form curves over F_2 whose singular points all have
    degree 2 (none is F_2-rational)."""
    f2 = GF(2)
    out = []
    for bits in range(256):
        c = CurveCoeffs.from_list(f2, [f2.el(bits >> i & 1) for i in range(8)])
        if not curve_is_smooth(c) and not singular_points_of_curve(c, 1):
            out.append(c)
    return out


def _full_scan_anchored_search(t, ext_degree):
    """Oracle: the collect-then-test route, a full rank_locus_codes scan
    followed by the batched test of its rank-6 points, 1024 at a time."""
    ext = extension_of(t.field, ext_degree)
    te = t.map_coeffs(ext, embed_map(t.field, ext))
    kern, _, codes, ranks = rank_locus_codes(te, max_rank=6)
    candidates = codes[ranks == 6]
    tensor = loci._structure_tensor_codes(te, kern)
    for start in range(0, candidates.shape[0], 1024):
        batch = candidates[start:start + 1024]
        hits = np.nonzero(_anchored_hits(kern, batch, tensor))[0]
        if hits.size:
            point = [kern.decode(c) for c in batch[hits[0]]]
            red, _ = phi_at(te, point).rref()
            return Matrix(ext, red.rows[:6])
    return None


def test_streamed_anchored_search_matches_full_scan(monkeypatch):
    curves = _degree2_singular_curves()
    assert len(curves) == 16
    scanned = []

    def counting(*args, **kwargs):
        for codes, ranks, hist in real(*args, **kwargs):
            scanned[-1] += int(hist.sum())
            yield codes, ranks, hist
    real = loci.iter_rank_locus
    monkeypatch.setattr(loci, "iter_rank_locus", counting)
    for c in curves:
        t = build_gamma_c(c)
        scanned.append(0)
        u = anchored_witness_search(t, 2)
        assert 0 < scanned[-1] < projective_count(4) // 10
        assert u is not None
        assert u == _full_scan_anchored_search(t, 2)


def test_anchored_search_budget_and_no_point_cap():
    # refused before any scan: P^8(F_9) has 48,427,561 points
    c3 = CurveCoeffs(GF(3), {})
    with pytest.raises(BudgetExceeded):
        anchored_witness_search(build_gamma_c(c3), 2)
    # x^2 + z^5 over F_7 is singular at the origin; a collecting
    # rank_locus_codes(max_rank=6) scan of it passes the default point cap
    # (300,000) and raises, while the streamed search keeps no points and
    # stops at the first hit
    c7 = CurveCoeffs(GF(7), {})
    assert not curve_is_smooth(c7)
    u = anchored_witness_search(build_gamma_c(c7), 1)
    assert u is not None and witness_verify(build_gamma_c(c7), u)


def test_anchored_search_smooth_curve_has_no_witness():
    f2 = GF(2)
    c = CurveCoeffs(f2, {15: 1})
    assert curve_is_smooth(c)
    assert anchored_witness_search(build_gamma_c(c), 2) is None


def test_rational_stability_via_reduction():
    c = CurveCoeffs(Q, {15: 1, 30: 1})
    t = build_gamma_c(c)
    report = rational_stability_report(t)
    assert report.status == "stable"
    with pytest.raises(UnsupportedField):
        rational_stability_report(gamma0(GF(7)))


def test_single_scan_witness_and_count():
    f2 = GF(2)
    v = destabilizer_search(gamma0(f2), 1)
    assert v.status == "non_stable" and witness_verify(gamma0(f2), v.witness)
    ts = build_gamma_c(CurveCoeffs(f2, {15: 1}))
    s = destabilizer_search(ts, 1)
    assert s.status == "stable"
    assert s.subspaces_checked == 788035
    tm = Trivector(f2, {trip: f2.one for trip in ((4, 6, 7), (5, 7, 8),
                                                  (1, 5, 6), (2, 5, 6),
                                                  (1, 3, 9))})
    m = destabilizer_search(tm, 1)
    assert m.status == "non_stable"
    assert m.subspaces_checked == 262145


def _anchors_and_singular_rank6(t):
    """The rank-6 points whose kernel destabilizes, by _anchored_hits on
    every rank-6 point of the scan, and the rank-6 points of the
    elimination set of the sieved scan, as coded arrays in scan order."""
    kern = field_kernel(t.field)
    tensor = loci._structure_tensor_codes(t, kern)
    anchors = [np.zeros((0, 9), dtype=kern.dtype)]
    for codes, ranks, _ in loci.iter_rank_locus(t, max_rank=6):
        six = codes[ranks == 6]
        if six.size:
            anchors.append(six[_anchored_hits(kern, six, tensor)])
    singular = [codes[ranks == 6] for codes, ranks, _ in
                loci.iter_rank_locus(t, _singular=True)]
    return np.concatenate(anchors), np.concatenate(singular)


def _draw_trivector(data, field, sparse):
    """A normal form with random coefficients, or, when `sparse`, possibly
    a random sparse trivector with up to 12 terms."""
    code = st.integers(0, field.order - 1)
    if not sparse or data.draw(st.booleans()):
        return build_gamma_c(CurveCoeffs(field, {
            d: field.from_int(data.draw(code)) for d in CURVE_DEGREES}))
    terms = data.draw(st.lists(
        st.tuples(st.sampled_from(TRIPLES), st.integers(1, field.order - 1)),
        min_size=1, max_size=12, unique_by=lambda term: term[0]))
    return Trivector(field, {trip: field.from_int(v) for trip, v in terms})


@pytest.mark.parametrize("p, k, examples", [(2, 1, 30), (3, 1, 12),
                                            (2, 2, 4), (5, 1, 2)],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(5)"])
def test_singular_rank6_points_are_the_anchors(p, k, examples):
    # the first fact of the witness engine: a rank-6 point is a singular
    # point of the Pfaffian cubic exactly when its kernel destabilizes.
    # Sparse trivectors are drawn up to F_4: many have C = 0, which sends
    # all of P^8 through elimination (about 5 s over F_5)
    field = GF(p, k)
    anchors, singular = _anchors_and_singular_rank6(
        build_gamma_c(CurveCoeffs(field, {})))
    assert anchors.shape[0] > 0             # the cusp curve has anchors
    assert np.array_equal(anchors, singular)

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def check(data):
        anchors, singular = _anchors_and_singular_rank6(
            _draw_trivector(data, field, field.order <= 4))
        assert np.array_equal(anchors, singular)
    check()


def _engine_finds_witness(t):
    return _singular_point_witness(t, 10 ** 7)[0] is not None


def test_engine_matches_gray_scan_on_the_f2_family(family_scan):
    found = family_scan[0]
    assert [_engine_finds_witness(build_gamma_c(_family_curve(cmask)))
            for cmask in range(256)] == found


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=12,
                unique=True))
@example([(1, 2, 3)])       # all points of rank <= 2: only planes witness
def test_engine_matches_gray_scan_on_sparse_f2(triples):
    t = Trivector(GF(2), {trip: GF(2).one for trip in triples})
    assert _engine_finds_witness(t) == bool(_scan_f2([tuple(t.coeffs)])[0])


@pytest.mark.parametrize("p, k, count", [(3, 1, 40), (2, 2, 20), (5, 1, 8)],
                         ids=["GF(3)", "GF(4)", "GF(5)"])
def test_engine_verdict_is_a_rational_singular_point(p, k, count):
    # stability at degree 1 over fields past F_2, against the enumeration
    # of the curve's singular points; half the coefficients are zero, so
    # both verdicts occur
    field = GF(p, k)
    rng = random.Random(18)
    statuses = set()
    for _ in range(count):
        c = CurveCoeffs(field, {d: field.random(rng) if rng.random() < 0.5
                                else field.zero for d in CURVE_DEGREES})
        verdict = destabilizer_search(build_gamma_c(c), 1)
        assert (verdict.status == "non_stable") == \
            bool(singular_points_of_curve(c, 1))
        statuses.add(verdict.status)
    assert statuses == {"stable", "non_stable"}


def test_plane_stage_finds_witnesses_without_anchors():
    # every point of e123 + e456 has rank <= 4, so no kernel is an anchor
    # and the witness comes from a 2-plane at a rank-4 point
    for field in (GF(3), GF(2, 2)):
        t = Trivector(field, {(1, 2, 3): field.one, (4, 5, 6): field.one})
        _, singular = _anchors_and_singular_rank6(t)
        assert singular.shape[0] == 0
        verdict = destabilizer_search(t, 1)
        assert verdict.status == "non_stable"
        assert witness_verify(t, verdict.witness)
        assert verdict.subspaces_checked > projective_count(field.order)


def test_engine_budget_counts_points_and_planes():
    # P^8(F_3) has 9,841 points; the smooth c30 = 1 curve adds 1,300
    # planes at its 10 rank-4 points, so 11,141 candidates in all
    t = build_gamma_c(CurveCoeffs(GF(3), {30: 1}))
    verdict = destabilizer_search(t, 1)
    assert verdict.status == "stable"
    assert verdict.subspaces_checked == 11141
    with pytest.raises(BudgetExceeded) as info:
        destabilizer_search(t, 1, budget=9840)
    assert info.value.count == 9841
    with pytest.raises(BudgetExceeded):
        destabilizer_search(t, 1, budget=11140)
    # F_2 curves reach degree 2 in one P^8(F_4) scan
    c = CurveCoeffs(GF(2), {3: 1, 9: 1, 15: 1})
    verdict = destabilizer_search(build_gamma_c(c), 2)
    assert (verdict.status, verdict.searched_ext_degree) == ("non_stable", 2)


def test_rational_stability_through_mod_3():
    t = build_gamma_c(CurveCoeffs(Q, {30: 1}))
    report = rational_stability_report(t, primes=(2, 3))
    assert report.status == "stable"
    assert "mod 3" in report.note


def test_rational_stability_default_primes_reach_mod_3():
    # the default primes are ones the default budget decides: this curve
    # is not certified mod 2, and the default report goes on to p = 3
    t = build_gamma_c(CurveCoeffs(Q, {30: 1}))
    report = rational_stability_report(t)
    assert report.status == "stable"
    assert "mod 3" in report.note
