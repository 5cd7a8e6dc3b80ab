"""Literal sha256 pins of exact outputs: the graded bracket over five fields
and every kind of deg0 part, act3/act6 on the same matrices, gl_act, the
3-rank reports of the 25 C7 curves, and every encoding of the skew pencil
phi(x) = iota_x t (phi_at, phi_pencil, pfaffian_cubic, the coded structure
tensor and build_skew, the coded flag candidates, the F_2 witness scan and
the double contraction).

The bracket, action and gl_act values were recorded before the products and
actions learned to skip zero entries, the pencil values before its three
contraction slots were written once (trivector.CONTRACTION_SLOTS); every
route must reproduce them exactly, and a change of one coefficient anywhere
changes a hash."""

import hashlib
import json
import random

import pytest

import numpy as np

from trivector.acceptance import _smooth_curves
from trivector.e8 import (GradedE8Element, Wedge6, _wedge_codes, act3, act6,
                          bracket, three_rank)
from trivector.fields import GF, Q
from trivector.flags import _coded_flag_candidates
from trivector.linalg import Matrix
from trivector.loci import (_structure_tensor_codes, pfaffian_cubic,
                            rank_locus_codes)
from trivector.scan import field_kernel
from trivector.stability import _scan_f2, double_contract, gamma_family_scan_f2
from trivector.trivector import (CURVE_DEGREES, TRIPLES, CurveCoeffs,
                                 Trivector, build_gamma_c, gl_act, phi_at,
                                 phi_pencil)

_FIELDS = (Q, GF(2, 2), GF(3), GF(7), GF(3, 2))
_DEG0_KINDS = ("sparse", "dense", "diagonal", "scalar", "zero")


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _matrix(m):
    return [[repr(c) for c in row] for row in m.rows]


def _terms(coeffs):
    return [[list(k), repr(c)] for k, c in sorted(coeffs.items())]


def _element(x):
    return [_matrix(x.deg0), _terms(x.deg1.coeffs), _terms(x.deg2.coeffs)]


def _deg0(field, kind, r):
    m = Matrix.zero(field, 9, 9)
    if kind == "sparse":       # as C7 draws it: five random slots
        for _ in range(5):
            m.rows[r.randrange(9)][r.randrange(9)] = field.random(r)
    elif kind == "dense":
        m = Matrix(field, [[field.random(r) for _ in range(9)] for _ in range(9)])
    elif kind == "diagonal":   # carries a trace
        for d in range(9):
            m.rows[d][d] = field.random(r)
    elif kind == "scalar":     # zero modulo scalars
        m = Matrix.identity(field, 9).scale(field.random(r))
    return m


def _trivector_terms(field, r, n):
    return {TRIPLES[r.randrange(84)]: field.random(r) for _ in range(n)}


def _elements(field):
    """Two elements per deg0 kind; deg1 and deg2 carry 5 terms, except that
    the second of each kind has 20 in deg1."""
    r = random.Random(2200 + (field.order or 0))
    out = []
    for kind in _DEG0_KINDS:
        for n1 in (5, 20):
            out.append(GradedE8Element(
                field, _deg0(field, kind, r),
                Trivector(field, _trivector_terms(field, r, n1)),
                Wedge6(field, _trivector_terms(field, r, 5))))
    return out


def bracket_digest(field):
    els = _elements(field)
    return _digest([_element(bracket(x, y)) for x in els for y in els])


def action_digest(field):
    """act3 and act6 of the raw deg0 matrices (not their canonical classes)
    on every deg1 and deg2 part."""
    r = random.Random(2300 + (field.order or 0))
    mats = [_deg0(field, kind, r) for kind in _DEG0_KINDS for _ in range(2)]
    els = _elements(field)
    return _digest([[_terms(act3(m, x.deg1).coeffs), _terms(act6(m, x.deg2).coeffs)]
                    for m in mats for x in els])


def _invertible(field, r, entries):
    """A random invertible matrix: dense when entries is None, else the
    identity with that many slots redrawn (a sparse g, joint supports of
    a few coordinates)."""
    while True:
        if entries is None:
            g = Matrix(field, [[field.random(r) for _ in range(9)]
                               for _ in range(9)])
        else:
            g = Matrix.identity(field, 9)
            for _ in range(entries):
                g.rows[r.randrange(9)][r.randrange(9)] = field.random(r)
        if g.is_invertible():
            return g


def gl_act_digest(field):
    r = random.Random(2400 + (field.order or 0))
    out = []
    for entries in (None, 0, 2, 6):
        for n in (1, 5, 20):
            g = _invertible(field, r, entries)
            t = Trivector(field, _trivector_terms(field, r, n))
            out.append(_terms(gl_act(g, t).coeffs))
    return _digest(out)


def c7_curves():
    """The 25 curves of C7, drawn from its generator after its 150 graded
    elements."""
    f3 = GF(3)
    rng = random.Random(7)
    for _ in range(150):
        for _ in range(5):     # the value is drawn before its slot
            f3.random(rng), rng.randrange(9), rng.randrange(9)
        for _ in range(2):
            _trivector_terms(f3, rng, 5)
    return (_smooth_curves(f3, 13, rng, weierstrass=True)
            + _smooth_curves(GF(3, 2), 12, rng, weierstrass=True))


def three_rank_digest():
    return _digest([three_rank(c).to_json() for c in c7_curves()])


BRACKET_PINS = {
    "Q": "4220f169a76450b01280c97fb6574557dda9667be52b87d3538089b35953689e",
    "GF(2^2)": "28b03c990e1ff25fd58ea11f77b29c103e5ab8ff8e3f9103bfd44ec97bc29d12",
    "GF(3)": "6cb6210dd436881a983c6bcdf2adc34c148ca5eb14621e86dd48d26d21c613cf",
    "GF(7)": "0f7e272c9672141d2a185be1ad4807863269eb667c9c459020b6d698e5842712",
    "GF(3^2)": "922b50ae0ec6a4c08708df4d38ee0d4df7d1d25cd4942dedef71823642199cf0",
}
ACTION_PINS = {
    "Q": "c004c138668b4a6d3ca0d3e527c003355b02a9bc6f91cbcedae8c3cc55552ce0",
    "GF(2^2)": "0213b14b735c5f4061374aea26b77e7dca6543ab93f2556699b921584bfb8269",
    "GF(3)": "0e9714f0951b9ea9600b41aa02b6158d586966f5594254f630c73c4265c65ea7",
    "GF(7)": "3cba8fbe9f6d0e5cf1bee1883d5599956ec90c69c33d76c023b31c7b98c1adf9",
    "GF(3^2)": "e175e3a83e7f12a728b0245cb40eea22e29ffba379392b01049217a1910b9eb0",
}
GL_ACT_PINS = {
    "Q": "ecdf7eaef2128ea318935c06a1e7f588d468ef9f84d3c38a522dabad8b7f4c6a",
    "GF(2^2)": "a6637603fc37c0ac1b6b97349b91eb8fe257ad97d5c583827e299ed2a0bcdace",
    "GF(3)": "b1b1044bc7f046d0afa22bad20aa60131c269be7ab07adf66aa8fcb6272051e2",
    "GF(7)": "18be9112e670f914fba6122c48893d610d0399cf8692da9279fb45c281d9721d",
    "GF(3^2)": "28a3cfc771b678b4e05ce58dd6e8d2a4c40d6efe0d99a57cc8db26d6fa1ce900",
}
THREE_RANK_PIN = "0b0470c43a955ba8be5107a1fa9d0f5ec26ac301874912202a69157860ad0075"


@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_bracket_pinned(field):
    assert bracket_digest(field) == BRACKET_PINS[str(field)]


@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_act3_act6_pinned(field):
    assert action_digest(field) == ACTION_PINS[str(field)]


@pytest.mark.parametrize("field", _FIELDS, ids=str)
def test_gl_act_pinned(field):
    assert gl_act_digest(field) == GL_ACT_PINS[str(field)]


def test_c7_three_rank_reports_pinned():
    assert three_rank_digest() == THREE_RANK_PIN


# ---------------------------------------------------------------------------
# the skew pencil phi(x) = iota_x t, every encoding of it

_PENCIL_FIELDS = (GF(2), GF(3), GF(2, 2), GF(5), GF(3, 2), GF(191), Q)
_CODED_FIELDS = _PENCIL_FIELDS[:-1]
# every line of a point's image is tried where t mod im phi(x) = 0: 7.0
# million over GF(191)
_FLAG_FIELDS = _CODED_FIELDS[:-1]


def _covectors(field, r):
    """A dense drawn covector, one with each coordinate zero half the time,
    and a unit covector."""
    dense = [field.random(r) for _ in range(9)]
    sparse = [field.random(r) if r.random() < 0.5 else field.zero
              for _ in range(9)]
    unit = [field.zero] * 9
    unit[r.randrange(9)] = field.one
    return [dense, sparse, unit]


def _pencil_cases(field):
    """(t, covectors): the zero trivector, trivectors with 1, 5 and 20
    drawn slots, all 84 slots drawn, and gamma_c of drawn curve
    coefficients."""
    r = random.Random(2500 + (field.order or 0))
    ts = [Trivector(field)]
    ts += [Trivector(field, _trivector_terms(field, r, n)) for n in (1, 5, 20)]
    ts.append(Trivector(field, {t: field.random(r) for t in TRIPLES}))
    ts.append(build_gamma_c(CurveCoeffs(field, {d: field.random(r)
                                                for d in CURVE_DEGREES})))
    return [(t, _covectors(field, r)) for t in ts]


def _poly(p):
    return _terms(p.terms)


def phi_at_digest(field):
    return _digest([_matrix(phi_at(t, x)) for t, xs in _pencil_cases(field)
                    for x in xs])


def phi_pencil_digest(field):
    return _digest([[[_poly(e) for e in row] for row in phi_pencil(t)]
                    for t, _ in _pencil_cases(field)])


def pfaffian_cubic_digest(field):
    return _digest([_poly(pfaffian_cubic(t)) for t, _ in _pencil_cases(field)])


def double_contract_digest(field):
    return _digest([[repr(v) for v in double_contract(t, x, y)]
                    for t, xs in _pencil_cases(field) for x in xs for y in xs])


def _codes(a):
    return [str(a.dtype), a.tolist()]


def structure_tensor_digest(field):
    """The coded structure tensor and the coded wedge with t, which index
    the same signed codes of t."""
    kern = field_kernel(field)
    return _digest([[_codes(_structure_tensor_codes(t, kern)),
                     _codes(_wedge_codes(t, kern))]
                    for t, _ in _pencil_cases(field)])


def _coded_points(kern, r, n, dtype=None):
    return np.array([[r.randrange(kern.q) for _ in range(9)]
                     for _ in range(n)], dtype=dtype or kern.dtype)


def build_skew_digest(field):
    """build_skew and the coded double contraction on drawn code points,
    zero rows among them; once more on int64 points."""
    kern = field_kernel(field)
    r = random.Random(2600 + field.order)
    out = []
    for t, _ in _pencil_cases(field):
        tensor = _structure_tensor_codes(t, kern)
        pts = _coded_points(kern, r, 40)
        pts[::7] = 0
        wide = _coded_points(kern, r, 10, np.int64)
        out.append([_codes(kern.build_skew(pts, tensor)),
                    _codes(kern.build_skew(wide, tensor)),
                    _codes(kern.double_contract(pts[:20], pts[20:], tensor))])
    return _digest(out)


def flag_candidates_digest(field):
    """The coded flag candidates of a moved gamma_c at its rank-4 points
    (one P^8 scan, so only while q <= 5) and of a moved three-slot
    trivector at drawn rank-4 points, where t mod im phi(x) = 0 and every
    line of the image is tried."""
    kern = field_kernel(field)
    r = random.Random(2800 + field.order)
    one = field.one
    cases = []
    if field.order <= 5:
        gamma = gl_act(_invertible(field, r, None), build_gamma_c(CurveCoeffs(
            field, {d: field.random(r) for d in CURVE_DEGREES})))
        cases.append((gamma, rank_locus_codes(gamma, max_rank=4)[2]))
    sparse = gl_act(_invertible(field, r, None), Trivector(
        field, {(1, 2, 3): one, (1, 4, 5): one, (2, 6, 7): -one}))
    pts = _coded_points(kern, r, 200)
    ranks = kern.batched_rank(kern.build_skew(
        pts, _structure_tensor_codes(sparse, kern)))
    cases.append((sparse, pts[ranks == 4][:6]))
    return _digest([[[np.asarray(a).tolist() for a in cand]
                     for cand in _coded_flag_candidates(t, kern, pts)]
                    for t, pts in cases])


def scan_f2_digest():
    """The first witness of each destabilized mask and the subspace count:
    four drawn F_2 trivectors alone, a family of one drawn base and three
    drawn slots, and the 256-curve gamma_c family."""
    r = random.Random(2900)
    drawn = [tuple(sorted(r.sample(TRIPLES, n))) for n in (3, 6, 10, 16)]
    family = [drawn[2]] + [(r.choice(TRIPLES),) for _ in range(3)]
    scans = [_scan_f2([g]) for g in drawn] + [_scan_f2(family)]
    _, witness, checked = gamma_family_scan_f2()
    scans.append((witness, checked))
    return _digest([[sorted(w.items()), n] for w, n in scans])


PHI_AT_PINS = {
    "GF(2)": "a7c153d292d89ba387b7ec1286986ff66104fb10a9d8df19b1dd1d42894256bb",
    "GF(3)": "46d19e0627ccde1904f92eab42ac063fbbed9bd43aab6aa6e64f242e8756e8e1",
    "GF(2^2)": "8bca006ea2c380b9224a337f7bb059f3c74cc21b8b0bb7c112cd1451bfce1062",
    "GF(5)": "798aabf531f779a2794f75a5cf414caac8ac438dc021f6bebc65b1b0f41e0f5f",
    "GF(3^2)": "b1f2106f3eda32399c9c523239cacf081eec0585a50481a2130714c35871a561",
    "GF(191)": "e49cfa9ed1c50c276682e565c437b37da525bb367fa29539a5b2052807e5dfac",
    "Q": "86a90052aa09fd37046ab0640703610e664a6e94da196a231556d54192339192",
}
PHI_PENCIL_PINS = {
    "GF(2)": "adbad4dde6963fec167724bf9e613aef682f4b3d2c572f5a731bcf537c212b43",
    "GF(3)": "5c9e82c5a22f7ec475086344e1c99f6e696a6198e2d9ca2f81a747fd059b48de",
    "GF(2^2)": "3c15ad4a9629b5c722194a7808c7771133dc3be033338601abdea8d04bbecc1d",
    "GF(5)": "fcdff0531d2a59673e4eb87598f1c3ad84ff98524b245eaa02966e52fcf2d4a8",
    "GF(3^2)": "b119e3c2b646c3cbe8726a88b9936d156a5a548faa0b3d82848dffd13fc84e22",
    "GF(191)": "d05c8790d582fddea963858c25df04346a71d30f453cb08b456debf6fde559d7",
    "Q": "d9d7d67b08ffc5a2930368d21cd89d7b8adc71e5e3347dd336542b6196bc62cb",
}
PFAFFIAN_CUBIC_PINS = {
    "GF(2)": "58203f5558c4b88427c37b439928791c0a67e74241e4baeda88263489e38a45c",
    "GF(3)": "0b6900a3d947ab77d0b081d7eca538dc1f74a8db20eb6960cc9ebfb323ca077e",
    "GF(2^2)": "945e20860f995f81d41cb51ad2689c856cb9ce3313f98d35dc97b49989e84c36",
    "GF(5)": "38ce876bd082d90a4730394fe2e3d4465554a5325e169182e1b1b89f7aa33f81",
    "GF(3^2)": "6df96d26685433c10bd9749bb9555a505de9b576b950eaeda8dff2ea154cb2ea",
    "GF(191)": "6f0f60b3873349e66465e5fd7fcc30d08878d803eb3d44937fd6d4daef879338",
    "Q": "b1cd5492568096758cfecba249ebfaf8f850979c96962d4b2ccdb762326f5268",
}
DOUBLE_CONTRACT_PINS = {
    "GF(2)": "3e5abb538e1705cf99860c4bea2c0c2bf7a4dfc08fc6cf4d4a0f8381439371cf",
    "GF(3)": "7562bdf9ee6754edab1b3f949f32b1cdfd1f6d68393da4e878009db748bfb221",
    "GF(2^2)": "3c8280f84b7fa241ba918e20ab4312d203504893316d603eda317c8264687bf5",
    "GF(5)": "8e8cb0d383838432e424271af791efff53cf425056a19e15efc8c1e7496ae609",
    "GF(3^2)": "5b7c2717f26e6c876a0829a8906a71acd267de3b5855133d7434d637d50e0814",
    "GF(191)": "d30cbe1f03abe82bf01d5f734cbb7f2ff0770630adba1297587b21ac9e5ce269",
    "Q": "962ff843c8a486b98d0a1e91a7a32a75c642e2c3bafe4481f8194c895080e4bf",
}
STRUCTURE_TENSOR_PINS = {
    "GF(2)": "c25be284c2ed096be17bcb541e1309b2f88190992c8c79a44127c812c0ea3e46",
    "GF(3)": "9704fe5349e56eb33ec7a29f94e26bbc846383cef074760af219df4a7bbb3416",
    "GF(2^2)": "fe1607546e9d2bd026ea4428b4d899957aecc56f9d086fd9b04f5bfcb24f5281",
    "GF(5)": "1e28d2e02b3cb64174a83ccfa52abdad61b4c910964c3f4f628b9b2c1f1c5b84",
    "GF(3^2)": "dd4bd400a785e267f151b2a5bec2b1ebd9bc04d5743eea41399cffcc0bea05f3",
    "GF(191)": "6214638bf4804491c65cc24b1e01783848f363c545c4b1c66bf285c5a396a1f1",
}
BUILD_SKEW_PINS = {
    "GF(2)": "eac5464d28f2227ce6f66abc706d8ab88c8b7520c156852085e5c89a759a68f1",
    "GF(3)": "c879238e2c2114aab0f521ed521efa8370e608d608edda40e911c2bfd0773c03",
    "GF(2^2)": "dce2c64edc012ca30756d08d6840709e9d4942bec5feae069ee24ac465ce36ca",
    "GF(5)": "bf8f78ea0ad6bb2b12c275b97af7280da34a00a42a3f957b6e5dc17cac17388b",
    "GF(3^2)": "877dea591681fee533387ed1cb4929965fd39ebaf88304ed5e99548799ad8c20",
    "GF(191)": "e172eb506ca55d0c67d212f01d6cdb5f5c4c415d705bcc25a6124138dc903b00",
}
FLAG_CANDIDATE_PINS = {
    "GF(2)": "9065fbfc75ff23cb5b7dddef5c1e9ef574ef5c1cf58d02724bb4de376e69847a",
    "GF(3)": "f5c141abb8b142d24979f8d522583a20ebbb75a9cd36f6de4d338c7e81e81dc6",
    "GF(2^2)": "0fd39b15000bdd7a528b3de7182463b6a33139e4a61fed6b1b2119ff86ea1dc1",
    "GF(5)": "cee654fe6a788c3597d4d20c9ccbbc2252105c0973ec091fa7ad8b7b9aa3f2d0",
    "GF(3^2)": "e35e81b7d501ec601c1aa8f7b7627e19f8515241b831b40dba92d5dbe0e4a614",
}
SCAN_F2_PIN = "5cb666a5604170b75bfebb4a4ce710e4c925a7d85f3e23130ae5f6f458c065e0"


@pytest.mark.parametrize("field", _PENCIL_FIELDS, ids=str)
def test_phi_at_pinned(field):
    assert phi_at_digest(field) == PHI_AT_PINS[str(field)]


@pytest.mark.parametrize("field", _PENCIL_FIELDS, ids=str)
def test_phi_pencil_pinned(field):
    assert phi_pencil_digest(field) == PHI_PENCIL_PINS[str(field)]


@pytest.mark.parametrize("field", _PENCIL_FIELDS, ids=str)
def test_pfaffian_cubic_pinned(field):
    assert pfaffian_cubic_digest(field) == PFAFFIAN_CUBIC_PINS[str(field)]


@pytest.mark.parametrize("field", _PENCIL_FIELDS, ids=str)
def test_double_contract_pinned(field):
    assert double_contract_digest(field) == DOUBLE_CONTRACT_PINS[str(field)]


@pytest.mark.parametrize("field", _CODED_FIELDS, ids=str)
def test_structure_tensor_codes_pinned(field):
    assert structure_tensor_digest(field) == STRUCTURE_TENSOR_PINS[str(field)]


@pytest.mark.parametrize("field", _CODED_FIELDS, ids=str)
def test_build_skew_pinned(field):
    assert build_skew_digest(field) == BUILD_SKEW_PINS[str(field)]


@pytest.mark.parametrize("field", _FLAG_FIELDS, ids=str)
def test_coded_flag_candidates_pinned(field):
    assert flag_candidates_digest(field) == FLAG_CANDIDATE_PINS[str(field)]


def test_f2_witness_scan_pinned():
    assert scan_f2_digest() == SCAN_F2_PIN
