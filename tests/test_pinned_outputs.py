"""Literal sha256 pins of exact outputs: the graded bracket over five fields
and every kind of deg0 part, act3/act6 on the same matrices, gl_act, and the
3-rank reports of the 25 C7 curves.

The values were recorded before the products and actions learned to skip
zero entries; every route must reproduce them exactly, and a change of one
coefficient anywhere changes a hash."""

import hashlib
import json
import random

import pytest

from trivector.acceptance import _smooth_curves
from trivector.e8 import GradedE8Element, Wedge6, act3, act6, bracket, three_rank
from trivector.fields import GF, Q
from trivector.linalg import Matrix
from trivector.trivector import TRIPLES, Trivector, gl_act

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
