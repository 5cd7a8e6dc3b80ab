"""Trivectors in a 9-dimensional space: the normal-form family attached to
genus-2 curve coefficients, the GL(9) action on wedge-cubes, the skew pencil
of contractions, the standard Cartan subspace, and the weighted torus action.

Monomials e_i ^ e_j ^ e_k are written [ijk] with 1 <= i < j < k <= 9.

The pencil phi(x) = iota_x t has one sign convention, written once in
CONTRACTION_SLOTS; phi_at, phi_pencil, loci.pfaffian_cubic, the coded
structure tensor (loci._pencil_gather) and its readers all iterate it.
"""

from __future__ import annotations

import itertools

from .errors import NotInvertible, Singular
from .fields import Field
from .linalg import Matrix
from .polys import MultiPoly, Poly

__all__ = [
    "TRIPLES", "Trivector", "CurveCoeffs", "build_gamma_c", "gamma0", "gl_act",
    "weighted_torus_act", "standard_cartan_element", "cartan_basis",
    "phi_at", "phi_pencil", "ProjPoint", "sort_with_sign",
    "diagonal_matrix", "permutation_matrix", "FLAG_PERMUTATION",
    "permuted_gamma_c", "hyperplane_stabilizer_diag", "WEIGHTED_TORUS_WEIGHTS",
    "weighted_torus_diag", "GAMMA_BASE_TERMS", "GAMMA_C_TERMS", "CURVE_DEGREES",
    "CARTAN_LINES", "TRIPLE_INDEX", "wedge3_minors", "CONTRACTION_SLOTS",
    "pencil_slots",
]

TRIPLES = tuple(itertools.combinations(range(1, 10), 3))
TRIPLE_INDEX = {t: n for n, t in enumerate(TRIPLES)}

# iota_x(e_i^e_j^e_k) = x_i e_j^e_k - x_j e_i^e_k + x_k e_i^e_j: slot
# (a, b, v, sign) of a sorted triple T puts sign * t_T * x_{T[v]} at entry
# (T[a], T[b]) of phi(x), and its negative at (T[b], T[a])
CONTRACTION_SLOTS = ((1, 2, 0, 1), (0, 2, 1, -1), (0, 1, 2, 1))

GAMMA_BASE_TERMS = ((2, 6, 7), (2, 5, 8), (3, 4, 8), (1, 6, 9),
                    (3, 5, 7), (2, 4, 9), (1, 7, 8), (4, 5, 6))

# degree -> (sign, monomial) for the curve-coefficient terms of gamma_c
GAMMA_C_TERMS = {
    3: (-1, (2, 5, 7)),
    6: (-1, (2, 4, 7)),
    9: (+1, (1, 4, 8)),
    12: (-1, (1, 4, 7)),
    15: (+1, (2, 3, 5)),
    18: (+1, (1, 4, 5)),
    24: (+1, (1, 3, 4)),
    30: (+1, (1, 2, 3)),
}

CURVE_DEGREES = (3, 6, 9, 12, 15, 18, 24, 30)

WEIGHTED_TORUS_WEIGHTS = (15, 9, 6, 3, 0, -3, -6, -9, -12)

CARTAN_LINES = (
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    ((1, 4, 7), (2, 5, 8), (3, 6, 9)),
    ((1, 5, 9), (2, 6, 7), (3, 4, 8)),
    ((1, 6, 8), (2, 4, 9), (3, 5, 7)),
)

# One-line images of 1..9 for the basis permutation that makes the whole
# gamma_c family compatible with the standard coordinate flag.  The printed
# digit string 974852631 lists the images of 9, 8, ..., 1 in that order;
# reading it back to front gives the images of 1..9.  (The exhaustive search
# in the test suite confirms this is the only reading that works.)
FLAG_PERMUTATION = (1, 3, 6, 2, 5, 8, 4, 7, 9)


def sort_with_sign(i, j, k):
    """Sort a triple of distinct indices; returns ((a,b,c), sign) or None."""
    if i == j or j == k or i == k:
        return None
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b = b, a
        sign = -sign
    if b > c:
        b, c = c, b
        sign = -sign
        if a > b:
            a, b = b, a
            sign = -sign
    return (a, b, c), sign


class Trivector:
    """Element of the third wedge power: map from sorted triples to nonzero
    coefficients (zeros omitted)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=None):
        self.field = field
        clean = {}
        for t, c in (coeffs or {}).items():
            c = field.el(c) if isinstance(c, int) else c
            if not c.is_zero():
                t = tuple(t)
                if not (1 <= t[0] < t[1] < t[2] <= 9):
                    raise ValueError("bad triple %r" % (t,))
                clean[t] = c
        self.coeffs = clean

    def coeff(self, t):
        return self.coeffs.get(tuple(t), self.field.zero)

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Trivector) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = out.get(t)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(t, None)
            else:
                out[t] = s
        return Trivector(self.field, out)

    def __neg__(self):
        return Trivector(self.field, {t: -c for t, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.field.el(c) if isinstance(c, int) else c
        return Trivector(self.field, {t: x * c for t, x in self.coeffs.items()})

    def to_vector(self):
        """Coefficient vector over the 84 sorted triples."""
        z = self.field.zero
        return [self.coeffs.get(t, z) for t in TRIPLES]

    def proportional_to(self, other) -> bool:
        """True if self = lam * other for some nonzero scalar lam."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.coeffs) != set(other.coeffs):
            return False
        t0 = next(iter(self.coeffs))
        lam = self.coeffs[t0] / other.coeffs[t0]
        return all(self.coeffs[t] == lam * other.coeffs[t] for t in self.coeffs)

    def map_coeffs(self, target_field, fn):
        return Trivector(target_field,
                         {t: fn(c) for t, c in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for t in sorted(self.coeffs):
            parts.append("(%r)[%d%d%d]" % (self.coeffs[t], *t))
        return " + ".join(parts)


class CurveCoeffs:
    """The eight Weierstrass coefficients (c3, c6, ..., c30) of the genus-2
    normal form x^2 + z^5 + c3 x z^2 + c6 z^4 + c9 x z + c12 z^3 + c15 x
    + c18 z^2 + c24 z + c30."""

    __slots__ = ("field", "c")

    def __init__(self, field: Field, c=None):
        self.field = field
        self.c = {}
        for d in CURVE_DEGREES:
            v = (c or {}).get(d, field.zero)
            v = field.el(v) if isinstance(v, int) else v
            self.c[d] = v

    @classmethod
    def from_list(cls, field, values):
        return cls(field, dict(zip(CURVE_DEGREES, values)))

    def __getitem__(self, d):
        return self.c[d]

    def __eq__(self, other):
        return (isinstance(other, CurveCoeffs) and self.field == other.field
                and self.c == other.c)

    def as_list(self):
        return [self.c[d] for d in CURVE_DEGREES]

    def scaled(self, s):
        """The weighted rescaling (s . c)_i = s^i c_i."""
        return CurveCoeffs(self.field, {d: (s ** d) * self.c[d]
                                        for d in CURVE_DEGREES})

    def curve_poly(self) -> MultiPoly:
        """F(x, z) with variable 0 = x, variable 1 = z."""
        f = self.field
        terms = {
            (2, 0): f.one, (0, 5): f.one,
            (1, 2): self.c[3], (0, 4): self.c[6], (1, 1): self.c[9],
            (0, 3): self.c[12], (1, 0): self.c[15], (0, 2): self.c[18],
            (0, 1): self.c[24], (0, 0): self.c[30],
        }
        return MultiPoly(f, 2, terms)

    def xz_parts(self):
        """F = x^2 + A(z) x + B(z): (A, B) as univariate polys in z."""
        f, c = self.field, self.c
        return (Poly(f, [c[15], c[9], c[3]]),
                Poly(f, [c[30], c[24], c[18], c[12], c[6], f.one]))

    def map_coeffs(self, target_field, fn):
        return CurveCoeffs(target_field, {d: fn(c) for d, c in self.c.items()})

    def __repr__(self):
        parts = ["c%d=%r" % (d, self.c[d]) for d in CURVE_DEGREES
                 if not self.c[d].is_zero()]
        return "CurveCoeffs(%s)" % ", ".join(parts) if parts else "CurveCoeffs(0)"


def build_gamma_c(c: CurveCoeffs) -> Trivector:
    """The 16-slot normal-form trivector attached to curve coefficients."""
    f = c.field
    coeffs = {t: f.one for t in GAMMA_BASE_TERMS}
    for d in CURVE_DEGREES:
        sign, mono = GAMMA_C_TERMS[d]
        v = c[d] if sign == 1 else -c[d]
        if not v.is_zero():
            coeffs[mono] = v
    return Trivector(f, coeffs)


def gamma0(field: Field) -> Trivector:
    return build_gamma_c(CurveCoeffs(field))


def diagonal_matrix(field, diag) -> Matrix:
    n = len(diag)
    rows = [[field.zero] * n for _ in range(n)]
    for i, d in enumerate(diag):
        rows[i][i] = field.el(d) if isinstance(d, int) else d
    return Matrix(field, rows)


def permutation_matrix(field, sigma) -> Matrix:
    """Matrix of e_i -> e_{sigma(i)}; sigma is a tuple of images of 1..9."""
    n = len(sigma)
    rows = [[field.zero] * n for _ in range(n)]
    for i, s in enumerate(sigma):
        rows[s - 1][i] = field.one
    return Matrix(field, rows)


def gl_act(g: Matrix, t: Trivector) -> Trivector:
    """Push each e_i to the i-th column of g and expand on wedge-cubes."""
    if not g.is_invertible():
        raise Singular("gl_act needs an invertible matrix")
    cols = g.transpose().rows  # cols[i] = image of e_{i+1}
    out = {}
    for (i, j, k), c in t.coeffs.items():
        for key, det in wedge3_minors(cols[i - 1], cols[j - 1], cols[k - 1]):
            s = out.get(key)
            out[key] = c * det if s is None else s + c * det
    return Trivector(t.field, out)


def wedge3_minors(u, v, w):
    """u ^ v ^ w for vectors u, v, w of length 9: the nonzero 3x3 minors of
    the 9x3 matrix with columns u, v, w, as (row triple, minor) pairs in
    the order of TRIPLES.  A row triple not inside the joint support of
    u, v and w has a zero row, so only the triples of that support are
    evaluated; combinations of the sorted support come in TRIPLES order.
    Each minor is expanded along u over the 2x2 minors of v, w, which are
    formed once per pair of rows."""
    support = [p for p in range(9)
               if not (u[p].is_zero() and v[p].is_zero() and w[p].is_zero())]
    vw = {(q, r): v[q] * w[r] - v[r] * w[q]
          for q, r in itertools.combinations(support, 2)}
    for p, q, r in itertools.combinations(support, 3):
        det = u[p] * vw[q, r] - u[q] * vw[p, r] + u[r] * vw[p, q]
        if not det.is_zero():
            yield (p + 1, q + 1, r + 1), det


def weighted_torus_diag(field, s):
    """diag(s^15, s^9, s^6, s^3, 1, s^-3, s^-6, s^-9, s^-12)."""
    if s.is_zero():
        raise NotInvertible("torus parameter must be invertible")
    return diagonal_matrix(field, [s ** w if w >= 0 else s.inv() ** (-w)
                                   for w in WEIGHTED_TORUS_WEIGHTS])


def weighted_torus_act(s, c: CurveCoeffs):
    """Certificate that the weighted torus action rescales each c_i by s^i.

    Returns (acted, expected, ok) where acted = g_s . gamma_c and
    expected = gamma_{s.c}.
    """
    field = c.field
    s = field.el(s) if isinstance(s, int) else s
    g = weighted_torus_diag(field, s)
    acted = gl_act(g, build_gamma_c(c))
    expected = build_gamma_c(c.scaled(s))
    return acted, expected, acted == expected


def standard_cartan_element(a1, a2, a3, a4, field=None) -> Trivector:
    """a1([123]+[456]+[789]) + a2([147]+[258]+[369]) + a3([159]+[267]+[348])
    + a4([168]+[249]+[357])."""
    if field is None:
        field = a1.field
    coeffs = {}
    for a, lines in zip((a1, a2, a3, a4), CARTAN_LINES):
        a = field.el(a) if isinstance(a, int) else a
        if not a.is_zero():
            for t in lines:
                coeffs[t] = a
    return Trivector(field, coeffs)


def cartan_basis(field):
    out = []
    for m in range(4):
        args = [field.one if i == m else field.zero for i in range(4)]
        out.append(standard_cartan_element(*args, field=field))
    return out


def hyperplane_stabilizer_diag(field, t) -> Matrix:
    """diag(t^-2, t, t, t, t, t^-2, t, t^-2, t): stabilizes the span of the
    first three Cartan basis vectors pointwise."""
    t = field.el(t) if isinstance(t, int) else t
    if t.is_zero():
        raise NotInvertible("parameter must be invertible")
    ti2 = t.inv() ** 2
    return diagonal_matrix(field, [ti2, t, t, t, t, ti2, t, ti2, t])


class ProjPoint:
    """Point of P(V9*): 9 coordinates, first nonzero coordinate scaled to 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [field.el(c) if isinstance(c, int) else c for c in coords]
        if len(coords) != 9:
            raise ValueError("need 9 coordinates")
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise ValueError("projective point cannot be zero")
        inv = lead.inv()
        self.field = field
        self.coords = [c * inv for c in coords]

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(self.coords))

    def __repr__(self):
        return "[" + ":".join(repr(c) for c in self.coords) + "]"


def pencil_slots(t: Trivector):
    """(a, b, v, c) for each slot of each triple of t (CONTRACTION_SLOTS):
    entry (a, b), a < b, of phi(x) holds c * x_v.  The triples are strictly
    sorted, so no entry (a, b) with its v comes twice."""
    for trip, c in t.coeffs.items():
        neg = -c
        for a, b, v, sign in CONTRACTION_SLOTS:
            yield trip[a], trip[b], trip[v], c if sign > 0 else neg


def phi_at(t: Trivector, x) -> Matrix:
    """The skew matrix of the contraction of t by the covector x; entry
    (a, b), a < b, collects the coefficient of e_a^e_b (CONTRACTION_SLOTS).
    """
    if isinstance(x, ProjPoint):
        x = x.coords
    m = [[t.field.zero] * 9 for _ in range(9)]
    for a, b, v, c in pencil_slots(t):
        xv = x[v - 1]
        if not xv.is_zero():
            cx = c * xv
            m[a - 1][b - 1] = m[a - 1][b - 1] + cx
            m[b - 1][a - 1] = m[b - 1][a - 1] - cx
    return Matrix(t.field, m)


def phi_pencil(t: Trivector) -> list:
    """The 9x9 grid of linear forms in 9 variables whose value at x is
    phi_at(t, x)."""
    field = t.field
    zero = MultiPoly(field, 9)
    entries = [[zero for _ in range(9)] for _ in range(9)]
    for a, b, v, c in pencil_slots(t):
        mono = MultiPoly(field, 9, {(0,) * (v - 1) + (1,) + (0,) * (9 - v): c})
        entries[a - 1][b - 1] = entries[a - 1][b - 1] + mono
        entries[b - 1][a - 1] = entries[b - 1][a - 1] - mono
    return entries


def permuted_gamma_c(c: CurveCoeffs) -> Trivector:
    """gamma_c pushed through the frozen basis permutation; this is the form
    whose compatible-flag scheme contains the standard coordinate flag."""
    g = permutation_matrix(c.field, FLAG_PERMUTATION)
    return gl_act(g, build_gamma_c(c))
