"""The Z/3-graded 248-dimensional Lie algebra gl9-mod-scalars + wedge^3 +
wedge^6, its bracket, restricted cubing in characteristic 3, and the
3-rank classifier for the normal-form curves.

The degree-0 component is gl9 modulo scalar matrices (canonical
representative: (9,9) entry zero).  In characteristic 3 scalars act as zero
on both wedge powers, so classes act through any representative; away from
characteristic 3 the class action is the traceless-representative action,
which the uniform trace-correction constants below encode.  All remaining
normalization constants are pinned by the Jacobi identity (the test suite
re-derives them); they were fitted once by exact computation and frozen.

Restricted powers never build the 248 x 248 ad t: the deg1 block of
(ad t)^3 runs deg1 -> deg2 -> deg0 -> deg1, and each of those three blocks
is read off the 84 coefficients of t (_ad_blocks): the cached action table
applied to t, the same product transposed in the 80 canonical coordinates
and scaled by a EPS, and a field-independent gather of t for the wedge.
The class is read back off the cube's deg1 block without eliminating the
7056 x 80 action system: its off-diagonal coordinates are single +-1
entries of the table, and only the 8 diagonal ones need a solve.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (Disagreement, FieldMismatch, NoSolution, NotCharThree,
                     SingularCurve, UnsupportedField)
from .fields import Field
from .linalg import Matrix, is_semisimple
from .loci import _signed_codes, _trivector_codes
from .scan import MAX_TABLE_ORDER, field_kernel
from .stability import curve_is_smooth
from .trivector import TRIPLES, TRIPLE_INDEX, CurveCoeffs, Trivector, build_gamma_c

__all__ = [
    "Wedge6", "GradedE8Element", "bracket", "e8_constants", "restricted_power",
    "three_rank", "act3", "act6", "wedge33", "dual_wedge", "pairing_gl",
    "canonical_deg0", "deg0_basis_coords", "ThreeRankReport",
]

SIXES = tuple(itertools.combinations(range(1, 10), 6))
COMP = {t: tuple(sorted(set(range(1, 10)) - set(t))) for t in TRIPLES}
COMP6 = {s: tuple(sorted(set(range(1, 10)) - set(s))) for s in SIXES}


def _shuffle_sign(a, b):
    """Sign of the permutation sorting the concatenation of two disjoint
    sorted tuples."""
    inv = sum(1 for x in a for y in b if x > y)
    return -1 if inv % 2 else 1


EPS = {t: _shuffle_sign(t, COMP[t]) for t in TRIPLES}   # e_T ^ e_comp(T) = EPS vol


def _insert_sign(tup, val):
    """(sorted tuple with val inserted, sign) or None if val is present."""
    if val in tup:
        return None
    pos = sum(1 for x in tup if x < val)
    out = tup[:pos] + (val,) + tup[pos:]
    return out, (-1 if pos % 2 else 1)


class Wedge6:
    """Element of the sixth wedge power, stored by the complementary triple:
    coefficient at triple T multiplies e_{comp(T)} (indices ascending)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=None):
        self.field = field
        clean = {}
        for t, c in (coeffs or {}).items():
            c = field.el(c) if isinstance(c, int) else c
            if not c.is_zero():
                clean[tuple(t)] = c
        self.coeffs = clean

    @classmethod
    def from_six_subsets(cls, field, six_coeffs):
        return cls(field, {COMP6[s]: c for s, c in six_coeffs.items()})

    def six_subsets(self):
        return {COMP[t]: c for t, c in self.coeffs.items()}

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Wedge6) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            s = out.get(t)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(t, None)
            else:
                out[t] = s
        return Wedge6(self.field, out)

    def __neg__(self):
        return Wedge6(self.field, {t: -c for t, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, a):
        a = self.field.el(a) if isinstance(a, int) else a
        return Wedge6(self.field, {t: c * a for t, c in self.coeffs.items()})

    def __repr__(self):
        return " + ".join("(%r)e%s" % (c, "".join(map(str, COMP[t])))
                          for t, c in sorted(self.coeffs.items())) or "0"


# one tuple per subset, shared by every move table
_SUBSETS = {s: s for s in TRIPLES + SIXES}


@functools.cache
def _moves(sub):
    """The moves of a sorted triple or six-subset of 1..9 under the
    elementary matrices E_ji: {i - 1: {j - 1: (moved subset, sign)}} over
    every slot i of sub and every j it can move to, the sign that of
    e_sub -> e_moved.  Cached and shared by every caller: read-only."""
    out = {}
    for slot, i in enumerate(sub):
        rest = sub[:slot] + sub[slot + 1:]
        sign0 = -1 if slot % 2 else 1
        targets = out[i - 1] = {}
        for j in range(1, 10):
            ins = _insert_sign(rest, j)
            if ins is not None:
                key, sgn = ins
                targets[j - 1] = _SUBSETS[key], sign0 * sgn
    return out


def _act_subsets(a: Matrix, coeffs: dict) -> dict:
    """Derivation action of a matrix on a wedge power, with elements as
    {sorted triple or six-subset of 1..9: coefficient}; a coefficient may
    cancel to zero, which the element's constructor drops.  The nonzero
    entries of a are read by column once, so each term costs the moves of
    its slots onto those entries."""
    cols = [[(j, row[i]) for j, row in enumerate(a.rows) if not row[i].is_zero()]
            for i in range(9)]
    out = {}
    for sub, c in coeffs.items():
        for i, targets in _moves(sub).items():
            for j, aval in cols[i]:
                move = targets.get(j)
                if move is None:
                    continue
                key, sign = move
                v = c * aval if sign > 0 else -(c * aval)
                s = out.get(key)
                out[key] = v if s is None else s + v
    return out


def act3(a: Matrix, t: Trivector) -> Trivector:
    """Derivation action of a matrix on the third wedge power."""
    return Trivector(t.field, _act_subsets(a, t.coeffs))


def act6(a: Matrix, w: Wedge6) -> Wedge6:
    """Derivation action on the sixth wedge power (same conventions)."""
    return Wedge6.from_six_subsets(w.field, _act_subsets(a, w.six_subsets()))


def wedge33(t: Trivector, u: Trivector) -> Wedge6:
    """Wedge of two trivectors."""
    field = t.field
    out = {}
    for t1, c1 in t.coeffs.items():
        set1 = set(t1)
        for t2, c2 in u.coeffs.items():
            if set1 & set(t2):
                continue
            sgn = _shuffle_sign(t1, t2)
            six = tuple(sorted(t1 + t2))
            v = c1 * c2
            if sgn < 0:
                v = -v
            s = out.get(six)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(six, None)
            else:
                out[six] = s
    return Wedge6.from_six_subsets(field, out)


def dual_wedge(w1: Wedge6, w2: Wedge6) -> Trivector:
    """Wedge through the volume-form duality: both six-vectors become
    three-forms on the dual side, are wedged there, and the resulting
    dual six-form comes back as a trivector."""
    field = w1.field
    # dual three-form coefficients live on the stored complement triples
    out = {}
    for t1, c1 in w1.coeffs.items():
        d1 = c1 if EPS[t1] > 0 else -c1
        set1 = set(t1)
        for t2, c2 in w2.coeffs.items():
            if set1 & set(t2):
                continue
            d2 = c2 if EPS[t2] > 0 else -c2
            sgn = _shuffle_sign(t1, t2)
            six = tuple(sorted(t1 + t2))
            tout = COMP6[six]
            v = d1 * d2
            if sgn * EPS[tout] < 0:
                v = -v
            s = out.get(tout)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(tout, None)
            else:
                out[tout] = s
    return Trivector(field, out)


def _vol_pairing(t: Trivector, w: Wedge6):
    """Coefficient of the volume form in t ^ w."""
    field = t.field
    acc = field.zero
    for trip, c in t.coeffs.items():
        d = w.coeffs.get(trip)
        if d is None:
            continue
        v = c * d
        acc = acc + (v if EPS[trip] > 0 else -v)
    return acc


def pairing_gl(t: Trivector, w: Wedge6) -> Matrix:
    """The gl9 element adjoint to the derivation action:
    entry (i, j) is the volume coefficient of (E_ji . t) ^ w, read in one
    pass over the terms of t (slot i moved to j, looked up in w, the
    volume sign EPS of the moved triple applied)."""
    field = t.field
    rows = [[field.zero] * 9 for _ in range(9)]
    wc = w.coeffs
    for trip, c in t.coeffs.items():
        for i, targets in _moves(trip).items():
            row = rows[i]
            for j, (key, sign) in targets.items():
                d = wc.get(key)
                if d is not None:
                    v = c * d
                    row[j] = row[j] + v if sign * EPS[key] > 0 else row[j] - v
    return Matrix._trusted(field, rows)


def canonical_deg0(a: Matrix) -> Matrix:
    """Representative of the class of a modulo scalars: (9,9) entry zero."""
    c = a.rows[8][8]
    if c.is_zero():
        return a
    rows = [list(r) for r in a.rows]
    for d in range(9):
        rows[d][d] = rows[d][d] - c
    return Matrix._trusted(a.field, rows)


def _is_zero_class(a: Matrix) -> bool:
    return all(c.is_zero() for row in a.rows for c in row)


@dataclass(frozen=True)
class E8Constants:
    a: object        # [deg1, deg2] pairing multiple
    b: object        # [deg2, deg2] dual-wedge multiple
    s1: object       # trace coefficient of the class action on deg1
    s2: object       # trace coefficient of the class action on deg2
    tau: object      # trace-line component of the [deg1, deg2] bracket
    h_model: bool    # char 3: route the trace through the h-direction

    def act1(self, a_mat: Matrix, t: Trivector) -> Trivector:
        return self._act(a_mat, t, act3, self.s1)

    def act2(self, a_mat: Matrix, w: Wedge6) -> Wedge6:
        return self._act(a_mat, w, act6, self.s2)

    def _act(self, a_mat, obj, act, weight):
        # h-model: trace classes act through the extra direction of
        # Lie(SL9/mu3), so the trace is stripped onto E99 and its h-weight
        # added as a scalar
        tr = _trace(a_mat)
        out = act(_strip_trace(a_mat) if self.h_model else a_mat, obj)
        if not tr.is_zero() and not weight.is_zero():
            out = out + obj.scale(tr * weight)
        return out


# fitted once by the Jacobi gate (the test suite re-derives both sets)
_FITTED_RATIONAL = {"a": Fraction(1), "b": Fraction(-1),
                    "s1": Fraction(-1, 3), "s2": Fraction(-2, 3), "tau": Fraction(0)}
_FITTED_CHAR3 = {"a": 1, "b": 2, "s1": 1, "s2": 2, "tau": 2}


@functools.cache
def e8_constants(field: Field) -> E8Constants:
    if field.char == 3:
        vals = {k: field.el(v) for k, v in _FITTED_CHAR3.items()}
        return E8Constants(h_model=True, **vals)
    vals = {}
    for k, fr in _FITTED_RATIONAL.items():
        fr = Fraction(fr)
        if field.order is None:
            vals[k] = field.el(fr)
        else:
            num = field.el(fr.numerator)
            den = field.el(fr.denominator)
            vals[k] = num * den.inv()
    return E8Constants(h_model=False, **vals)


class GradedE8Element:
    """Triple (deg0 class, trivector, six-vector); deg0 is canonicalized."""

    __slots__ = ("field", "deg0", "deg1", "deg2")

    def __init__(self, field, deg0=None, deg1=None, deg2=None):
        self.field = field
        self.deg0 = canonical_deg0(deg0) if deg0 is not None \
            else Matrix.zero(field, 9, 9)
        self.deg1 = deg1 if deg1 is not None else Trivector(field)
        self.deg2 = deg2 if deg2 is not None else Wedge6(field)

    def is_zero(self):
        return (_is_zero_class(self.deg0) and self.deg1.is_zero()
                and self.deg2.is_zero())

    def __eq__(self, other):
        return (isinstance(other, GradedE8Element)
                and self.deg0 == other.deg0 and self.deg1 == other.deg1
                and self.deg2 == other.deg2)

    def __add__(self, other):
        return GradedE8Element(self.field, self.deg0 + other.deg0,
                               self.deg1 + other.deg1, self.deg2 + other.deg2)

    def __sub__(self, other):
        return GradedE8Element(self.field, self.deg0 - other.deg0,
                               self.deg1 - other.deg1, self.deg2 - other.deg2)

    def scale(self, c):
        c = self.field.el(c) if isinstance(c, int) else c
        return GradedE8Element(self.field, self.deg0.scale(c),
                               self.deg1.scale(c), self.deg2.scale(c))

    def __repr__(self):
        return "GradedE8Element(deg0=%r, deg1=%r, deg2=%r)" % (
            self.deg0, self.deg1, self.deg2)


def _pair_deg0(k: E8Constants, t: Trivector, w: Wedge6) -> Matrix:
    out = pairing_gl(t, w)
    if k.a != t.field.one:
        out = out.scale(k.a)
    if not k.tau.is_zero():
        v = _vol_pairing(t, w)
        if not v.is_zero():
            out.rows[8][8] = out.rows[8][8] + k.a * k.tau * v
    return out


def _trace(a: Matrix):
    return sum((a.rows[d][d] for d in range(9)), a.field.zero)


def _strip_trace(a: Matrix) -> Matrix:
    """Subtract tr(a) at the (9,9) slot: the trace lives on the central
    h-direction in the characteristic-3 model."""
    tr = _trace(a)
    if tr.is_zero():
        return a
    rows = [list(r) for r in a.rows]
    rows[8][8] = rows[8][8] - tr
    return Matrix._trusted(a.field, rows)


def _commutator_deg0(k: E8Constants, a: Matrix, b: Matrix) -> Matrix:
    if k.h_model:
        a, b = _strip_trace(a), _strip_trace(b)
    return a * b - b * a


def bracket(x: GradedE8Element, y: GradedE8Element) -> GradedE8Element:
    """Graded bracket; antisymmetric, satisfies the Jacobi identity
    (property-gated by the test suite).  Every term is bilinear, so a term
    with an exactly zero operand is skipped, not evaluated."""
    if x.field != y.field:
        raise FieldMismatch("bracket needs matching fields")
    field = x.field
    k = e8_constants(field)
    x0, y0 = not _is_zero_class(x.deg0), not _is_zero_class(y.deg0)
    x1, y1 = x.deg1.coeffs, y.deg1.coeffs
    x2, y2 = x.deg2.coeffs, y.deg2.coeffs
    d0 = (_commutator_deg0(k, x.deg0, y.deg0) if x0 and y0
          else Matrix.zero(field, 9, 9))
    if x1 and y2:
        d0 = d0 + _pair_deg0(k, x.deg1, y.deg2)
    if y1 and x2:
        d0 = d0 - _pair_deg0(k, y.deg1, x.deg2)
    d1 = k.act1(x.deg0, y.deg1) if x0 and y1 else Trivector(field)
    if y0 and x1:
        d1 = d1 - k.act1(y.deg0, x.deg1)
    if x2 and y2:
        d1 = d1 + dual_wedge(x.deg2, y.deg2).scale(k.b)
    d2 = k.act2(x.deg0, y.deg2) if x0 and y2 else Wedge6(field)
    if y0 and x2:
        d2 = d2 - k.act2(y.deg0, x.deg2)
    if x1 and y1:
        d2 = d2 + wedge33(x.deg1, y.deg1)
    return GradedE8Element(field, d0, d1, d2)


def cube_class(a: Matrix) -> Matrix:
    """Restricted cube of a deg0 class in characteristic 3: matrix cube of
    the trace-stripped part plus the Frobenius of the trace on the central
    direction."""
    field = a.field
    if field.char != 3:
        raise NotCharThree("cube_class is the characteristic-3 operation")
    tr = _trace(a)
    bar = _strip_trace(a)
    cube = bar * bar * bar
    t3 = tr * tr * tr
    if not t3.is_zero():       # cube is a new matrix: its (9,9) slot is ours
        cube.rows[8][8] = cube.rows[8][8] + t3
    return canonical_deg0(cube)


# ---------------------------------------------------------------------------
# the 80 canonical deg0 coordinates

def deg0_basis_coords(a: Matrix):
    """80 coordinates of a canonical deg0 representative: row-major entries
    skipping the (9,9) slot."""
    out = []
    for i in range(9):
        for j in range(9):
            if i == j == 8:
                continue
            out.append(a.rows[i][j])
    return out


def deg0_from_coords(field, coords):
    rows = []
    it = iter(coords)
    for i in range(9):
        row = []
        for j in range(9):
            if i == j == 8:
                row.append(field.zero)
            else:
                row.append(next(it))
        rows.append(row)
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# restricted powers in characteristic 3

# canonical coordinate of the transposed entry, (i, j) <-> (j, i); the
# (9,9) slot is skipped and last, so coordinate i * 9 + j is entry (i, j)
_TRANSPOSE = np.array([(c % 9) * 9 + c // 9 for c in range(80)])
_EPS_SIGNS = np.array([EPS[trip] for trip in TRIPLES])


@functools.cache
def _act3_structure_codes(field):
    """Coded matrix of the linear map gl9-canonical -> End(wedge^3):
    rows indexed by (out_triple, in_triple) pairs, columns by the 80
    canonical coordinates; cached per field, read-only.

    The class action of E_ji on e_T moves slot i of T to j, with the signs
    of _moves; on the diagonal it is the trace weight s1 plus, in the
    h-model, [i in T] - [9 in T] (the trace moved onto E99), and [i in T]
    otherwise."""
    kern = field_kernel(field)
    consts = e8_constants(field)
    mat = np.zeros((84 * 84, 80), dtype=np.int16)
    one, minus = kern.encode(field.one), kern.encode(-field.one)
    for t_idx, trip in enumerate(TRIPLES):
        for i, targets in _moves(trip).items():
            for j, (key, sign) in targets.items():
                if i != j:
                    mat[TRIPLE_INDEX[key] * 84 + t_idx, j * 9 + i] = \
                        one if sign > 0 else minus
        for d in range(8):
            val = field.el(int(d + 1 in trip)) + consts.s1
            if consts.h_model:
                val = val - field.el(int(9 in trip))
            mat[t_idx * 84 + t_idx, d * 9 + d] = kern.encode(val)
    mat.flags.writeable = False
    return mat


@functools.cache
def _wedge_gather():
    """wedge33 with t as one gather: entry (S, U) indexes t's 84 codes
    followed by their negatives and a zero (at 168), picking the
    coefficient sgn(T, U) t[T] of e_comp(S) in t ^ e_U, T = comp(S) - U
    (the layout of loci._signed_codes)."""
    out = np.full((84, 84), 168, dtype=np.int16)
    for s_idx, trip in enumerate(TRIPLES):
        six = COMP[trip]
        for u in itertools.combinations(six, 3):
            rest = tuple(v for v in six if v not in u)
            out[s_idx, TRIPLE_INDEX[u]] = (TRIPLE_INDEX[rest]
                                           + 84 * (_shuffle_sign(rest, u) < 0))
    out.flags.writeable = False
    return out


def _wedge_codes(t: Trivector, kern):
    """wedge33 with t, coded (84 x 84): entry (S, U) is the coefficient
    sgn(T, U) t[T] of e_comp(S) in t ^ e_U, one gather through
    _wedge_gather."""
    return _signed_codes(kern, _trivector_codes(t, kern))[_wedge_gather()]


def _ad_blocks(t: Trivector, kern):
    """The blocks deg0 -> deg1, deg2 -> deg0 and deg1 -> deg2 of ad t, coded
    (84 x 80, 80 x 84, 84 x 84), read off the 84 coefficients of t in
    characteristic 3.

    With A[T, c] the coefficient at T of the canonical matrix c acting on
    t (the action table's slices at t's triples, weighted by t):
    - deg0 -> deg1 is -A, since [t, a] = -act1(a, t);
    - deg2 -> deg0 maps e_comp(S) to the class of a pairing_gl(t, e_comp(S))
      plus a tau vol(t, e_comp(S)) at (9,9), which is a EPS[S] A[S, (j, i)]
      at coordinate (i, j).  Off the diagonal, entry (i, j) of pairing_gl
      and the action of E_ji on t read the same _moves entries, the first
      with the extra factor EPS[S].  On the diagonal the canonical class
      subtracts the (9,9) entry, leaving a EPS[S] t[S] ([d in S] - [9 in S]
      - tau) at (d, d), while A[S, (d, d)] = ([d in S] + s1 - [9 in S]) t[S];
      the two agree because -tau = s1 among the characteristic-3 constants;
    - deg1 -> deg2 is wedge33 with t (_wedge_codes)."""
    field = t.field
    table = _act3_structure_codes(field).reshape(84, 84, 80)
    act = np.zeros((84, 80), dtype=kern.dtype)
    for trip, c in t.coeffs.items():
        act = kern.add(act, kern.mul(table[:, TRIPLE_INDEX[trip]],
                                     kern.encode(c)))
    act = act.astype(kern.dtype, copy=False)
    a = e8_constants(field).a
    scale = np.where(_EPS_SIGNS > 0, kern.encode(a),
                     kern.encode(-a)).astype(kern.dtype)
    to0_from2 = kern.mul(act[:, _TRANSPOSE].T, scale)
    return kern.neg(act), to0_from2, _wedge_codes(t, kern)


_DIAGONAL = np.arange(0, 80, 10)          # canonical coordinates (d, d)
_OFF_DIAGONAL = np.array([c for c in range(80) if c % 10])
_CHECK_ROWS = 84 * 28


@functools.cache
def _deg0_solver(field):
    """How _solve_deg0_from_action reads a class off an action: for each
    off-diagonal coordinate a row of the action table whose one nonzero
    entry, +-1, sits there (every off-diagonal row of the table has at most
    one, and the diagonal rows touch only the 8 diagonal coordinates), and
    8 diagonal rows of rank 8 with the inverse of their 8 x 8 system.
    Returns (rows, signs, pivot rows, inverse), cached per field."""
    kern = field_kernel(field)
    table = _act3_structure_codes(field)
    rows = np.argmax(table[:, _OFF_DIAGONAL] != 0, axis=0)
    diagonal_rows = np.arange(84) * 85            # rows (T, T)
    _, pivots, _ = kern.rref(table[diagonal_rows][:, _DIAGONAL].T)
    pivot_rows = diagonal_rows[pivots]
    system = np.concatenate([table[pivot_rows][:, _DIAGONAL],
                             np.eye(8, dtype=kern.dtype)], axis=1)
    return (rows, table[rows, _OFF_DIAGONAL], pivot_rows,
            kern.rref(system)[2][:, 8:])


def _solve_deg0_from_action(field, action_codes):
    """Find the canonical deg0 class whose deg1 action matches the given
    84 x 84 coded matrix; NoSolution if the linear system is inconsistent.

    The off-diagonal coordinates are gathered from one row each and the
    diagonal ones solved from 8 rows (_deg0_solver); the class is the only
    candidate, and its product with the action table checks it."""
    kern = field_kernel(field)
    rows, signs, pivot_rows, inverse = _deg0_solver(field)
    rhs = action_codes.reshape(84 * 84)
    coords = np.zeros(80, dtype=kern.dtype)
    coords[_OFF_DIAGONAL] = kern.mul(rhs[rows], signs)
    coords[_DIAGONAL] = kern.matmul(inverse, rhs[pivot_rows, None])[:, 0]
    table = _act3_structure_codes(field)
    # in row blocks, since a prime field's product is formed in int64
    for lo in range(0, 84 * 84, _CHECK_ROWS):
        image = kern.matmul(table[lo:lo + _CHECK_ROWS], coords[:, None])
        if not np.array_equal(image[:, 0], rhs[lo:lo + _CHECK_ROWS]):
            raise NoSolution("no deg0 class acts as the requested operator")
    # the solution is unique: the action is faithful on classes
    return deg0_from_coords(field, [kern.decode(int(c)) for c in coords])


def _check_char3_field(field, what):
    if field.char != 3:
        raise NotCharThree("%s need characteristic 3" % what)
    if field.order > MAX_TABLE_ORDER:
        raise UnsupportedField("%s are limited to fields up to GF(3^5): the "
                               "coded kernel's tables stop at order %d"
                               % (what, MAX_TABLE_ORDER))


def restricted_power(t: Trivector, e: int = 3) -> Matrix:
    """The canonical deg0 class with ad-cube action (ad t)^3 on the
    trivector block; e = 9 and 27 are matrix powers of the e = 3 result
    (well-defined modulo scalars in characteristic 3).

    The cube's deg1 block runs deg1 -> deg2 -> deg0 -> deg1, so it is the
    product of three blocks of ad t, which _ad_blocks reads off t's
    coefficients: -A for deg0 -> deg1, with A the action table applied to
    t; A transposed in the canonical coordinates and scaled by a EPS for
    deg2 -> deg0 (pairing_gl and the action read the same moves, and on
    the diagonal -tau = s1 in characteristic 3); a signed gather of t for
    deg1 -> deg2 (the wedge with t)."""
    field = t.field
    _check_char3_field(field, "restricted powers")
    if e not in (3, 9, 27):
        raise ValueError("supported exponents: 3, 9, 27")
    kern = field_kernel(field)
    to1_from0, to0_from2, to2_from1 = _ad_blocks(t, kern)
    block = kern.matmul(kern.matmul(to1_from0, to0_from2), to2_from1)
    a3 = _solve_deg0_from_action(field, block)
    if e == 3:
        return a3
    a9 = cube_class(a3)
    if e == 9:
        return a9
    return cube_class(a9)


@dataclass
class ThreeRankReport:
    lie_rank: int
    coeff_rank: int
    scalar_residue: object   # the scalar lambda with a27 = c24 a3 - c18 a9 + lambda I

    def to_json(self):
        return {"lie": self.lie_rank, "coeff": self.coeff_rank,
                "scalar_residue": repr(self.scalar_residue)}


def three_rank(c: CurveCoeffs) -> ThreeRankReport:
    """3-rank of the normal-form curve in characteristic 3, computed on the
    Lie side (semisimplicity of the restricted powers) and on the coefficient
    side (vanishing pattern of c24, c18); the two must agree."""
    field = c.field
    _check_char3_field(field, "3-ranks")
    for d in (3, 6, 9, 15):
        if not c[d].is_zero():
            raise ValueError("three_rank expects Weierstrass form "
                             "(c3 = c6 = c9 = c15 = 0)")
    if not curve_is_smooth(c):
        raise SingularCurve("3-rank of a singular curve is undefined here")
    t = build_gamma_c(c)
    a3 = restricted_power(t, 3)
    a9 = cube_class(a3)
    a27 = cube_class(a9)
    if is_semisimple(a3):
        lie = 2
    elif is_semisimple(a9):
        lie = 1
    else:
        lie = 0
    if not c[24].is_zero():
        coeff = 2
    elif not c[18].is_zero():
        coeff = 1
    else:
        coeff = 0
    if lie != coeff:
        raise Disagreement("Lie-side rank %d but coefficient-side rank %d"
                           % (lie, coeff))
    combo = canonical_deg0(a3.scale(c[24]) - a9.scale(c[18]))
    diff = a27 - combo
    resid = diff.rows[0][0]
    for i in range(9):
        for j in range(9):
            expect = resid if i == j else field.zero
            if diff.rows[i][j] != expect:
                raise Disagreement("a27 is not a scalar shift of "
                                   "c24*a3 - c18*a9")
    return ThreeRankReport(lie, coeff, resid)
