"""Compatible flags F1 < F3 < F6 < F8 for a trivector: the 31 vanishing
conditions, the point-anchored flag search, and the Chow-ring degree
certificate for the compatibility bundle."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import Disagreement, NonStableInput
from .fields import Field
from .linalg import Matrix, kernel_matrix
from .loci import rank_locus_codes, DEFAULT_POINT_BUDGET
from .polys import element_degree, embed_map, extension_of
from .trivector import Trivector, gl_act, phi_at

__all__ = [
    "FLAG_MONOMIALS", "Flag1368", "CompatibilityReport", "flag_compatible",
    "standard_flag", "flag_search", "FlagSearchReport", "chern_top_class",
    "flags_at_point", "reduce_mod_symmetric",
]


def _flag_monomials():
    """The 31 coefficient-vanishing conditions for the standard flag, listed
    family by family."""
    out = []
    for i in range(4, 9):
        for j in range(i + 1, 9):
            out.append((i, j, 9))
    for i in (2, 3):
        for j in range(4, 9):
            out.append((i, j, 9))
    for i in range(2, 7):
        out.append((i, 7, 8))
    for i in range(4, 7):
        for j in range(i + 1, 7):
            out.append((i, j, 7))
            out.append((i, j, 8))
    return tuple(out)


FLAG_MONOMIALS = _flag_monomials()
assert len(FLAG_MONOMIALS) == 31


class Flag1368:
    """Nested subspaces of dimensions 1, 3, 6, 8 given by row-reduced bases."""

    __slots__ = ("field", "mats")

    DIMS = (1, 3, 6, 8)

    def __init__(self, field: Field, f1, f3, f6, f8):
        self.field = field
        self.mats = {}
        prev = None
        for dim, rows in zip(self.DIMS, (f1, f3, f6, f8)):
            m = rows if isinstance(rows, Matrix) else Matrix(field, rows)
            if m.nrows != dim or m.ncols != 9:
                raise ValueError("F%d needs a %d x 9 basis" % (dim, dim))
            red, piv = m.rref()
            if len(piv) != dim:
                raise ValueError("F%d basis is not of rank %d" % (dim, dim))
            self.mats[dim] = red
            if prev is not None and prev.stack(red).rank() != dim:
                raise ValueError("containment F%d < F%d fails"
                                 % (prev.nrows, dim))
            prev = red

    def __getitem__(self, dim):
        return self.mats[dim]

    def __eq__(self, other):
        return isinstance(other, Flag1368) and all(
            self.mats[d] == other.mats[d] for d in self.DIMS)

    def key(self):
        f = self.field
        return tuple(tuple(f.to_str(x) for x in row)
                     for d in self.DIMS for row in self.mats[d].rows)

    def to_json(self):
        f = self.field
        return {"F%d" % d: [[f.to_str(x) for x in row]
                            for row in self.mats[d].rows]
                for d in self.DIMS}


def standard_flag(field: Field) -> Flag1368:
    rows = [[field.one if i == j else field.zero for j in range(9)]
            for i in range(8)]
    return Flag1368(field, rows[:1], rows[:3], rows[:6], rows[:8])


@dataclass
class CompatibilityReport:
    compatible: bool
    violated: list   # (triple, coefficient) pairs

    def to_json(self):
        return {"compatible": self.compatible,
                "violated": [{"ijk": list(t), "c": repr(c)}
                             for t, c in self.violated]}


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


def flag_compatible(t: Trivector, flag: Flag1368) -> CompatibilityReport:
    """Change basis so the flag becomes standard and test the 31 vanishing
    conditions; the verdict is independent of the chosen transporter."""
    g = _adapted_matrix(flag)
    adapted = gl_act(g.inverse(), t)
    violated = []
    for trip in FLAG_MONOMIALS:
        c = adapted.coeff(trip)
        if not c.is_zero():
            violated.append((trip, c))
    return CompatibilityReport(not violated, violated)


# ---------------------------------------------------------------------------
# flag search through the rank-4 locus

def _span_of_trivector(v: Trivector) -> Matrix:
    """Support of a trivector: span of all double contractions (one pass
    over the terms: each term feeds its three pair-contractions)."""
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


def _wedge6_support(field, w6) -> Matrix | None:
    """For a pure six-vector: its 6-dimensional support; None if not pure."""
    from .e8 import EPS
    # dual three-form on V*; the contraction formula is index-label agnostic,
    # so reuse the trivector machinery on the dual side
    dual = Trivector(field, {trip: (c if EPS[trip] > 0 else -c)
                             for trip, c in w6.coeffs.items()})
    if dual.is_zero():
        return None
    star_basis = _span_of_trivector(dual)
    if star_basis.nrows != 3:
        return None
    support = kernel_matrix(star_basis)
    return support if support.nrows == 6 else None


def flags_at_point(t: Trivector, x_coords, early_exit: bool = False) -> list:
    """All compatible flags whose top space is the annihilator of x.

    Candidates for the line F1 run over the image of the pencil at x; the
    chain F3, F6 is then forced and the Eq-class compatibility test is the
    final filter.  With early_exit the scan stops at the first hit (a stable
    trivector has at most one compatible flag per rank-4 point)."""
    from .e8 import wedge33
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
            coeffs = ([field.zero] * lead + [field.one] + list(tail))
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
            if flag_compatible(t, flag).compatible:
                out.append(flag)
                if early_exit:
                    return out
    keys = {f.key() for f in out}
    if len(keys) != len(out):
        raise Disagreement("duplicate flags from one rank-4 point")
    return out


@dataclass
class FlagSearchReport:
    flags: list          # (Flag1368, degree) with the flag over the extension
    weighted_count: int
    complete: bool
    searched_degrees: list
    skipped_degrees: list
    elapsed: float

    def to_json(self):
        return {"weighted_count": self.weighted_count,
                "complete": self.complete,
                "searched_degrees": self.searched_degrees,
                "skipped_degrees": self.skipped_degrees,
                "flags": [{"degree": d, **f.to_json()} for f, d in self.flags],
                "elapsed_s": round(self.elapsed, 3)}


def _frobenius_orbit_key(base_order, coords):
    """Smallest encoding among the Frobenius conjugates of a projective
    point (canonical representatives compared by coordinate encodings)."""
    field = coords[0].field

    def encode(cs):
        lead = next(c for c in cs if not c.is_zero())
        inv = lead.inv()
        return tuple(field.to_int(c * inv) for c in cs)

    best = cur = list(coords)
    best_key = encode(cur)
    while True:
        cur = [c ** base_order for c in cur]
        key = encode(cur)
        if key == encode(coords):
            break
        if key < best_key:
            best_key = key
    return best_key, encode(coords)


def flag_search(t: Trivector, max_ext_degree: int = 1,
                point_budget: int = DEFAULT_POINT_BUDGET,
                scan_cutoff: int = 30_000_000,
                verify_stable: bool = False) -> FlagSearchReport:
    """Enumerate compatible flags degree by degree through the rank-4 locus.

    The weighted count (each Frobenius orbit weighs its field-of-definition
    degree) can never exceed 81; the report is marked complete exactly when
    it reaches 81 within the searched degrees.  Non-stable inputs are refused
    when a rank <= 2 point shows up in a scan, or up front with
    verify_stable (which runs the degree-1 destabilizer search).
    """
    base = t.field
    if verify_stable:
        from .stability import destabilizer_search
        if destabilizer_search(t, 1).status != "stable":
            raise NonStableInput("destabilizer search found a witness")
    t0 = time.perf_counter()
    found = []
    weighted = 0
    searched, skipped = [], []
    from .scan import projective_count
    for d in range(1, max_ext_degree + 1):
        ext = extension_of(base, d)
        if projective_count(ext.order) > min(point_budget, scan_cutoff):
            skipped.append(d)
            continue
        emb = embed_map(base, ext)
        te = t.map_coeffs(ext, emb) if d > 1 else t
        kern, rep, codes, ranks = rank_locus_codes(te, max_rank=4,
                                                   budget=point_budget)
        if rep.counts.get(0, 0) or rep.counts.get(2, 0):
            raise NonStableInput("rank <= 2 point found: input is not stable")
        searched.append(d)
        for row in codes:
            coords = [kern.decode(c) for c in row]
            orbit_key, self_key = _frobenius_orbit_key(base.order, coords)
            if orbit_key != self_key:
                continue            # one representative per orbit
            # minimal field of definition must be exactly d
            if math.lcm(*(element_degree(c, base) for c in coords)) != d:
                continue
            for flag in flags_at_point(te, coords, early_exit=True):
                found.append((flag, d))
                weighted += d
    if weighted > 81:
        raise Disagreement("weighted flag count %d exceeds 81" % weighted)
    return FlagSearchReport(found, weighted, weighted == 81,
                            searched, skipped, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the Chow-ring certificate: product of the 31 condition classes

def _h_tail(i: int):
    """Monomials of h_i(x_i, ..., x_9) other than the leading x_i^i."""
    out = []
    for combo in itertools.combinations_with_replacement(range(i - 1, 9), i):
        e = [0] * 9
        for v in combo:
            e[v] += 1
        e = tuple(e)
        if e[i - 1] == i:
            continue
        out.append(e)
    return tuple(out)


# Terms are packed into one int64 key, _EXP_BITS bits per variable (x_1 in
# the low bits).  Reduction preserves total degree, so a term of degree
# < 2**_EXP_BITS never carries between fields.
_EXP_BITS = 6
_EXP_MASK = (1 << _EXP_BITS) - 1
_KEY_SHIFTS = np.arange(9, dtype=np.int64) * _EXP_BITS
_H_TAIL_KEYS = {i: np.array([sum(v << (_EXP_BITS * k) for k, v in enumerate(e))
                             for e in _h_tail(i)], dtype=np.int64)
                for i in range(1, 10)}
# most new terms expanded between two merges; bounds the transient memory
_EXPAND_CHUNK = 1 << 16
# every partial sum of a merge is bounded by the L1 norm of what it merges
_COEFF_L1_LIMIT = float(1 << 62)


def _merge_terms(keys, coeffs):
    """Sum the coefficients of equal keys and drop the zero sums."""
    if not len(keys):
        return keys, coeffs
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs, starts)
    nonzero = sums != 0
    return keys[starts][nonzero], sums[nonzero]


def reduce_mod_symmetric(poly: dict) -> dict:
    """Normal form of an integer-coefficient polynomial modulo the ideal of
    positive-degree symmetric polynomials in 9 variables.

    Divides by the classical lex Groebner basis whose i-th element h_i is
    the complete homogeneous polynomial of degree i in x_i, ..., x_9
    (leading term x_i^i); normal forms have exponent i-1 at most in x_i.
    Since h_i involves only x_i, ..., x_9, the reduction runs in stages
    i = 1, ..., 9: stage i rewrites x_i^i as minus the tail of h_i, highest
    x_i-exponent first, until every x_i-exponent is below i, and never
    touches x_1, ..., x_{i-1} again.

    Domain: keys are length-9 tuples of non-negative exponents with total
    degree below 64, and the coefficients are integers whose running L1
    norm stays below 2**62 throughout the reduction.  A key outside the
    domain raises ValueError; coefficients that could leave it raise
    OverflowError.  Results are exact; nothing wraps silently.
    """
    poly = {e: c for e, c in poly.items() if c}
    if not poly:
        return {}
    exps = np.array(list(poly), dtype=np.int64)
    if exps.ndim != 2 or exps.shape[1] != 9:
        raise ValueError("exponent vectors must have 9 entries")
    if (exps < 0).any():
        raise ValueError("negative exponent in a term")
    if (exps.sum(axis=1) >= 1 << _EXP_BITS).any():
        raise ValueError("total degree must be below %d" % (1 << _EXP_BITS))
    if sum(abs(c) for c in poly.values()) >= 1 << 62:
        raise OverflowError("coefficient L1 norm reaches 2**62")
    keys = (exps << _KEY_SHIFTS).sum(axis=1)
    coeffs = np.array(list(poly.values()), dtype=np.int64)
    for i in range(1, 10):
        shift = _EXP_BITS * (i - 1)
        tails = _H_TAIL_KEYS[i]
        rows = _EXPAND_CHUNK // max(len(tails), 1)
        while len(keys):
            level = (keys >> shift) & _EXP_MASK
            top = level.max()
            if top < i:
                break
            hit = level == top
            lead_keys = keys[hit] - (i << shift)
            lead_coeffs = coeffs[hit]
            keys, coeffs = keys[~hit], coeffs[~hit]
            for s in range(0, len(lead_keys), rows):
                chunk = lead_coeffs[s:s + rows]
                l1 = (np.abs(coeffs).sum(dtype=np.float64)
                      + len(tails) * np.abs(chunk).sum(dtype=np.float64))
                if l1 >= _COEFF_L1_LIMIT:
                    raise OverflowError("coefficient L1 norm reaches 2**62")
                new_keys = (lead_keys[s:s + rows, None] + tails).ravel()
                keys, coeffs = _merge_terms(
                    np.concatenate((keys, new_keys)),
                    np.concatenate((coeffs, np.repeat(-chunk, len(tails)))))
    exps = (keys[:, None] >> _KEY_SHIFTS) & _EXP_MASK
    return dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))


def chern_top_class():
    """The product of the 31 linear forms x_i + x_j + x_k over the condition
    monomials, reduced modulo the symmetric ideal; returns
    (coefficient, exponent_vector) of the single surviving monomial."""
    poly = {(0,) * 9: 1}
    for (i, j, k) in FLAG_MONOMIALS:
        out = {}
        for e, c in poly.items():
            for var in (i, j, k):
                ne = list(e)
                ne[var - 1] += 1
                ne = tuple(ne)
                out[ne] = out.get(ne, 0) + c
        poly = reduce_mod_symmetric(out)
    if len(poly) != 1:
        raise Disagreement("top-class reduction left %d monomials" % len(poly))
    (exps, coeff), = poly.items()
    return coeff, exps
