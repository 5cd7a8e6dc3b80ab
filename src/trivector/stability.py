"""Stability of trivectors: destabilizing-subspace search over the
Grassmannian of 6-planes, exact curve smoothness, and the cross-validated
verdict for the normal-form family.

A 6-dimensional subspace U destabilizes t exactly when t lies in
wedge^2(U) ^ V, i.e. every double contraction of t by two covectors
annihilating U vanishes.  The search therefore enumerates the 3-dimensional
annihilators W = U-perp in reduced echelon form and tests the three basis
pair contractions; a found witness is converted back to a 6x9 row-reduced
basis of U and re-verified through the independent change-of-basis route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded, Disagreement, UnsupportedField
from .fields import GF, Field, RationalField
from .linalg import Matrix, kernel_matrix
from .polys import embed_map, extension_of, element_degree
from .scan import field_kernel
from .trivector import (CURVE_DEGREES, GAMMA_BASE_TERMS, GAMMA_C_TERMS,
                        CurveCoeffs, Trivector, build_gamma_c, gl_act,
                        phi_at)

__all__ = [
    "StabilityVerdict", "destabilizer_search", "witness_verify",
    "curve_is_smooth", "singular_points_of_curve", "stability_verdict_gamma_c",
    "gamma_family_scan_f2", "gaussian_binomial", "pivot_patterns",
    "echelon_matrices", "double_contract", "destabilizes",
    "rational_stability_report", "DEFAULT_SUBSPACE_BUDGET",
]

DEFAULT_SUBSPACE_BUDGET = 2_000_000


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.lru_cache(maxsize=None)
def pivot_patterns(k: int, n: int):
    """The pivot columns of the reduced-echelon k x n matrices in
    colexicographic order, each with the free columns of its k rows: the
    one pattern order of every subspace enumeration in this module."""
    return tuple(
        (pivots, tuple(tuple(c for c in range(n)
                             if c > pivots[r] and c not in pivots)
                       for r in range(k)))
        for pivots in sorted(itertools.combinations(range(n), k),
                             key=lambda t: t[::-1]))


def echelon_matrices(field: Field, k: int, n: int):
    """All reduced-echelon k x n matrices over a finite field.

    Pivot-column patterns run in the order of pivot_patterns and free entries
    run in the field's element order, so the enumeration is deterministic and
    partitionable by pattern.
    """
    elements = list(field.elements())
    zero, one = field.zero, field.one
    for pivots, free in pivot_patterns(k, n):
        positions = [(r, c) for r in range(k) for c in free[r]]
        for values in itertools.product(elements, repeat=len(positions)):
            rows = [[zero] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = one
            for (r, c), v in zip(positions, values):
                rows[r][c] = v
            yield Matrix(field, rows)


def double_contract(t: Trivector, alpha, beta):
    """The vector iota_beta(iota_alpha(t)); alpha, beta are covector coords."""
    field = t.field
    v = [field.zero] * 9
    for (i, j, k), c in t.coeffs.items():
        ai, aj, ak = alpha[i - 1], alpha[j - 1], alpha[k - 1]
        bi, bj, bk = beta[i - 1], beta[j - 1], beta[k - 1]
        # iota_b(iota_a(e_i^e_j^e_k)) with the fixed contraction convention
        v[k - 1] = v[k - 1] + c * (ai * bj - aj * bi)
        v[j - 1] = v[j - 1] - c * (ai * bk - ak * bi)
        v[i - 1] = v[i - 1] + c * (aj * bk - ak * bj)
    return v


def destabilizes(t: Trivector, w: Matrix) -> bool:
    """True if the 6-plane annihilated by the rows of w destabilizes t."""
    rows = w.rows
    for a in range(w.nrows):
        for b in range(a + 1, w.nrows):
            if any(not x.is_zero() for x in double_contract(t, rows[a], rows[b])):
                return False
    return True


def witness_verify(t: Trivector, u: Matrix) -> bool:
    """Independent re-check of a destabilizing 6-plane: change basis so U is
    the span of the first six vectors and inspect coefficients directly.

    The rows of u followed by the unit vectors at the non-pivot columns of
    its reduced echelon form are a basis of the whole space; a u of lower
    rank spans no 6-plane and is rejected."""
    field = t.field
    pivots = u.rref()[1]
    if len(pivots) < u.nrows:
        return False
    vectors = [list(r) for r in u.rows]
    for i in range(9):
        if i not in pivots:
            cand = [field.zero] * 9
            cand[i] = field.one
            vectors.append(cand)
    g = Matrix(field, vectors).transpose()  # columns: the adapted basis
    adapted = gl_act(g.inverse(), t)
    for (i, j, k) in adapted.coeffs:
        if sum(1 for m in (i, j, k) if m >= 7) >= 2:
            return False
    return True


@dataclass
class StabilityVerdict:
    status: str                      # "stable" | "non_stable" | "inconclusive"
    witness: Matrix | None = None    # 6x9 row-reduced basis when non_stable
    searched_ext_degree: int = 0
    subspaces_checked: int = 0
    note: str = ""

    def to_json(self):
        out = {"status": self.status,
               "searched_ext_degree": self.searched_ext_degree,
               "subspaces_checked": self.subspaces_checked}
        if self.witness is not None:
            f = self.witness.field
            out["witness"] = [[f.to_str(x) for x in row]
                              for row in self.witness.rows]
            out["witness_field"] = f.spec_str()
        if self.note:
            out["note"] = self.note
        return out


# ---------------------------------------------------------------------------
# the F_2 witness scan: one contraction table per trivector, gathered by block

def _contraction_table(terms):
    """C[a, b]: the 9-bit image of the double contraction of the F_2
    trivector with the given triples by the covectors with bit codes a, b.
    Over F_2 the contraction is bilinear and symmetric, so C grows from the
    table of basis pairs by XOR-doubling over the bits of a, then of b."""
    pair = np.zeros((9, 9), dtype=np.uint16)
    for (i, j, k) in terms:
        for a, b, other in ((i, j, k), (i, k, j), (j, k, i)):
            pair[a - 1, b - 1] ^= 1 << (other - 1)
            pair[b - 1, a - 1] ^= 1 << (other - 1)
    half = np.zeros((512, 9), dtype=np.uint16)      # half[a, j] = C[a, 2^j]
    table = np.zeros((512, 512), dtype=np.uint16)
    for k in range(9):
        half[1 << k:2 << k] = half[:1 << k] ^ pair[k]
    for k in range(9):
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ half[:, k, None]
    return table


def _echelon_rows(pivot, free):
    """The 9-bit echelon rows with their pivot at `pivot`, in binary order of
    their free entries (bit i for column free[i])."""
    bits = np.arange(1 << len(free), dtype=np.uint16)
    rows = np.full_like(bits, 1 << pivot)
    for i, c in enumerate(free):
        rows |= (bits >> i & 1) << c
    return rows


@functools.lru_cache(maxsize=None)
def _f2_layout():
    """The scan order of the annihilators W, independent of the trivector.

    A block is a (first row alpha, second row beta) pair; blocks run through
    the pivot patterns in colex order and both rows in binary order of their
    free entries.  Returns (pairs, start, offset, width, thirds): pairs[k] =
    alpha << 9 | beta for block k; pattern p owns blocks start[p] to
    start[p + 1], and its subspaces start at sequential position offset[p]
    with 2^width[p] per block; thirds[p] holds its third rows in Gray-code
    order, padded to 64 with the first one, so a padded hit always repeats
    an earlier one."""
    patterns = pivot_patterns(3, 9)
    thirds = np.zeros((len(patterns), 64), dtype=np.uint16)
    pairs, blocks, sizes, width = [], [], [], []
    for p, (pivots, free) in enumerate(patterns):
        alpha, beta, delta = map(_echelon_rows, pivots, free)
        pairs.append((alpha.astype(np.uint32)[:, None] << 9 | beta).ravel())
        steps = np.arange(delta.size)
        thirds[p] = delta[0]
        thirds[p, :delta.size] = delta[steps ^ steps >> 1]
        blocks.append(pairs[-1].size)
        width.append(len(free[2]))
        sizes.append(pairs[-1].size << width[-1])
    start = np.cumsum([0] + blocks)
    offset = np.cumsum([0] + sizes)
    return np.concatenate(pairs), start, offset, width, thirds


def _gray_scan_f2(gens, pattern_indices):
    """Witness scan over F_2 for the trivectors gens[0] + sum c_i gens[i]
    (c_i = bit i-1 of the mask c; each generator a tuple of triples).

    Annihilators W run through the blocks of the given pivot patterns in
    the order of _f2_layout, the third row in Gray-code order.  For each
    mask one gather from its contraction table keeps the blocks whose first
    two rows contract to zero, and a second one tests every third row of
    those blocks against both.  The masks run in Gray-code order, so each
    table is the previous one XOR one generator's table.  Returns
    {mask: (position, (alpha, beta, delta))}: the first hit of each mask
    that has one, at its sequential position."""
    pairs, start, offset, width, thirds = _f2_layout()
    wanted = np.zeros(len(width), dtype=bool)
    wanted[list(pattern_indices)] = True
    tables = [_contraction_table(terms) for terms in gens]
    table = tables[0]
    first = {}
    for step in range(1 << (len(gens) - 1)):
        if step:
            table ^= tables[(step & -step).bit_length()]
        flat = table.ravel()
        kept = np.flatnonzero(flat[pairs] == 0)
        pattern = np.searchsorted(start, kept, side="right") - 1
        kept, pattern = kept[wanted[pattern]], pattern[wanted[pattern]]
        codes = pairs[kept]
        alpha, beta = codes >> 9, codes & 511
        delta = thirds[pattern]
        hit = ((flat[alpha[:, None] << 9 | delta] == 0)
               & (flat[beta[:, None] << 9 | delta] == 0)).ravel()
        if hit.any():
            r, gray = divmod(int(hit.argmax()), 64)
            p = pattern[r]
            position = int(offset[p] + ((kept[r] - start[p]) << width[p]))
            first[step ^ step >> 1] = (position + gray, (
                int(alpha[r]), int(beta[r]), int(delta[r, gray])))
    return first


def _scan_f2(gens):
    """The F_2 witness scan over all of Gr(6,9)(F_2); the full scan of a
    single trivector takes about 1 ms.

    Returns (witness_by_mask, checked): the annihilator rows of the first
    witness of each destabilized mask, and the sequential count of subspaces
    up to the last first hit, or all of them when some mask has no witness.
    """
    first = _gray_scan_f2(gens, range(len(pivot_patterns(3, 9))))
    if len(first) < 1 << (len(gens) - 1):
        checked = gaussian_binomial(9, 3, 2)
    else:
        checked = max(pos for pos, _ in first.values()) + 1
    return {mask: rows for mask, (_, rows) in first.items()}, checked


def destabilizer_search(t: Trivector, max_ext_degree: int = 1,
                        budget: int = DEFAULT_SUBSPACE_BUDGET
                        ) -> StabilityVerdict:
    """Search extensions of the base field for a destabilizing 6-plane.

    "stable" only certifies absence of a witness up to the searched bound;
    for the normal-form family the smoothness test upgrades it.
    """
    if max_ext_degree < 1:
        raise ValueError("max_ext_degree must be >= 1")
    base = t.field
    if base.order is None:
        raise UnsupportedField("use rational_stability_report over Q")
    if t.is_zero():
        w = Matrix(base, [[base.one if i == j else base.zero for j in range(9)]
                          for i in range(6)])
        return StabilityVerdict("non_stable", w, 1, 0,
                                note="zero trivector: every subspace destabilizes")
    checked = 0
    for d in range(1, max_ext_degree + 1):
        ext = extension_of(base, d)
        count = gaussian_binomial(9, 3, ext.order)
        if count > budget:
            raise BudgetExceeded(
                "degree %d needs %d subspaces (budget %d)" % (d, count, budget),
                count=count)
        emb = embed_map(base, ext)
        t_ext = t.map_coeffs(ext, emb) if d > 1 else t
        if ext.order == 2:
            witness, n = _scan_f2([tuple(t_ext.coeffs)])
            checked += n
            if witness:
                u = _witness_rows_to_u(ext, witness[0])
                if not witness_verify(t_ext, u):
                    raise Disagreement("witness failed independent verification")
                return StabilityVerdict("non_stable", u, d, checked)
            continue
        for w in echelon_matrices(ext, 3, 9):
            checked += 1
            if destabilizes(t_ext, w):
                u = kernel_matrix(w)
                if not witness_verify(t_ext, u):
                    raise Disagreement("witness failed independent verification")
                return StabilityVerdict("non_stable", u, d, checked)
    return StabilityVerdict("stable", None, max_ext_degree, checked,
                            note="no witness up to extension degree %d"
                                 % max_ext_degree)


# ---------------------------------------------------------------------------
# curve smoothness (exact, gcd-based; complete over the algebraic closure)

def curve_is_smooth(c: CurveCoeffs) -> bool:
    """Whether the affine normal-form curve is smooth over the algebraic
    closure.  The gcd formulation is complete, so no extension bound enters.
    The point at infinity of the normal form is smooth by convention.
    """
    f = c.field
    a, b = c.xz_parts()
    if f.char == 2:
        if a.is_zero():
            return False
        # at a root z0 of A: x0 = sqrt(B(z0)) and the z-derivative condition
        # squares to c9^2 B + (B')^2 = 0
        h = b * (c[9] * c[9]) + b.derivative() * b.derivative()
        return a.gcd(h).deg == 0
    half = f.el(2).inv()
    x0 = a * (-half)
    # u = F(x0, z), v = F_z(x0, z)
    u = x0 * x0 + a * x0 + b
    v = a.derivative() * x0 + b.derivative()
    if v.is_zero():
        return False
    return u.gcd(v).deg == 0


_BRUTE_POINT_BUDGET = 1 << 22


def singular_points_of_curve(c: CurveCoeffs, max_ext_degree: int):
    """Singular affine points of the normal-form curve over the extensions
    of degree <= max_ext_degree, by enumeration: the oracle for
    curve_is_smooth, independent of its gcd derivation.

    For each d every point (x, z) of the degree-d extension squared is
    tested in coded arithmetic for F = F_x = F_z = 0.  Each singular point
    is reported once, as (coords, d) with d its degree of definition and
    coords in the degree-d extension."""
    from .loci import batch_eval
    base = c.field
    if base.order is None:
        raise UnsupportedField("singular point enumeration needs a finite field")
    if max_ext_degree < 1:
        raise ValueError("max_ext_degree must be >= 1")
    out = []
    for d in range(1, max_ext_degree + 1):
        ext = extension_of(base, d)
        q = ext.order
        if q * q > _BRUTE_POINT_BUDGET:
            raise BudgetExceeded("singular point enumeration over %r^2 refused"
                                 % ext, count=q * q)
        try:
            kern = field_kernel(ext)
        except ValueError as exc:
            raise BudgetExceeded("singular point enumeration over %r: %s"
                                 % (ext, exc), count=q * q)
        f = c.map_coeffs(ext, embed_map(base, ext)).curve_poly()
        points = np.indices((q, q), dtype=kern.dtype).reshape(2, -1).T
        for p in (f, f.derivative(0), f.derivative(1)):
            points = points[batch_eval(kern, p, points) == 0]
        for codes in points:
            pt = tuple(kern.decode(int(v)) for v in codes)
            if math.lcm(*(element_degree(v, base) for v in pt)) == d:
                out.append((pt, d))
    return out


# ---------------------------------------------------------------------------
# the degree-1 witness scan for the whole F_2 coefficient family

def gamma_family_scan_f2():
    """One walk over the 788,035 subspaces of Gr(6,9)(F_2) per coefficient
    vector, deciding which of the 256 normal-form trivectors have a
    degree-1 destabilizing 6-plane.  The vectors run in Gray-code order, so
    each contraction table is the last one XOR one coefficient's table; the
    whole family takes about 0.3 s.

    Returns (destabilized_mask_by_c, witness_by_c, subspaces_checked) where
    witness_by_c maps the 8-bit coefficient code of each destabilized c to the
    annihilator rows (three 9-bit ints) of the first witness found.
    """
    gens = [GAMMA_BASE_TERMS] + [(GAMMA_C_TERMS[d][1],) for d in CURVE_DEGREES]
    witness, checked = _scan_f2(gens)
    return [c in witness for c in range(256)], witness, checked


def _witness_rows_to_u(field, rows_bits):
    rows = [[field.one if bits >> c & 1 else field.zero for c in range(9)]
            for bits in rows_bits]
    return kernel_matrix(Matrix(field, rows))


_ANCHOR_CHUNK = 1 << 12


def _anchored_hits(kern, points, tensor):
    """For each coded rank-6 point x: whether ker phi(x) is the annihilator
    of a destabilizing 6-plane, i.e. all three double contractions of its
    kernel basis vanish.  One batch through the coded kernel."""
    ranks, basis = kern.batched_kernel_basis(kern.build_skew(points, tensor))
    if np.any(ranks != 6):
        raise Disagreement("anchored candidate is not a rank-6 point")
    hits = np.ones(points.shape[0], dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        hits &= ~kern.double_contract(basis[:, a], basis[:, b], tensor).any(1)
    return hits


def anchored_witness_search(t: Trivector, ext_degree: int,
                            point_budget: int = 30_000_000):
    """Witness search over an extension too large to enumerate subspace by
    subspace: every rank-6 point of the pencil whose image is the candidate
    6-plane is tried (for a witness plane W containing a rank-6 covector,
    the destabilizing subspace is exactly that image).

    The P^8 scan streams runs of at most 4096 points in lexicographic
    order (run boundaries do not change which point passes first); the
    rank-6 points of each run are tested in one batch in coded arithmetic,
    and the scan stops at the first run with a hit.  That hit is rebuilt
    and checked through the object route (phi_at, rref, kernel_matrix,
    destabilizes) and then witness_verify, so the result is the image of
    the first rank-6 point that passes.

    Returns a verified 6x9 witness over the extension, or None.
    """
    from .loci import _structure_tensor_codes, iter_rank_locus
    base = t.field
    ext = extension_of(base, ext_degree)
    emb = embed_map(base, ext)
    te = t.map_coeffs(ext, emb) if ext_degree > 1 else t
    runs = iter_rank_locus(te, max_rank=6, chunk=_ANCHOR_CHUNK,
                           budget=point_budget)
    kern = field_kernel(ext)
    tensor = _structure_tensor_codes(te, kern)
    for codes, ranks, _ in runs:
        candidates = codes[ranks == 6]
        hits = np.nonzero(_anchored_hits(kern, candidates, tensor))[0]
        if hits.size:
            break
    else:
        return None
    point = [kern.decode(c) for c in candidates[hits[0]]]
    red, piv = phi_at(te, point).rref()
    u = Matrix(ext, red.rows[:6])
    w = kernel_matrix(u)
    if len(piv) != 6 or w.nrows != 3 or not destabilizes(te, w):
        raise Disagreement("object route rejects the batched anchored witness")
    if not witness_verify(te, u):
        raise Disagreement("anchored witness failed verification")
    return u


@dataclass
class GammaCConsistency:
    c: CurveCoeffs
    smooth: bool
    verdict: StabilityVerdict
    consistent: bool = dc_field(init=False)

    def __post_init__(self):
        self.consistent = (self.smooth == (self.verdict.status == "stable"))
        if not self.consistent:
            raise Disagreement(
                "smoothness (%s) and destabilizer verdict (%s) disagree for %r"
                % (self.smooth, self.verdict.status, self.c))


def stability_verdict_gamma_c(c: CurveCoeffs, max_ext_degree: int = 1,
                              budget: int = DEFAULT_SUBSPACE_BUDGET
                              ) -> GammaCConsistency:
    """Runs both the smoothness test and the destabilizer search and certifies
    their agreement; any disagreement is an implementation bug."""
    smooth = curve_is_smooth(c)
    t = build_gamma_c(c)
    verdict = destabilizer_search(t, max_ext_degree=1, budget=budget)
    if not smooth:
        d = 1
        while verdict.status != "non_stable":
            # a singular curve is guaranteed a witness over some extension;
            # search rank-6-anchored candidates where full enumeration is out
            d += 1
            if d > max(2, max_ext_degree) + 2:
                raise Disagreement(
                    "singular curve but no witness within reach for %r" % c)
            u = anchored_witness_search(t, d)
            if u is not None:
                verdict = StabilityVerdict("non_stable", u, d,
                                           verdict.subspaces_checked,
                                           note="rank-6-anchored witness")
    return GammaCConsistency(c, smooth, verdict)


def stability_family_report_f2():
    """Criterion-grade sweep: all 256 coefficient vectors over F_2, one
    family scan for the searches plus per-c smoothness; returns
    (reports, subspaces_checked)."""
    f2 = GF(2)
    found, witness, checked = gamma_family_scan_f2()
    reports = []
    for cmask in range(256):
        cc = CurveCoeffs(f2, {d: (cmask >> i) & 1
                              for i, d in enumerate(CURVE_DEGREES)})
        smooth = curve_is_smooth(cc)
        if found[cmask]:
            u = _witness_rows_to_u(f2, witness[cmask])
            t = build_gamma_c(cc)
            if not witness_verify(t, u):
                raise Disagreement("scan witness failed verification for %r" % cc)
            verdict = StabilityVerdict("non_stable", u, 1, checked)
        elif not smooth:
            # the singular point lives over an extension; so does the witness
            u = anchored_witness_search(build_gamma_c(cc), 2)
            if u is None:
                raise Disagreement("no degree-2 anchored witness for %r" % cc)
            verdict = StabilityVerdict("non_stable", u, 2, checked,
                                       note="rank-6-anchored witness")
        else:
            verdict = StabilityVerdict("stable", None, 1, checked)
        reports.append(GammaCConsistency(cc, smooth, verdict))
    return reports, checked


def rational_stability_report(t: Trivector, primes=(2, 7, 11, 13),
                              budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Stability of a rational trivector via reduction at good primes: one
    stable reduction certifies stability, since the destabilizer criterion is
    characteristic-free and non-stability specializes; otherwise the report
    is inconclusive.

    Only the mod-2 Grassmannian is enumerable subspace by subspace, so larger
    primes contribute only when the budget allows.
    """
    if not isinstance(t.field, RationalField):
        raise UnsupportedField("rational_stability_report expects Q")
    tried = []
    for p in primes:
        if any(c.val.denominator % p == 0 for c in t.coeffs.values()):
            continue
        fp = GF(p)
        tp = Trivector(fp, {tr: fp.el(int(c.val.numerator)
                                      * pow(c.val.denominator, -1, p))
                            for tr, c in t.coeffs.items()})
        try:
            verdict = destabilizer_search(tp, max_ext_degree=1, budget=budget)
        except BudgetExceeded:
            tried.append((p, "over budget"))
            continue
        tried.append((p, verdict.status))
        if verdict.status == "stable":
            return StabilityVerdict(
                "stable", None, 1, verdict.subspaces_checked,
                note="stable reduction mod %d certifies stability" % p)
    return StabilityVerdict(
        "inconclusive", None, 1, 0,
        note="no stable reduction found; tried %r" % (tried,))
