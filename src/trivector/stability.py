"""Stability of trivectors: destabilizing-subspace search, exact curve
smoothness, and the cross-validated verdict for the normal-form family.

A 6-dimensional subspace U destabilizes t exactly when t lies in
wedge^2(U) ^ V, i.e. every double contraction of t by two covectors
annihilating U vanishes.  Two engines find such a U through its
3-dimensional annihilator W = U-perp:

- over F_2 at degree 1, the Gray-code kernel walks all 788,035 annihilators
  in reduced echelon form (one pair-table gather per block; also the
  256-curve family scan);
- over every other field and degree, the witness engine reads W off the
  singular points of the Pfaffian cubic C, the points the sieved P^8 scan
  of loci._RunScanner already sends to elimination: a rank-6 singular
  point x gives W = ker phi(x), and when there is none, W is a 2-plane over
  a rank <= 4 point (see _singular_point_witness for both proofs).

A found witness is returned as a 6x9 row-reduced basis of U and re-verified
through the independent change-of-basis route (witness_verify).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded, Disagreement, UnsupportedField
from .fields import GF, RationalField
from .linalg import Matrix, kernel_matrix
from .polys import embed_map, extension_of, element_degree
from .scan import field_kernel
from .trivector import (CONTRACTION_SLOTS, CURVE_DEGREES, GAMMA_BASE_TERMS,
                        GAMMA_C_TERMS, CurveCoeffs, Trivector, build_gamma_c,
                        gl_act, phi_at)

__all__ = [
    "StabilityVerdict", "destabilizer_search", "witness_verify",
    "curve_is_smooth", "singular_points_of_curve", "stability_verdict_gamma_c",
    "gamma_family_scan_f2", "gaussian_binomial", "pivot_patterns",
    "double_contract", "destabilizes",
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
    pattern order of the F_2 annihilator scan (k = 3, n = 9) and of
    _echelon_bases (the witness engine's 2-planes, the flag engine's
    points of P^(n-1))."""
    return tuple(
        (pivots, tuple(tuple(c for c in range(n)
                             if c > pivots[r] and c not in pivots)
                       for r in range(k)))
        for pivots in sorted(itertools.combinations(range(n), k),
                             key=lambda t: t[::-1]))


def double_contract(t: Trivector, alpha, beta):
    """The vector iota_beta(iota_alpha(t)) = phi(alpha)^T beta; alpha, beta
    are covector coords."""
    return phi_at(t, alpha).transpose().apply(beta)


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
    # candidates walked: annihilators on the F_2 Gray route, P^8 points and
    # 2-planes on the witness engine's route
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
    for trip in terms:
        for a, b, v, _ in CONTRACTION_SLOTS:
            pair[trip[a] - 1, trip[b] - 1] ^= 1 << (trip[v] - 1)
            pair[trip[b] - 1, trip[a] - 1] ^= 1 << (trip[v] - 1)
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

    Degree 1 over F_2 runs the Gray-code scan of all 788,035 annihilators;
    every other degree runs the witness engine on P^8 of the extension.
    `budget` bounds the candidates walked at each degree: the annihilators
    on the Gray route, the P^8 points plus the enumerated 2-planes on the
    engine's route; a degree past it raises BudgetExceeded.  "stable" only
    certifies absence of a witness up to the searched bound; for the
    normal-form family the smoothness test upgrades it.
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
        t_ext = t.map_coeffs(ext, embed_map(base, ext)) if d > 1 else t
        if ext.order == 2:
            count = gaussian_binomial(9, 3, 2)
            if count > budget:
                raise BudgetExceeded("degree 1 needs %d subspaces (budget %d)"
                                     % (count, budget), count=count)
            witness, n = _scan_f2([tuple(t_ext.coeffs)])
            u = _witness_rows_to_u(ext, witness[0]) if witness else None
            if u is not None and not witness_verify(t_ext, u):
                raise Disagreement("witness failed independent verification")
        else:
            u, n = _singular_point_witness(t_ext, budget)
        checked += n
        if u is not None:
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


# ---------------------------------------------------------------------------
# the witness engine: destabilizing annihilators from the singular points of
# the Pfaffian cubic

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


def _echelon_bases(kern, k, n, size):
    """The reduced-echelon k x n code matrices, whose row spaces are the
    k-spaces of F_q^n: pivot patterns in the order of pivot_patterns, free
    entries as base-q digits (the last free cell fastest), in batches of at
    most `size`.  With k = 1 they are the points of P^(n-1)(F_q), code 1 at
    a leading position and any codes after it, in lexicographic order."""
    for pivots, free in pivot_patterns(k, n):
        cells = [(r, c) for r in range(k) for c in free[r]]
        count = kern.q ** len(cells)
        for lo in range(0, count, size):
            digits = np.arange(lo, min(count, lo + size))
            bases = np.zeros((digits.size, k, n), dtype=kern.dtype)
            bases[:, range(k), pivots] = 1
            for r, c in reversed(cells):
                digits, bases[:, r, c] = np.divmod(digits, kern.q)
            yield bases


def _plane_witness(kern, tensor, points, ranks, budget):
    """The first destabilizing <a, x, y> over the coded rank <= 4 points a,
    rank 4 first and in scan order within a rank, with <x, y> running
    through the 2-planes of a complement of <a> in ker phi(a) in the order
    of _echelon_bases.

    The reduced kernel basis has one row per free column, ending there, and
    a's coordinate at that column is its coefficient on the row; dropping
    the first row with a nonzero coefficient leaves a complement of <a>.
    x and y lie in ker phi(a), so t(a, x, .) and t(a, y, .) vanish and only
    t(x, y, .) is tested.  Returns (rows, tried): the three annihilator rows
    as codes, or None, and the number of planes tested; BudgetExceeded
    before a point whose planes would take that number past `budget`."""
    order = np.argsort(-ranks, kind="stable")
    points, ranks = points[order], ranks[order]
    _, kernels = kern.batched_kernel_basis(kern.build_skew(points, tensor))
    tried = 0
    for a, r, basis in zip(points, ranks, kernels):
        tried_next = tried + gaussian_binomial(8 - int(r), 2, kern.q)
        if tried_next > budget:
            raise BudgetExceeded("the witness planes over P^8(F_%d) pass the "
                                 "budget %d" % (kern.q, budget), count=tried_next)
        rows = basis[:9 - r]
        ends = 8 - np.argmax(rows[:, ::-1] != 0, axis=1)
        rest = np.delete(rows, np.flatnonzero(a[ends])[0], axis=0)
        for planes in _echelon_bases(kern, 2, 8 - r, _ANCHOR_CHUNK):
            xy = kern.matmul(planes, rest)
            hit = ~kern.double_contract(xy[:, 0], xy[:, 1], tensor).any(1)
            if hit.any():
                first = int(hit.argmax())
                return np.concatenate([a[None], xy[first]]), tried + first + 1
            tried += planes.shape[0]
    return None, tried


def _singular_point_witness(te: Trivector, budget: int):
    """The witness engine over te's finite field: (u, walked), u a verified
    6x9 witness or None, walked the P^8 points scanned plus the 2-planes
    tested.  BudgetExceeded when the points, or the points plus the planes
    tested up to the next point's, exceed the budget; Disagreement when the
    first fact below fails, or the object routes reject the witness.

    A 3-space W of covectors destabilizes exactly when phi(x) y =
    t(x, y, .) = 0 for all x, y in W, that is, when W lies in ker phi(x)
    for every x in W.  So every point of P(W) has rank <= 6, and:

    - Rank-6 anchors.  If some x in P(W) has rank 6, W = ker phi(x) (both
      have dimension 3).  Such an x is a singular point of the Pfaffian
      cubic C, and a rank-6 singular point of C is always such an x.  Let
      k_1, k_2, k_3 span K = ker phi(x).  The principal 6x6 Pfaffians of
      phi(x) are lambda != 0 times the Pluecker coordinates of K, up to
      signs fixed by the deleted indices: in a basis adapted to K only the
      block on the complement survives, and both sides move by the same
      minors under a change of basis.  By the derivative lemma of
      loci._RunScanner (dPf/dm_ab = +-Pf of the block without rows and
      columns a, b, with m_ab = sum_j t_abj x_j), expanding the Pluecker
      coordinate det(k_c)_{iab} along row i gives, for all i and j,
          d_j(C x_i)(x) = mu * sum_c (k_c)_i t(k_c', k_c'', e_j),
      with one mu != 0 (lambda up to sign) and (c, c', c'') running through
      the cyclic orders of 1, 2, 3.  At a zero
      of C, d_j(C x_i) = x_i d_j C, and x != 0, so the gradient of C
      vanishes at x exactly when sum_c k_c (x) t(k_c', k_c'', .) = 0, and,
      the k_c being independent, exactly when the three double contractions
      of K vanish.  (When C is identically zero, every point is singular
      and every rank-6 point is an anchor.)
    - Plane reduction.  If P(W) has no rank-6 point, all its points have
      rank <= 4, where the gradient of C vanishes (loci._RunScanner), so
      they are all in the elimination set.  For any one of them, a, W/<a>
      is a 2-plane in ker phi(a)/<a>, and a 2-plane <x, y> of a complement
      of <a> in ker phi(a) gives a destabilizing <a, x, y> exactly when
      t(x, y, .) = 0.

    The engine streams the elimination set of the sieved scan
    (iter_rank_locus with _singular) in runs of at most 4096 points in
    lexicographic order.  The rank-6 points of a run are tested with
    _anchored_hits, and any that fails the first fact raises Disagreement;
    the first one is the witness, so it is the first rank-6 point whose
    kernel destabilizes, and the scan stops there.  With no anchor in the
    whole scan, the 2-planes at the collected rank <= 4 points are tested
    in coded batches, rank-4 points first ((q^2+1)(q^2+q+1) planes each,
    against the Gaussian binomial [6 choose 2]_q at a rank-2 point), until
    the first hit.  The hit is rebuilt and checked through the object route
    (kernel_matrix, destabilizes) and then witness_verify.
    """
    from . import loci
    kern = field_kernel(te.field)
    tensor = loci._structure_tensor_codes(te, kern)
    walked, low_codes, low_ranks = 0, [], []
    for codes, ranks, hist in loci.iter_rank_locus(
            te, chunk=_ANCHOR_CHUNK, budget=budget, _singular=True):
        walked += int(hist.sum())
        anchors = codes[ranks == 6]
        if anchors.size:
            if not _anchored_hits(kern, anchors, tensor).all():
                raise Disagreement("a rank-6 singular point of the Pfaffian "
                                   "cubic has a non-destabilizing kernel")
            w = kernel_matrix(phi_at(te, [kern.decode(c) for c in anchors[0]]))
            break
        low_codes.append(codes)
        low_ranks.append(ranks)
    else:
        rows, tried = _plane_witness(kern, tensor, np.concatenate(low_codes),
                                     np.concatenate(low_ranks), budget - walked)
        walked += tried
        if rows is None:
            return None, walked
        w = Matrix(te.field, [[kern.decode(c) for c in row] for row in rows])
    u = kernel_matrix(w)
    if u.nrows != 6 or not destabilizes(te, w) or not witness_verify(te, u):
        raise Disagreement("object routes reject the engine's witness")
    return u, walked


def anchored_witness_search(t: Trivector, ext_degree: int,
                            point_budget: int = 30_000_000):
    """The witness engine at one extension degree (see
    _singular_point_witness): a verified 6x9 witness over the degree
    `ext_degree` extension, or None.  When some rank-6 point has a
    destabilizing kernel, the witness is the image of the first such point
    in lexicographic order."""
    ext = extension_of(t.field, ext_degree)
    te = t.map_coeffs(ext, embed_map(t.field, ext)) if ext_degree > 1 else t
    return _singular_point_witness(te, point_budget)[0]


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
    their agreement; any disagreement is an implementation bug.  A singular
    curve is guaranteed a witness over some extension, so without one at
    degree 1 the witness engine goes on, degree by degree, up to degree
    max(2, max_ext_degree) + 2; a curve still without one fails the
    agreement check."""
    smooth = curve_is_smooth(c)
    t = build_gamma_c(c)
    verdict = destabilizer_search(t, max_ext_degree=1, budget=budget)
    d = 1
    while (not smooth and verdict.status == "stable"
           and d < max(2, max_ext_degree) + 2):
        d += 1
        u = anchored_witness_search(t, d, budget)
        if u is not None:
            verdict = StabilityVerdict("non_stable", u, d,
                                       verdict.subspaces_checked)
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
        smooth, t = curve_is_smooth(cc), build_gamma_c(cc)
        if found[cmask]:
            u, d = _witness_rows_to_u(f2, witness[cmask]), 1
            if not witness_verify(t, u):
                raise Disagreement("scan witness failed verification for %r" % cc)
        else:
            # a singular point off F_2 has its witness over an extension; a
            # singular curve left "stable" fails GammaCConsistency
            u, d = (None, 1) if smooth else (anchored_witness_search(t, 2), 2)
        verdict = StabilityVerdict("stable" if u is None else "non_stable",
                                   u, d, checked)
        reports.append(GammaCConsistency(cc, smooth, verdict))
    return reports, checked


def rational_stability_report(t: Trivector, primes=(2, 3, 5, 7),
                              budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Stability of a rational trivector via reduction at good primes: one
    stable reduction certifies stability, since the destabilizer criterion is
    characteristic-free and non-stability specializes; otherwise the report
    is inconclusive.

    Each reduction runs the degree-1 destabilizer_search: the Gray scan mod
    2 and the witness engine, one P^8(F_p) scan, at every other prime.  A
    prime whose P^8 exceeds the budget is skipped as "over budget": at the
    default budget the default primes 2, 3 and 5 are decided and 7 is not
    (P^8(F_7) has 6,725,601 points); it is tried with a budget that
    covers it.
    """
    if not isinstance(t.field, RationalField):
        raise UnsupportedField("rational_stability_report expects Q")
    tried = []
    for p in primes:
        if any(c.val.denominator % p == 0 for c in t.coeffs.values()):
            continue
        tp = t.map_coeffs(GF(p), lambda c: c.val.numerator
                          * pow(c.val.denominator, -1, p))
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
