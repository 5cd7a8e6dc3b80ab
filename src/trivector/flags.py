"""Compatible flags F1 < F3 < F6 < F8 for a trivector: the 31 vanishing
conditions, the point-anchored flag search, and the Chow-ring degree
certificate for the compatibility bundle."""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .e8 import _EPS_SIGNS, _wedge_codes
from .errors import Disagreement, NonStableInput, UnsupportedField
from .fields import Field
from .linalg import Matrix, kernel_matrix
from .loci import (DEFAULT_POINT_BUDGET, _pencil_gather, _signed_codes,
                   _structure_tensor_codes, rank_locus_codes)
from .polys import element_degree, embed_map, extension_of
from .scan import field_kernel, projective_count
from .stability import _echelon_bases
from .trivector import CONTRACTION_SLOTS, TRIPLES, Trivector, phi_at

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


def _dual_flag_basis(flag: Flag1368) -> list:
    """Covectors a_1, ..., a_9 adapted to the annihilators A_d = ann(F_d):
    a_9 spans A_8, a_7..a_9 span A_6, a_4..a_9 span A_3 and a_2..a_9 span
    A_1.  Each block extends the one before it greedily from the
    reduced-echelon kernel basis of F_d (the last from e*_1, ..., e*_9)."""
    field = flag.field
    sources = [kernel_matrix(flag[d]).rows for d in (8, 6, 3, 1)]
    sources.append(Matrix.identity(field, 9).rows)
    basis = [None] * 9
    echelon = []    # (pivot, row): 0 at every earlier pivot, 1 at its own
    for positions, rows in zip(((8,), (6, 7), (3, 4, 5), (1, 2), (0,)),
                               sources):
        free = list(positions)
        for row in rows:
            if not free:
                break
            r = list(row)
            for piv, e in echelon:
                if not r[piv].is_zero():
                    c = r[piv]
                    r = [a - c * b for a, b in zip(r, e)]
            piv = next((k for k, a in enumerate(r) if not a.is_zero()), None)
            if piv is None:
                continue
            inv = r[piv].inv()
            echelon.append((piv, [a * inv for a in r]))
            basis[free.pop(0)] = list(row)
    return basis


def flag_compatible(t: Trivector, flag: Flag1368) -> CompatibilityReport:
    """The 31 vanishing conditions read as contractions.

    The coefficient of e_i^e_j^e_k is t(e*_i, e*_j, e*_k), so after any
    change of basis making the flag standard the 31 conditions are the
    contractions t(a_i, a_j, a_k) over a dual basis adapted to the
    annihilators (_dual_flag_basis); together they say that
    t(A_8, A_1, A_3), t(A_6, A_6, A_1) and t(A_6, A_3, A_3) vanish, which
    does not depend on the basis.  The violated list reports the nonzero
    contractions t(a_i, a_j, a_k) = a_i^T phi(a_k) a_j."""
    a = _dual_flag_basis(flag)
    zero = t.field.zero
    phis = {k: phi_at(t, a[k - 1]) for k in (7, 8, 9)}
    violated = []
    for trip in FLAG_MONOMIALS:
        i, j, k = trip
        col = phis[k].apply(a[j - 1])
        c = sum((x * y for x, y in zip(a[i - 1], col) if not x.is_zero()),
                zero)
        if not c.is_zero():
            violated.append((trip, c))
    return CompatibilityReport(not violated, violated)


# ---------------------------------------------------------------------------
# flag search through the rank-4 locus, in coded arithmetic
#
# At every rank-4 point x the lines u of the image of phi(x) whose
# six-vector u ^ phi(x) ^ t is pure are solved for (_pure_lines: one small
# linear system per point, or a Pfaffian test on each line where t mod
# im phi(x) vanishes).  Those candidates, about one per point, go through
# the coded tests of the object route in one batch, and the object route
# only rebuilds and checks the candidates that pass every coded test.


@functools.cache
def _wedge_line_tables():
    """Field-independent index tables of v1 = u ^ m for a vector u and a
    flattened skew matrix m: (u ^ m)_T is the sum over the slots
    (a, b, v, sign) of T (CONTRACTION_SLOTS) of sign u_T[v] m_T[a]T[b], and
    m is skew, so a negative slot reads m_T[b]T[a] instead; (84, 3)
    positions into u and into m."""
    upos = np.array([[trip[v] - 1 for _, _, v, _ in CONTRACTION_SLOTS]
                     for trip in TRIPLES])
    ment = np.array([[(trip[a] - 1) * 9 + trip[b] - 1 if sign > 0
                      else (trip[b] - 1) * 9 + trip[a] - 1
                      for a, b, _, sign in CONTRACTION_SLOTS]
                     for trip in TRIPLES])
    return upos, ment


def _wedge_line(kern, u, mflat):
    """The (N, 84) codes of u ^ m for (N, 9) coded vectors u and (N, 81)
    flattened coded skew matrices m (_wedge_line_tables)."""
    upos, ment = _wedge_line_tables()
    terms = [kern.mul(u[:, upos[:, s]], mflat[:, ment[:, s]])
             for s in range(3)]
    return kern.add(kern.add(terms[0], terms[1]), terms[2])


def _dual_matrix(t: Trivector, kern):
    """The (84, 84) codes D with v @ D the dual three-form of v ^ t for a
    trivector v.  Coefficient T of that form sums EPS[T] sgn(U, T2) v[U]
    t[T2] over the 20 splittings U + T2 of comp(T), so entry (U, T) is
    EPS[T] sgn(U, T2) t[T2]; swapping the two halves of a six costs a sign,
    so that is -EPS[T] times entry (T, U) of the wedge with t
    (e8._wedge_codes)."""
    wedge = _wedge_codes(t, kern)
    return np.where(_EPS_SIGNS[:, None] > 0, kern.neg(wedge), wedge).T


@functools.lru_cache(maxsize=32)
def _projective_codes(kern, n: int):
    """One representative of each point of P^(n-1)(F_q) as (L, n) codes:
    code 1 at a leading position, any codes after it (the 1 x n echelon
    bases, stability._echelon_bases)."""
    out = np.concatenate(list(_echelon_bases(kern, 1, n, kern.q ** n)))[:, 0]
    out.flags.writeable = False     # shared by every caller of the cache
    return out


def _line_keys(kern, coeffs):
    """Sort keys of lines of a 4-space given by (N, 4) coded coefficients
    with leading entry 1: by leading position, then by the tail in
    itertools.product order of field.elements(), which lists the elements
    in code order (the order in which the brute-force search enumerates
    the lines)."""
    q = kern.q
    coeffs = coeffs.astype(np.int64)
    lead = np.argmax(coeffs != 0, axis=1)
    keys = lead * q ** 3
    for j in range(1, 4):
        keys = keys + np.where(j > lead, coeffs[:, j] * q ** (3 - j), 0)
    return keys


def _rank_two(kern, s):
    """Whether each (N, 25) flattened alternating 5 x 5 matrix has rank
    exactly 2: it is nonzero and its five principal 4 x 4 Pfaffians
    s_ab s_cd - s_ac s_bd + s_ad s_bc vanish."""
    e = lambda i, j: s[:, 5 * i + j]
    ok = s.any(axis=1)
    for a, b, c, d in itertools.combinations(range(5), 4):
        pf = kern.sub(kern.mul(e(a, b), e(c, d)), kern.mul(e(a, c), e(b, d)))
        ok &= kern.add(pf, kern.mul(e(a, d), e(b, c))) == 0
    return ok


def _lines_in_kernel(kern, beta, sigma, where):
    """The tau-pure case of _pure_lines at the points where `where` holds:
    yields (point indices, c) codes of every lambda in P(W*) with
    iota_beta sigma_lambda = 0 for the first two rows beta of ann T~
    (10 linear equations in the 4 coordinates c of lambda)."""
    pts = np.nonzero(where)[0]
    if not pts.size:
        return
    eqs = kern.matmul(beta[pts, None, :2], sigma[pts])
    rank, sol = kern.batched_kernel_basis(
        eqs.reshape(-1, 4, 10).transpose(0, 2, 1))
    for dim in range(1, 5):
        at = np.nonzero(rank == 4 - dim)[0]
        if at.size:
            c = kern.matmul(_projective_codes(kern, dim), sol[at, :dim])
            yield np.repeat(pts[at], c.shape[1]), c.reshape(-1, 4)


def _lines_of_rank_two(kern, sigma, where):
    """The tau = 0 case of _pure_lines at the points where `where` holds:
    yields (point indices, c) codes of every lambda in P(W*) whose
    sigma_lambda has rank exactly 2, one point at a time
    (q^3 + q^2 + q + 1 lambdas each)."""
    lams = _projective_codes(kern, 4)
    for p in np.nonzero(where)[0]:
        keep = _rank_two(kern, kern.matmul(lams, sigma[p].reshape(4, 25)))
        yield np.full(int(keep.sum()), p), lams[keep]


def _pure_lines(kern, tensor, m, red, piv):
    """The lines u of W = im phi(x) whose six-vector v2 = u ^ phi(x) ^ t is
    pure, at n rank-4 points at once: m holds the (n, 9, 9) codes of phi(x),
    red the reduced basis w_1, ..., w_4 of W and piv its pivot columns
    p_1, ..., p_4.  Returns (point index, u) codes, u scaled so that its
    coefficients over the w_i lead with 1, sorted by point and then in line
    order (_line_keys).

    Notation: k_1, ..., k_5 is the kernel basis of the w_i, a basis of
    ann W = ker phi(x) = (V/W)*; tau = t mod W in Lambda^3(V/W), with
    entries t(k_a, k_b, k_c) and support T~; a covector lambda on W is
    lifted to V* as sum c_i e*_{p_i}, so that lambda(w_i) = c_i, and
    sigma_lambda = (iota_lambda t) mod W in Lambda^2(V/W) has entries
    t(lambda, k_a, k_b) (computed up to one sign for every lambda, which
    no test below sees).

    Claim: the pure lines are u = phi(x) lambda for
      - tau pure and nonzero: lambda with sigma_lambda in Lambda^2 T~, the
        kernel in c of the 10 x 4 system iota_beta sigma_lambda = 0 for the
        two covectors beta of ann T~, the kernel of the 25 x 5 stack of
        double contractions of tau (_lines_in_kernel);
      - tau with 5-dimensional support: none;
      - tau = 0: lambda in P(W*) with sigma_lambda of rank exactly 2
        (_lines_of_rank_two).

    Proof.  phi(x) is a nondegenerate two-vector of W, so lambda ->
    phi(x) lambda maps P(W*) onto P(W).  For u = phi(x) lambda:
    (1) v1 = u ^ phi(x) is nonzero and, as a three-vector of the 4-space
    W, pure; iota_lambda v1 = lambda(u) phi(x) - u ^ u = 0, because
    lambda(u) = phi(x)(lambda, lambda) = 0, so its support is
    F3 = W cap ker lambda.
    (2) v2 = v1 ^ t depends only on zeta = t mod F3 in Lambda^3(V/F3), and
    v2 is pure iff zeta is: v1 ^ (.) is injective on Lambda^3(V/F3), takes
    a pure zeta with support S to the pure six-vector with support
    F3 + S, and a pure image has a support F6 containing F3, so zeta lies
    in the line Lambda^3(F6/F3).
    (3) With lambda(w) = 1 for some w in W, V/F3 = <w> + ker lambda / F3,
    and projection maps ker lambda / F3 onto V/W.  Contracting zeta by
    lambda gives zeta = w ^ sigma_lambda + tau in this splitting.  So:
      - tau pure, nonzero: if sigma_lambda lies in Lambda^2 T~, zeta is a
        nonzero three-vector of the 4-space <w> + T~, hence pure.
        Conversely tau is the image of zeta along <w>, so a pure zeta has a
        support S mapping onto T~; S lies in <w> + T~, and sigma_lambda =
        iota_lambda zeta in Lambda^2 T~.  ann T~ is the set of beta with
        iota_beta tau = 0.
      - support of tau 5-dimensional: the image tau of a pure zeta would be
        pure or zero, so no line is pure.  The case never arises: x lies in
        ann W and iota_x tau = phi(x) mod W = 0, so tau is a three-vector of
        the 4-space ker x / W, pure or zero.
      - tau = 0: zeta = w ^ sigma_lambda is pure iff sigma_lambda is a
        nonzero decomposable two-vector, i.e. of rank 2; the rank of an
        alternating matrix is twice the size of its largest nonzero
        principal Pfaffian.
    Sparse non-stable trivectors reach the tau = 0 case; on the smooth
    gamma_c tried, tau is pure at every rank-4 point."""
    n = m.shape[0]
    ks = kern.batched_kernel_basis(red)[1][:, :5]
    # h[a, j, c] = t(k_a, e*_j, k_c) and tau[a, b, c] = t(k_a, k_b, k_c)
    h = kern.matmul(kern.build_skew(ks.reshape(-1, 9), tensor)
                    .reshape(n, 5, 9, 9), ks.transpose(0, 2, 1)[:, None])
    tau = kern.matmul(ks[:, None], h)
    sigma = h.transpose(0, 2, 1, 3)[np.arange(n)[:, None], piv]
    support, beta = kern.batched_kernel_basis(tau.reshape(n, 25, 5))
    found = [*_lines_in_kernel(kern, beta, sigma, support == 3),
             *_lines_of_rank_two(kern, sigma, support == 0)]
    if not found:
        return np.zeros(0, dtype=np.int64), m[:0, 0]
    pidx = np.concatenate([p for p, _ in found])
    c = np.concatenate([c for _, c in found])
    # u = phi(x) lambda = sum_i c_i (column p_i of phi(x))
    cols = np.take_along_axis(m, piv[:, None, :], axis=2)[pidx]
    u = kern.matmul(cols, c[:, :, None])[:, :, 0]
    coeffs = np.take_along_axis(u, piv[pidx], axis=1)
    lead = np.argmax(coeffs != 0, axis=1)
    inv = kern.inv(coeffs[np.arange(len(pidx)), lead])[:, None]
    u = kern.mul(u, inv).astype(kern.dtype)
    order = np.lexsort((_line_keys(kern, kern.mul(coeffs, inv)), pidx))
    return pidx[order], u[order]


def _vanishes(kern, a, b):
    """Whether the coded product a @ b is zero, per stacked matrix."""
    return ~kern.matmul(a, b).any(axis=(1, 2))


def _span_stack(kern, v):
    """The (N, 36, 9) double contractions of (N, 84) coded trivectors, the
    rows a < b of their structure tensors (loci._pencil_gather); their row
    space is the support of each trivector."""
    return _signed_codes(kern, v)[:, _pencil_gather()[np.triu_indices(9, 1)]]


def _coded_flag_candidates(t: Trivector, kern, points):
    """The pure lines u of the image of phi(x) at each coded point x of
    rank 4 (_pure_lines), tested in coded arithmetic by the conditions of
    the object route:
      - F3 = support of v1 = u ^ phi(x) has dimension 3;
      - the dual three-form of v2 = v1 ^ t spans a 3-space A_6 (v2 is a
        pure six-vector), and F6 = ker A_6;
      - u in F3, F3 in F6 and F6 in F8 = ker x;
      - t(A_8, A_1, A_3), t(A_6, A_6, A_1) and t(A_6, A_3, A_3) vanish,
        with A_8 = <x>, A_3 = ann F3 and A_1 = ann u (flag_compatible).

    The first two tests, the containments and t(A_8, A_1, A_3) = 0 already
    follow from the construction (v1 = u ^ phi(x) is pure with support in
    W, v2 is pure by _pure_lines, and the contraction of v2 by x vanishes);
    they are tested anyway, so the filter applies exactly the conditions of
    the object route.

    Yields (point index, u, F3, F6) codes of the candidates passing every
    test, points in order and the lines of each point in the order of the
    brute-force line enumeration (_line_keys).
    """
    tensor = _structure_tensor_codes(t, kern)
    m = kern.build_skew(points, tensor)
    ranks, piv, red = kern.batched_rref(m)
    at = np.nonzero(ranks == 4)[0]
    pidx, u = _pure_lines(kern, tensor, m[at], red[at, :4], piv[at, :4])
    pidx = at[pidx]
    if not pidx.size:
        return
    v1 = _wedge_line(kern, u, m.reshape(-1, 81)[pidx])
    r3, _, red3 = kern.batched_rref(_span_stack(kern, v1))
    keep = r3 == 3
    pidx, u, v1, f3 = pidx[keep], u[keep], v1[keep], red3[keep, :3]
    dual = kern.matmul(v1, _dual_matrix(t, kern))
    r6, _, red6 = kern.batched_rref(_span_stack(kern, dual))
    keep = r6 == 3
    pidx, u, f3, a6 = pidx[keep], u[keep], f3[keep], red6[keep, :3]
    f6 = kern.batched_kernel_basis(a6)[1][:, :6]
    a3 = kern.batched_kernel_basis(f3)[1][:, :6]
    a1 = kern.batched_kernel_basis(u[:, None, :])[1][:, :8]
    a3t = a3.transpose(0, 2, 1)
    # containment u in F3 < F6 < F8
    ok = _vanishes(kern, a3, u[:, :, None])
    ok &= _vanishes(kern, a6, f3.transpose(0, 2, 1))
    ok &= _vanishes(kern, points[pidx][:, None, :], f6.transpose(0, 2, 1))
    # t(A_8, A_1, A_3) = A_1 phi(x) A_3^T
    ok &= _vanishes(kern, a1, kern.matmul(m[pidx], a3t))
    # t(A_6, A_6, A_1) and t(A_6, A_3, A_3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        w = kern.double_contract(a6[:, a], a6[:, b], tensor)
        ok &= _vanishes(kern, a1, w[:, :, None])
    for a in range(3):
        ma = kern.build_skew(a6[:, a], tensor)
        ok &= _vanishes(kern, a3, kern.matmul(ma, a3t))
    for n in np.nonzero(ok)[0]:
        yield pidx[n], u[n], f3[n], f6[n]


def _flags_from_codes(t: Trivector, kern, points, early_exit: bool) -> list:
    """The compatible flags at each coded point, one list per point: the
    coded candidates rebuilt as Flag1368 and checked by flag_compatible
    (a rejection is a Disagreement).  With early_exit, only the first
    candidate of each point."""
    field = t.field

    def decode(rows):
        return Matrix(field, [[kern.decode(c) for c in row] for row in rows])

    out = [[] for _ in range(points.shape[0])]
    for p, u, f3, f6 in _coded_flag_candidates(t, kern, points):
        if early_exit and out[p]:
            continue
        f8 = kernel_matrix(decode(points[p:p + 1]))
        try:
            flag = Flag1368(field, decode(u[None]), decode(f3), decode(f6), f8)
        except ValueError as exc:
            raise Disagreement("object route rejects a coded flag: %s" % exc)
        if not flag_compatible(t, flag).compatible:
            raise Disagreement("coded flag candidate is not compatible")
        out[p].append(flag)
    for flags in out:
        if len({f.key() for f in flags}) != len(flags):
            raise Disagreement("duplicate flags from one rank-4 point")
    return out


def flags_at_point(t: Trivector, x_coords, early_exit: bool = False) -> list:
    """All compatible flags whose top space is the annihilator of x.

    The line F1 = <u> lies in the image W of the pencil at x, and the
    chain F3, F6 is forced by u.  Only the lines u whose six-vector
    u ^ phi(x) ^ t is pure can carry a flag; they are solved for from
    tau = t mod W (_pure_lines): a linear system when tau is pure, none
    when its support is 5-dimensional, and a Pfaffian test on each line
    when tau = 0.  Compatibility is the final filter
    (_coded_flag_candidates).  Flags come in the order of the lines
    (leading coefficient over the reduced basis of W, then the tail in
    field.elements() order); with early_exit only the first is kept (a
    stable trivector has at most one compatible flag per rank-4 point).
    """
    kern = field_kernel(t.field)
    point = np.array([[kern.encode(c) for c in x_coords]], dtype=kern.dtype)
    return _flags_from_codes(t, kern, point, early_exit)[0]


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


# degrees whose P^8 has more points than this are skipped, not scanned
FLAG_SCAN_CUTOFF = 30_000_000


def flag_search(t: Trivector, max_ext_degree: int = 1,
                point_budget: int = DEFAULT_POINT_BUDGET,
                verify_stable: bool = False) -> FlagSearchReport:
    """Enumerate compatible flags degree by degree through the rank-4 locus.

    The weighted count (each Frobenius orbit weighs its field-of-definition
    degree) can never exceed 81; the report is marked complete exactly when
    it reaches 81 within the searched degrees.  Non-stable inputs are refused
    when a rank <= 2 point shows up in a scan, or up front with
    verify_stable (which runs the degree-1 destabilizer search).
    """
    if max_ext_degree < 1:
        raise ValueError("max_ext_degree must be >= 1")
    base = t.field
    if base.order is None:
        raise UnsupportedField("flag search scans P^8 over a finite field")
    if verify_stable:
        from .stability import destabilizer_search
        if destabilizer_search(t, 1).status != "stable":
            raise NonStableInput("destabilizer search found a witness")
    t0 = time.perf_counter()
    found = []
    weighted = 0
    searched, skipped = [], []
    for d in range(1, max_ext_degree + 1):
        ext = extension_of(base, d)
        if projective_count(ext.order) > min(point_budget, FLAG_SCAN_CUTOFF):
            skipped.append(d)
            continue
        emb = embed_map(base, ext)
        te = t.map_coeffs(ext, emb) if d > 1 else t
        kern, rep, codes, ranks = rank_locus_codes(te, max_rank=4,
                                                   budget=point_budget)
        if rep.counts.get(0, 0) or rep.counts.get(2, 0):
            raise NonStableInput("rank <= 2 point found: input is not stable")
        searched.append(d)
        reps = []
        for n, row in enumerate(codes):
            coords = [kern.decode(c) for c in row]
            orbit_key, self_key = _frobenius_orbit_key(base.order, coords)
            if orbit_key != self_key:
                continue            # one representative per orbit
            # minimal field of definition must be exactly d
            if math.lcm(*(element_degree(c, base) for c in coords)) != d:
                continue
            reps.append(n)
        for flags in _flags_from_codes(te, kern, codes[reps], early_exit=True):
            for flag in flags:
                found.append((flag, d))
                weighted += d
    if weighted > 81:
        raise Disagreement("weighted flag count %d exceeds 81" % weighted)
    return FlagSearchReport(found, weighted, weighted == 81,
                            searched, skipped, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the Chow-ring certificate: product of the 31 condition classes.  Two
# routes: reduce_mod_symmetric divides monomials by the lex Groebner basis
# (the test route); chern_top_class multiplies Schubert classes by Monk's
# rule and expands what is left (the production route)

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
# most new terms expanded between two merges; bounds the transient memory
_EXPAND_CHUNK = 1 << 16
# every partial sum of a merge is bounded by the L1 norm of what it merges
_COEFF_L1_LIMIT = float(1 << 62)


def _check_l1(l1):
    if l1 >= _COEFF_L1_LIMIT:
        raise OverflowError("coefficient L1 norm reaches 2**62")


@functools.cache
def _h_tail_keys(i: int):
    """_h_tail(i) as packed keys, built on first use."""
    return np.array([sum(v << (_EXP_BITS * k) for k, v in enumerate(e))
                     for e in _h_tail(i)], dtype=np.int64)


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
    norm stays below 2**62 throughout the reduction.  An exponent or a
    coefficient that is not a numbers.Integral (numpy integers are) raises
    TypeError before any work; a key outside the domain raises ValueError;
    coefficients that could leave it raise OverflowError.  Results are
    exact; nothing is truncated or wraps silently.
    """
    if not all(isinstance(c, numbers.Integral) for c in poly.values()):
        raise TypeError("coefficients must be integers")
    exps = np.array(list(poly))
    if exps.dtype.kind not in "biu" and not all(
            isinstance(v, numbers.Integral) for v in exps.flat):
        raise TypeError("exponents must be integers")
    poly = {e: c for e, c in poly.items() if c}
    if not poly:
        return {}
    # checked as Python ints, so an exponent past int64 is a ValueError too
    if any(len(e) != 9 for e in poly):
        raise ValueError("exponent vectors must have 9 entries")
    if any(v < 0 for e in poly for v in e):
        raise ValueError("negative exponent in a term")
    if any(sum(e) >= 1 << _EXP_BITS for e in poly):
        raise ValueError("total degree must be below %d" % (1 << _EXP_BITS))
    exps = np.array(list(poly), dtype=np.int64)
    _check_l1(sum(abs(c) for c in poly.values()))
    keys = (exps << _KEY_SHIFTS).sum(axis=1)
    coeffs = np.array(list(poly.values()), dtype=np.int64)
    for i in range(1, 10):
        shift = _EXP_BITS * (i - 1)
        tails = _h_tail_keys(i)
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
                _check_l1(np.abs(coeffs).sum(dtype=np.float64)
                          + len(tails) * np.abs(chunk).sum(dtype=np.float64))
                new_keys = (lead_keys[s:s + rows, None] + tails).ravel()
                keys, coeffs = _merge_terms(
                    np.concatenate((keys, new_keys)),
                    np.concatenate((coeffs, np.repeat(-chunk, len(tails)))))
    exps = (keys[:, None] >> _KEY_SHIFTS) & _EXP_MASK
    return dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))


# Schubert classes of Fl(9).  Write y_r = x_{10-r}, so that the standard
# monomials of the lex basis above (x_k-exponent at most k-1) are the
# staircase monomials y^a with a_r <= 9 - r.  A permutation w of S_9 is
# kept in one-line notation w(1..9) -> 0..8, packed _PERM_BITS bits per
# position (position 1 in the low bits); Schubert polynomials are kept as
# packed y-exponents, _PERM_BITS bits per variable (y_1 in the low bits).
_PERM_BITS = 4
_PERM_MASK = (1 << _PERM_BITS) - 1
_PERM_SHIFTS = np.arange(9, dtype=np.int64) * _PERM_BITS


def _pack(rows):
    return (rows.astype(np.int64) << _PERM_SHIFTS).sum(axis=1)


def _unpack(keys):
    return ((keys[:, None] >> _PERM_SHIFTS) & _PERM_MASK).astype(np.int8)


def _times_linear_form(perms, coeffs, form):
    """Multiply sum_w c_w S_w by the linear form sum of x_v, v in form
    (repeats count), in H*(Fl_9) = Z[x_1..x_9] / (symmetric ideal).

    perms is an (N, 9) int8 array of permutations, coeffs their int64
    coefficients; returns the product in the same shape.

    Monk's rule (Monk 1959; Lascoux-Schuetzenberger's transition formula):
    in Z[y_1, y_2, ...]
        y_r S_w = sum_{b > r} S_{w t_rb} - sum_{a < r} S_{w t_ar},
    both sums over covers only: w(a) < w(b) with no a < c < b and
    w(a) < w(c) < w(b), i.e. l(w t_ab) = l(w) + 1.  Proof: the
    Chevalley-Monk formula S_{s_r} S_w = sum_{a <= r < b} S_{w t_ab} (over
    covers) holds with S_{s_r} = y_1 + ... + y_r; subtract it at r - 1
    (S_{s_0} = 0) and the pairs with a < r < b cancel.  Summed over a form
    sum_r m_r y_r, the cover w t_ab gets m_a - m_b.

    Covers that leave S_9 are dropped.  For w in S_9 the only one is
    u = w t_{r,10} (past 10 the value w(10) = 10 lies in between), and
    S_u(y_1..y_9, 0) lies in the symmetric ideal I_9.  Proof: Z[y_1..y_9]
    is free over the symmetric polynomials on the S_v, v in S_9, so f is
    congruent modulo I_9 to sum_v S_v times the constant term of d_v f
    (d_i S_v = S_{v s_i} on a descent of v and 0 otherwise;
    S_v(0) = [v = id]).  The d_i with i <= 8 commute with y_10 = 0, so
    for f = S_u(y_1..y_9, 0) that constant term is S_{u v^-1}(0) or 0,
    and S_{u v^-1}(0) = [u = v] = 0 because u is not in S_9.
    """
    m = [0] * 9
    for v in form:
        m[9 - v] += 1                   # x_v = y_{10-v}
    pairs = [(a, b, m[a] - m[b]) for a in range(9) for b in range(a + 1, 9)
             if m[a] != m[b]]
    if not pairs:                       # a symmetric form: zero
        return perms[:0], coeffs[:0]
    _check_l1(np.abs(coeffs).sum(dtype=np.float64)
              * sum(abs(f) for _, _, f in pairs))
    new_perms, new_coeffs = [], []
    for a, b, f in pairs:
        lo, hi = perms[:, a], perms[:, b]
        mid = perms[:, a + 1:b]
        cover = (lo < hi) & ~((mid > lo[:, None])
                              & (mid < hi[:, None])).any(axis=1)
        moved = perms[cover]
        moved[:, [a, b]] = moved[:, [b, a]]
        new_perms.append(moved)
        new_coeffs.append(coeffs[cover] * f)
    keys, coeffs = _merge_terms(_pack(np.concatenate(new_perms)),
                                np.concatenate(new_coeffs))
    return _unpack(keys), coeffs


def _schubert_product(forms):
    """The product of the linear forms (tuples of x-indices, each the sum
    of its x_v) in the Schubert basis of H*(Fl_9): (perms, coeffs) as
    _times_linear_form returns them, starting from S_id = 1."""
    perms = np.arange(9, dtype=np.int8)[None, :]
    coeffs = np.ones(1, dtype=np.int64)
    for form in forms:
        perms, coeffs = _times_linear_form(perms, coeffs, form)
    return perms, coeffs


def _divided_difference(keys, coeffs, i):
    """d = (f - s f) / (u - v) on packed y-exponents, where u, v are the
    variables at the 0-based positions i, i + 1 and s swaps them:
    u^a v^b maps to sign(a - b) (u v)^min(a, b) times the |a - b|
    monomials of degree |a - b| - 1 in u, v."""
    s0, s1 = _PERM_BITS * i, _PERM_BITS * (i + 1)
    a = (keys >> s0) & _PERM_MASK
    b = (keys >> s1) & _PERM_MASK
    keep = a != b
    keys, coeffs, a, b = keys[keep], coeffs[keep], a[keep], b[keep]
    n = np.abs(a - b)
    _check_l1(np.abs(coeffs).astype(np.float64) @ n)
    rest = np.repeat(keys - (a << s0) - (b << s1), n)
    low = np.repeat(np.minimum(a, b), n)
    k = np.arange(len(rest)) - np.repeat(np.cumsum(n) - n, n)
    top = np.repeat(n, n) - 1 - k
    signed = np.repeat(np.where(a > b, coeffs, -coeffs), n)
    return _merge_terms(rest + ((low + top) << s0) + ((low + k) << s1),
                        signed)


def _schubert_polynomial(perm, cache):
    """S_perm as (packed y-exponents, coefficients): d_i of S_{perm s_i}
    at the first ascent i of perm, down from S_w0 = y_1^8 y_2^7 ... y_8
    (memoized in cache, which holds w0)."""
    if perm not in cache:
        i = next(j for j in range(8) if perm[j] < perm[j + 1])
        up = list(perm)
        up[i], up[i + 1] = up[i + 1], up[i]
        cache[perm] = _divided_difference(
            *_schubert_polynomial(tuple(up), cache), i)
    return cache[perm]


def _schubert_expand(perms, coeffs) -> dict:
    """sum_w c_w S_w as {x-exponent tuple: int}: the normal form modulo
    the symmetric ideal, equal to what reduce_mod_symmetric returns.

    The classes are already normal forms.  S_w0 = y^delta with
    delta = (8, 7, ..., 0) is a staircase monomial (a_r <= 9 - r), and
    d_i keeps the staircase: it takes y_i^a y_{i+1}^b to monomials whose
    y_i- and y_{i+1}-exponents are at most max(a, b) - 1 <= 8 - i, the
    bound of y_{i+1}, and touches no other variable.  Since S_w =
    d_i S_{w s_i} whenever l(w s_i) = l(w) + 1, every S_w of S_9 is a
    combination of staircase monomials, which are the standard monomials
    of the lex basis of reduce_mod_symmetric.  A combination of standard
    monomials is its own normal form, so sum c_w S_w is the normal form of
    anything congruent to it.
    """
    if not len(coeffs):
        return {}
    w0 = tuple(range(8, -1, -1))
    # y^delta has the exponent vector (8, 7, ..., 0), the one-line w0
    cache = {w0: (_pack(np.array([w0])), np.ones(1, dtype=np.int64))}
    parts = [_schubert_polynomial(tuple(w), cache)
             for w in perms.tolist()]
    _check_l1(sum(abs(c) * np.abs(p[1]).sum(dtype=np.float64)
                  for c, p in zip(coeffs.tolist(), parts)))
    keys, coeffs = _merge_terms(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] * c for c, p in zip(coeffs.tolist(), parts)]))
    exps = _unpack(keys)[:, ::-1]       # y_r -> x_{10-r}
    return dict(zip(map(tuple, exps.tolist()), coeffs.tolist()))


def chern_top_class():
    """The product of the 31 linear forms x_i + x_j + x_k over the condition
    monomials, reduced modulo the symmetric ideal; returns
    (coefficient, exponent_vector) of the single surviving monomial.

    The product is taken in the Schubert basis by Monk's rule
    (_times_linear_form, at most 548 classes a step) and the classes left
    at degree 31 are expanded by five divided differences each
    (_schubert_expand): no monomial reduction.  The product comes out as
    81 S_w for the dominant w with code (8, 6, 6, 3, 3, 3, 1, 1, 0), whose
    Schubert polynomial is the one monomial y^code.  reduce_mod_symmetric
    stays the independent route."""
    poly = _schubert_expand(*_schubert_product(FLAG_MONOMIALS))
    if len(poly) != 1:
        raise Disagreement("top-class reduction left %d monomials" % len(poly))
    (exps, coeff), = poly.items()
    return coeff, exps
