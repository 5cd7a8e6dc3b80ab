"""Rank strata of the skew pencil over finite fields, the cubic hypersurface
through the rank <= 6 locus (in closed form as a Pfaffian, and interpolated
from a scan as the second route), genus-2 point counts and Jacobian orders,
the explicit curve embedding certificate, and reconstruction of a trivector
from its pencil.

The P^8 scan sieves by the Pfaffian cubic C and its gradient: points where
C is nonzero have rank 8, zeros of C where some partial of C is nonzero have
rank 6, and only the singular points of C go through elimination.

The coded pencil is the structure tensor codes[a, b, v], the coefficient
of x_v in entry (a, b) of phi(x): one gather of t's signed codes
[t, -t, 0] through a field-independent (9, 9, 9) index table built from
trivector.CONTRACTION_SLOTS (_pencil_gather), and phi(x) at a batch of
coded points is the one coded product scan.FieldKernel.build_skew."""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceeded, CertificateFailure,
                     DegenerateConfiguration, Disagreement, KernelDimNotOne,
                     SingularCurve, WeilViolation)
from .fields import Field
from .linalg import Matrix, check_skew, rank_and_kernel
from .polys import MultiPoly, Poly, embed_map, extension_of, roots_in_field
from .scan import (field_kernel, projective_count, projective_run,
                   projective_runs)
from .stability import curve_is_smooth
from .trivector import (CONTRACTION_SLOTS, TRIPLES, CurveCoeffs, Trivector,
                        build_gamma_c, pencil_slots, phi_at)

__all__ = [
    "RankLocusReport", "enumerate_rank_locus", "rank_locus_codes",
    "iter_rank_locus",
    "batch_eval", "CubicForm", "cubic_of_Y", "interpolate_cubic",
    "pfaffian_cubic", "DEGREE3_EXPONENTS",
    "jacobian_order_from_counts", "curve_point_counts", "curve_affine_points",
    "verify_curve_embedding", "embedding_point", "embedding_kernel_rows",
    "reconstruct_from_pencil", "pencil_basis",
    "DEFAULT_POINT_BUDGET", "isqrt_weil_bound", "EmbeddingCertificate",
]

DEFAULT_POINT_BUDGET = 250_000_000   # nominally allows q = 11
DEFAULT_POINT_CAP = 300_000
# points per run of the streaming scan: a run costs a fixed number of
# numpy calls (the box pass walks the tree of C's terms once), so the
# larger the run the less a scan pays for Python; at 2^16 every lead block
# over F_2-F_4 is one run
DEFAULT_SCAN_CHUNK = 1 << 16
# matrices per build_skew + batched_rank call, so a run whose points all
# reach elimination (C identically zero) keeps its temporaries small
_ELIMINATION_BATCH = 1 << 12


@dataclass
class RankLocusReport:
    q: int
    counts: dict
    elapsed: float

    def total(self):
        return sum(self.counts.values())

    def count_le(self, r):
        return sum(v for k, v in self.counts.items() if k <= r)

    def to_json(self):
        return {"q": self.q,
                "counts": {str(k): v for k, v in sorted(self.counts.items())},
                "elapsed_s": round(self.elapsed, 3)}


@functools.cache
def _pencil_gather():
    """The field-independent (9, 9, 9) index table of the pencil: entry
    (a, b, v) is the position, in t's signed codes (_signed_codes), of the
    coefficient of x_v in entry (a, b) of phi(x).  Slot (a, b, v, sign) of
    triple n (CONTRACTION_SLOTS) puts n at (T[a], T[b], T[v]) and n + 84
    at (T[b], T[a], T[v]), the other way round when sign < 0; every other
    entry is 168, the zero.  The triples are strictly sorted, so no entry
    is written twice."""
    out = np.full((9, 9, 9), 2 * len(TRIPLES), dtype=np.int16)
    for n, trip in enumerate(TRIPLES):
        for a, b, v, sign in CONTRACTION_SLOTS:
            i, j, k = trip[a] - 1, trip[b] - 1, trip[v] - 1
            out[i, j, k] = n + len(TRIPLES) * (sign < 0)
            out[j, i, k] = n + len(TRIPLES) * (sign > 0)
    out.flags.writeable = False
    return out


def _signed_codes(kern, codes):
    """(..., 84) codes of trivectors followed by their negatives and a zero,
    (..., 169) in the kernel's dtype: the array that the gather tables of
    the pencil (_pencil_gather) and of the wedge with t (e8._wedge_gather)
    index."""
    zero = np.zeros(codes.shape[:-1] + (1,), kern.dtype)
    return np.concatenate([codes, kern.neg(codes), zero], axis=-1,
                          dtype=kern.dtype)


def _trivector_codes(t: Trivector, kern):
    """The (84,) codes of t's coefficients in TRIPLES order."""
    return np.array([kern.encode(c) for c in t.to_vector()], dtype=kern.dtype)


def _structure_tensor_codes(t: Trivector, kern):
    """codes[a, b, v] is the code of the coefficient of x_v in entry (a, b)
    of the pencil: one gather of t's signed codes through _pencil_gather."""
    return _signed_codes(kern, _trivector_codes(t, kern))[_pencil_gather()]


def pfaffian_cubic(t: Trivector) -> MultiPoly:
    """The cubic C(x) = Pf(phi(x) without row and column 1) / x_1.

    phi(x) is skew with x in its kernel, so its signed principal 8x8
    Pfaffians are C(x) * x, in every characteristic:
    Pf_i(phi(x)) = (-1)^(i+1) C(x) x_i.  Hence rank phi(x) = 8 exactly when
    C(x) != 0, and C vanishes on the rank <= 6 locus.  C is identically zero
    when every point has rank <= 6 (e.g. the zero trivector).

    Pf_1 is expanded along the first row, memoized on the remaining index
    sets, over sparse {exponent: element} dicts: entry (a, b), a < b, of
    phi(x) is the linear form {v: +-t[abv]} (each triple of t owns three
    such slots, trivector.pencil_slots), and an exponent vector is packed
    into one int, 3 bits per variable (no exponent of a quartic exceeds 4),
    so multiplying a term by x_v adds 8^v to its key.  The same route
    serves every field, Q too."""
    field = t.field
    forms = {}
    for a, b, v, c in pencil_slots(t):
        forms.setdefault((a - 1, b - 1), {})[8 ** (v - 1)] = c
    memo = {(): {0: field.one}}

    def pf(idx):
        acc = memo.get(idx)
        if acc is not None:
            return acc
        acc = {}
        for pos in range(1, len(idx)):
            form = forms.get((idx[0], idx[pos]))
            if form is None:
                continue
            rest = pf(idx[1:pos] + idx[pos + 1:])
            for step, a in form.items():
                if not pos % 2:
                    a = -a
                for e, c in rest.items():
                    s = acc.get(e + step)
                    acc[e + step] = a * c if s is None else s + a * c
        acc = memo[idx] = {e: c for e, c in acc.items() if not c.is_zero()}
        return acc

    terms = {}
    for e, c in pf(tuple(range(1, 9))).items():
        if not e & 7:
            raise Disagreement("Pf_1 of the pencil is not divisible by x_1")
        terms[tuple((e - 1) >> 3 * v & 7 for v in range(9))] = c
    return MultiPoly(field, 9, terms)


class _RunScanner:
    """The run scanner of the P^8 scan: the ranks of one run of canonical
    points, a product box (head, lo, hi) of scan.projective_runs.

    Built once per scan from the Pfaffian cubic C itself (a MultiPoly,
    pfaffian_cubic), so the power table of the field is built, C coded and
    its nonzero partials compiled (_compile), once.
    The sieve has two stages:

    - C(x) != 0: rank 8 (see pfaffian_cubic);
    - C(x) = 0 and some partial d_j C(x) != 0: rank 6.  Each entry m_ab
      occurs at most once in each term of a Pfaffian, so formally, in every
      characteristic, dPf/dm_ab = +-Pf of the principal block without rows
      and columns a, b.  At a point of rank <= 4 every 6x6 principal
      Pfaffian vanishes, hence so does d_j(C x_i) = x_i d_j C + [i = j] C
      for all i, j; with C(x) = 0 and the lead coordinate 1, d_j C(x) = 0.

    One _box_eval pass gives C and its partial d_s C along the run's
    ranged variable s = len(head) at every point of the run.  Only the
    zeros of C where d_s C vanishes too get coordinates (projective_run
    at their positions) and meet the other partials, each evaluated
    (_compiled_eval) on the points no earlier partial has marked: over
    F_4 about a quarter of the zeros of C of a smooth curve (5,893 of
    23,365 on one).  What is left, the singular points of C (all points
    when C is identically zero; 6-32 points on five smooth F_4 curves),
    goes through build_skew + batched_rank in slices of at most
    _ELIMINATION_BATCH matrices, and it is where the witness engine of
    stability.py reads its candidates.
    Called on a run (head, lo, hi), it returns (codes, ranks, hist): the
    run's points of rank <= max_rank (none when max_rank is None; the
    elimination set when `singular`) with their ranks, in lexicographic
    order, and the rank histogram (length 9) of the whole run.  The
    coordinates of the other points are never built."""

    def __init__(self, kern, tensor, cubic, max_rank, singular=False):
        self.kern = kern
        self.tensor = tensor
        self.cubic_codes = [(e, kern.encode(c))
                            for e, c in cubic.terms.items()]
        self.partials = [(j, _compile(kern, d))
                         for j, d in enumerate(map(cubic.derivative, range(9)))
                         if not d.is_zero()]
        self.powers = _power_table(self.kern, 3)
        self.max_rank = max_rank
        self.singular = singular

    def __call__(self, run):
        kern = self.kern
        values, slope = _box_eval(kern, self.cubic_codes, run, self.powers)
        ranks = np.full(values.size, 8, dtype=np.int64)
        low = np.flatnonzero(values == 0)
        ranks[low] = 6
        low = low[slope[low] == 0]
        pts = projective_run(kern.q, *run, low)
        ranged = len(run[0])
        for j, partial in self.partials:
            if not low.size:
                break
            if j != ranged:
                keep = _compiled_eval(kern, partial, pts) == 0
                low, pts = low[keep], pts[keep]
        if low.size:
            low_ranks = np.concatenate([
                kern.batched_rank(kern.build_skew(
                    pts[a:a + _ELIMINATION_BATCH], self.tensor))
                for a in range(0, low.size, _ELIMINATION_BATCH)])
            if np.any(low_ranks == 8):
                raise Disagreement("rank 8 at a zero of the Pfaffian cubic")
            ranks[low] = low_ranks
        hist = np.bincount(ranks, minlength=9)
        if self.singular:
            return pts, ranks[low], hist
        if self.max_rank is None:
            return pts[:0], ranks[:0], hist
        keep = np.flatnonzero(ranks <= self.max_rank)
        return projective_run(kern.q, *run, keep), ranks[keep], hist


def iter_rank_locus(t: Trivector, max_rank: int | None = None,
                    chunk: int = DEFAULT_SCAN_CHUNK,
                    budget: int = DEFAULT_POINT_BUDGET, *, _singular=False):
    """Streaming scan of P^8 over t's finite field: yields (codes, ranks,
    hist) for contiguous runs of at most `chunk` canonical points, in
    lexicographic order, each run one product box (scan.projective_runs).
    codes/ranks hold the run's points of rank <= max_rank (none when
    max_rank is None) and hist the rank histogram (length 9) of all its
    points.  The private `_singular` yields the elimination set of
    _RunScanner instead, for the witness engine of stability.py.

    The chunk, field and budget checks run before any point is scanned;
    the runs are scanned in this process as the consumer asks for them."""
    if chunk < 1:
        raise ValueError("scan chunk must be at least 1 point, got %d"
                         % chunk)
    field = t.field
    if field.order is None:
        raise BudgetExceeded("rank-locus enumeration needs a finite field")
    q = field.order
    total = projective_count(q)
    if total > budget:
        raise BudgetExceeded("P^8(F_%d) has %d points (budget %d)"
                             % (q, total, budget), count=total)
    kern = field_kernel(field)
    scanner = _RunScanner(kern, _structure_tensor_codes(t, kern),
                          pfaffian_cubic(t), max_rank, _singular)
    return map(scanner, projective_runs(q, chunk))


def rank_locus_codes(t: Trivector, max_rank: int | None = None,
                     budget: int = DEFAULT_POINT_BUDGET,
                     point_cap: int = DEFAULT_POINT_CAP,
                     threads: int = 1):
    """Scan engine: returns (kern, report, codes, ranks) where codes/ranks
    hold the canonical representatives with rank <= max_rank.

    The collecting consumer of iter_rank_locus: the point cap is checked on
    the running total of the runs in lexicographic order.  `threads` is
    ignored; the scan always runs in this process."""
    t0 = time.perf_counter()
    hist = np.zeros(9, dtype=np.int64)
    kept_codes, kept_ranks = [], []
    kept = 0
    for codes, ranks, run_hist in iter_rank_locus(t, max_rank, budget=budget):
        hist += run_hist
        kept += codes.shape[0]
        if kept > point_cap:
            raise BudgetExceeded("rank-locus point list exceeds cap %d"
                                 % point_cap, count=kept)
        kept_codes.append(codes)
        kept_ranks.append(ranks)
    kern = field_kernel(t.field)
    counts = {r: int(n) for r, n in enumerate(hist) if n or r % 2 == 0}
    report = RankLocusReport(kern.q, counts, time.perf_counter() - t0)
    total = projective_count(kern.q)
    if report.total() != total:
        raise AssertionError("rank stratification lost points: %d != %d"
                             % (report.total(), total))
    if hist[1::2].any():
        raise AssertionError("odd rank in a skew pencil")
    return kern, report, np.concatenate(kept_codes), np.concatenate(kept_ranks)


def enumerate_rank_locus(t: Trivector, max_rank: int | None = None,
                         with_points: bool = False,
                         budget: int = DEFAULT_POINT_BUDGET,
                         point_cap: int = DEFAULT_POINT_CAP) -> tuple:
    """Exact rank stratification of the pencil over P^8 of t's base field.

    Returns (report, points) where points lists (coords, rank) for canonical
    representatives with rank <= max_rank (empty unless requested)."""
    kern, report, codes, ranks = rank_locus_codes(
        t, max_rank if with_points else None, budget, point_cap)
    points = []
    if with_points and max_rank is not None:
        for row, r in zip(codes, ranks):
            points.append((tuple(kern.decode(c) for c in row), int(r)))
    return report, points


def batch_eval(kern, mp: MultiPoly, codes):
    """Evaluate a sparse multivariate polynomial at coded points (N, nvars),
    in the kernel's dtype."""
    return _compiled_eval(kern, _compile(kern, mp), codes)


_BLOCK_CODES = 1 << 15   # codes per (terms x points) temporary


def _compile(kern, mp: MultiPoly):
    """(index, coeffs) of a polynomial for _term_values: row j of the
    (terms, degree) index lists the variables of term j, each as often as
    its exponent, padded with -1 (the row of ones _term_values appends),
    and coeffs holds the terms' codes.  The degree is at least 1, so a
    constant term has a slot."""
    index = np.full((len(mp.terms), max(1, mp.degree())), -1, dtype=np.intp)
    for row, e in zip(index, mp.terms):
        factors = [i for i, k in enumerate(e) for _ in range(k)]
        row[:len(factors)] = factors
    coeffs = np.array([kern.encode(c) for c in mp.terms.values()],
                      dtype=kern.dtype)
    return index, coeffs


def _term_values(kern, compiled, codes):
    """(terms, N) values of the terms of a _compile'd polynomial at coded
    points (N, nvars): one gather and one kern.mul per degree slot."""
    index, coeffs = compiled
    cols = np.empty((codes.shape[1] + 1, codes.shape[0]), dtype=kern.dtype)
    cols[:-1] = codes.T
    cols[-1] = kern.encode(kern.field.one)
    terms = coeffs[:, None]
    for slot in index.T:
        terms = kern.mul(terms, cols[slot])
    return terms


def _compiled_eval(kern, compiled, codes):
    """Values of a _compile'd polynomial at coded points (N, nvars): per
    block of points, the terms' values (_term_values) and one sum over the
    terms (in int64, then mod p, over a prime field; XOR in characteristic
    2; pairwise kern.add over the other table fields).  A block holds at
    most _BLOCK_CODES term values."""
    n, nterms = codes.shape[0], compiled[1].size
    out = np.zeros(n, dtype=kern.dtype)
    if not nterms:
        return out
    step = max(1, _BLOCK_CODES // nterms)
    for lo in range(0, n, step):
        terms = _term_values(kern, compiled, codes[lo:lo + step])
        if kern.prime:
            out[lo:lo + step] = (terms.sum(axis=0, dtype=np.int64)
                                 % kern.prime)
        elif kern.xor:
            out[lo:lo + step] = np.bitwise_xor.reduce(terms, axis=0)
        else:
            while (half := terms.shape[0] // 2) > 0:
                terms = np.concatenate([kern.add(terms[:half],
                                                 terms[half:2 * half]),
                                        terms[2 * half:]])
            out[lo:lo + step] = terms[0]
    return out


def _power_table(kern, degree):
    """powers[k][v] = v^k for every code v, k = 0..degree: the table the
    box evaluator reads all powers from."""
    values = np.arange(kern.q, dtype=kern.dtype)
    powers = [np.ones_like(values)]
    for _ in range(degree):
        powers.append(kern.mul(powers[-1], values))
    return powers


@functools.cache
def _scalar_ops(kern):
    """(mul, add) of two codes as Python ints, for the scalar work of
    _box_eval: a * b % p and (a + b) % p over a prime field, lookups in the
    field's code tables read as Python lists otherwise (a numpy scalar op
    costs about a microsecond, a list lookup a tenth of that)."""
    if kern.prime:
        p = kern.prime
        return (lambda a, b: a * b % p), (lambda a, b: (a + b) % p)
    add, mul = (table.tolist() for table in kern.field.code_tables()[:2])
    return (lambda a, b: mul[a][b]), (lambda a, b: add[a][b])


def _box_eval(kern, terms, box, powers):
    """A coded polynomial f and its partial d_s f in the ranged variable
    s = len(head) on every point of a box (head, lo, hi), a run of
    scan.projective_runs, in the box's order: returns (f, d_s f), flat.
    The terms (exponents, code) have degree at most len(powers) - 1 in
    each variable.

    The head coordinates are plugged in with Python int ops (_scalar_ops).
    The rest is evaluated one variable at a time: split by the exponent k
    of the first free variable, evaluate each part G_k on the remaining
    grid, and combine sum_k v^k G_k for all values v at once, so a point
    costs a few element ops per variable rather than a few per term.  The
    same G_k give d_s f = sum_k (k mod p) v^(k-1) G_k along the ranged
    variable."""
    head, lo, hi = box
    s = len(head)
    mul, add = _scalar_ops(kern)
    head_powers = [[int(p[x]) for p in powers] for x in head]
    free = {}
    for e, c in terms:
        for xk, k in zip(head_powers, e):
            if k:
                c = mul(c, xk[k])
        free[e[s:]] = add(free.get(e[s:], 0), c)
    parts = {}
    for e, c in free.items():
        if c:
            parts.setdefault(e[0], {})[e[1:]] = c
    shape = (hi - lo, kern.q ** (8 - s))
    value = slope = None
    for k, part in parts.items():
        g = _grid_eval(kern, part, [(0, kern.q)] * (8 - s), powers)[None, :]
        term = kern.mul(powers[k][lo:hi, None], g) if k else g
        value = term if value is None else kern.add(value, term)
        weight = kern.encode(kern.field.el(k))      # k mod p
        if weight:
            if k > 1:
                g = kern.mul(kern.mul(powers[k - 1][lo:hi, None], weight), g)
            slope = g if slope is None else kern.add(slope, g)
    return tuple(np.zeros(shape[0] * shape[1], dtype=kern.dtype)
                 if out is None else np.broadcast_to(out, shape).ravel()
                 for out in (value, slope))


def _grid_eval(kern, poly, axes, powers):
    """Values of poly, {exponents: nonzero code}, not empty, on the grid of
    value ranges axes, the first axis slowest, as a flat array."""
    if not axes:
        return np.array([poly[()]], dtype=kern.dtype)
    (lo, hi), rest = axes[0], axes[1:]
    parts = {}
    for e, c in poly.items():
        parts.setdefault(e[0], {})[e[1:]] = c
    out = None
    for k, part in parts.items():
        g = _grid_eval(kern, part, rest, powers)[None, :]
        if k:
            g = kern.mul(powers[k][lo:hi, None], g)
        out = g if out is None else kern.add(out, g)
    if out.shape[0] != hi - lo:
        out = out.repeat(hi - lo, axis=0)
    return out.ravel()


# ---------------------------------------------------------------------------
# the cubic hypersurface through the rank <= 6 locus

DEGREE3_EXPONENTS = tuple(sorted(
    (tuple(sum(1 for c in combo if c == v) for v in range(9))
     for combo in itertools.combinations_with_replacement(range(9), 3)),
    reverse=True))          # lexicographic, x1^3 first


class CubicForm:
    """Cubic in 9 variables: 165 coefficients over the degree-3 exponents,
    normalized so the lexicographically first nonzero coefficient is 1."""

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
        if not self.coeffs:
            raise ValueError("cubic form must be nonzero")

    def as_multipoly(self) -> MultiPoly:
        return MultiPoly(self.field, 9, self.coeffs)

    def partials(self):
        mp = self.as_multipoly()
        return [mp.derivative(i) for i in range(9)]

    def map_coeffs(self, target_field, fn):
        return CubicForm(target_field,
                         {e: fn(c) for e, c in self.coeffs.items()})


def _monomial_matrix(kern, codes):
    """Evaluation matrix of the 165 degree-3 monomials at coded points."""
    monomials = MultiPoly(kern.field, 9, dict.fromkeys(DEGREE3_EXPONENTS,
                                                       kern.field.one))
    values = _term_values(kern, _compile(kern, monomials), codes)
    return np.ascontiguousarray(values.T, dtype=kern.dtype)


def _normalized(cubic: CubicForm) -> CubicForm:
    """Scale so the lexicographically first coefficient is 1."""
    lead = next(e for e in DEGREE3_EXPONENTS if e in cubic.coeffs)
    inv = cubic.coeffs[lead].inv()
    return CubicForm(cubic.field,
                     {e: c * inv for e, c in cubic.coeffs.items()})


def cubic_of_Y(t: Trivector) -> CubicForm:
    """The cubic hypersurface through the rank <= 6 locus, in closed form:
    the Pfaffian cubic C = Pf_1(phi(x)) / x_1, normalized.  No scan; the
    coefficients lie in t's field.  KernelDimNotOne when C is identically
    zero (no rank-8 point anywhere, e.g. the zero trivector)."""
    cubic = pfaffian_cubic(t)
    if cubic.is_zero():
        raise KernelDimNotOne("the Pfaffian cubic vanishes identically")
    return _normalized(CubicForm(t.field, cubic.terms))


# points of the rank <= 6 locus in the first interpolation round
INTERPOLATION_SAMPLE = 400


def _interpolate_cubic_over(t: Trivector, budget):
    field = t.field
    kern, report, codes, ranks = rank_locus_codes(t, max_rank=6, budget=budget)
    if codes.shape[0] == 0:
        raise KernelDimNotOne("rank <= 6 locus is empty over F_%d" % field.order)
    # sample every stride-th point; while the kernel is larger than one
    # line, add the next offset's points, keeping only the reduced row space
    # (at most 165 rows) between rounds; all offsets together are all points
    stride = max(1, codes.shape[0] // INTERPOLATION_SAMPLE)
    nmono = len(DEGREE3_EXPONENTS)
    rows = np.zeros((0, nmono), dtype=kern.dtype)
    for offset in range(stride):
        sample = _monomial_matrix(kern, codes[offset::stride])
        rank, _, red = kern.rref(np.concatenate([rows, sample]))
        rows = red[:rank]
        if rank >= nmono - 1:
            break
    kb = kern.kernel_basis(rows)
    if kb.shape[0] != 1:
        raise KernelDimNotOne("evaluation kernel has dimension %d" % kb.shape[0])
    coeffs = {}
    for e, code in zip(DEGREE3_EXPONENTS, kb[0]):
        if code:
            coeffs[e] = kern.decode(int(code))
    cubic = _normalized(CubicForm(field, coeffs))
    values = batch_eval(kern, cubic.as_multipoly(), codes)
    if np.any(values != 0):
        raise KernelDimNotOne("interpolated cubic misses an enumerated point")
    return cubic


def interpolate_cubic(t: Trivector,
                      budget: int = DEFAULT_POINT_BUDGET) -> CubicForm:
    """Interpolate the unique cubic through the rank <= 6 locus: the second
    route to cubic_of_Y, through a scan of P^8.

    The kernel of the evaluation matrix on the 165-dimensional cubic space
    must be exactly one-dimensional.  Very small base fields cannot separate
    all cubic monomials as point functions (over F_2 the kernel picks up the
    Frobenius function identities), so the interpolation moves to a quadratic
    extension when needed; the normalized result is Galois-fixed and descends
    back to base-field coefficients.
    """
    field = t.field
    try:
        return _interpolate_cubic_over(t, budget)
    except KernelDimNotOne:
        if field.order is None or field.order > 3:
            raise
    ext = extension_of(field, 2)
    emb = embed_map(field, ext)
    cubic = _interpolate_cubic_over(t.map_coeffs(ext, emb), budget)
    down = {}
    for e, c in cubic.coeffs.items():
        match = next((b for b in field.elements() if emb(b) == c), None)
        if match is None:
            return cubic      # honest answer over the extension
        down[e] = match
    return CubicForm(field, down)


# ---------------------------------------------------------------------------
# genus-2 counts and the Jacobian order

def isqrt_weil_bound(q: int) -> int:
    """floor(4 sqrt(q)) computed exactly."""
    return math.isqrt(16 * q)


def jacobian_order_from_counts(n1: int, n2: int, q: int) -> int:
    """Order of the Jacobian of a genus-2 curve from its point counts over
    F_q and F_{q^2}, through the standard L-polynomial normalization."""
    e1 = q + 1 - n1
    p2 = q * q + 1 - n2
    if abs(e1) > isqrt_weil_bound(q):
        raise WeilViolation("|q+1-N1| = %d exceeds 4*sqrt(q)" % abs(e1))
    if abs(p2) > 4 * q:
        raise WeilViolation("|q^2+1-N2| = %d exceeds 4q" % abs(p2))
    if (e1 * e1 - p2) % 2 != 0:
        raise WeilViolation("parity of the power sums is impossible")
    e2 = (e1 * e1 - p2) // 2
    order = 1 - e1 + e2 - q * e1 + q * q
    if order <= 0:
        raise WeilViolation("computed Jacobian order %d is not positive" % order)
    return order


def _quadratic_root_count(field, a, b):
    """Number of roots of x^2 + a x + b over the (finite) field."""
    if field.char == 2:
        if a.is_zero():
            return 1          # Frobenius is bijective
        # 2 roots iff Tr(b / a^2) = 0
        u = b * (a * a).inv()
        tr = u
        cur = u
        m = field.order.bit_length() - 1
        for _ in range(m - 1):
            cur = cur * cur
            tr = tr + cur
        return 2 if tr.is_zero() else 0
    disc = a * a - field.el(4) * b
    if disc.is_zero():
        return 1
    chi = disc ** ((field.order - 1) // 2)
    return 2 if chi == field.one else 0


def curve_point_counts(c: CurveCoeffs, degrees,
                       check_smooth: bool = True) -> dict:
    """N_d = 1 + #affine points over the degree-d extension (the point at
    infinity of the normal form counts once)."""
    if check_smooth and not curve_is_smooth(c):
        raise SingularCurve("point counts require a smooth curve")
    base = c.field
    out = {}
    for d in degrees:
        ext = extension_of(base, d)
        emb = embed_map(base, ext)
        az, bz = c.map_coeffs(ext, emb).xz_parts()
        n = 1
        for z in ext.elements():
            n += _quadratic_root_count(ext, az(z), bz(z))
        out[d] = n
    return out


def curve_affine_points(c: CurveCoeffs):
    """All affine points (x, z) over the base field."""
    field = c.field
    az, bz = c.xz_parts()
    pts = []
    for z in field.elements():
        quad = Poly(field, [bz(z), az(z), field.one])
        for x in roots_in_field(quad):
            pts.append((x, z))
    return pts


# ---------------------------------------------------------------------------
# the explicit embedding and its kernel certificate

def embedding_point(field, x, z):
    """f(x, z) = [0 : 0 : -1 : 0 : z : 0 : -z^2 : x : z^3] in P(V9*)."""
    zero = field.zero
    return [zero, zero, -field.one, zero, z, zero, -(z * z), x, z * z * z]


def embedding_kernel_rows(c: CurveCoeffs, x, z):
    """The five covectors that must annihilate the pencil at f(x, z)."""
    f = c.field
    one, zero = f.one, f.zero
    z2 = z * z
    return [
        [one, zero, zero, z2, x, -(c[12] * z) - c[18], zero,
         -(c[9] * x) - c[24], zero],
        [zero, one, c[3], -z, zero, -z2 - (c[6] * z), -x - c[15],
         -(c[3] * x), zero],
        [zero, zero, one, zero, -z, zero, z2, -x, zero],
        [zero, zero, zero, zero, zero, one, zero, -z, zero],
        [zero, zero, zero, zero, zero, zero, zero, zero, one],
    ]


@dataclass
class EmbeddingCertificate:
    q: int
    points_checked: int
    ranks: dict
    weierstrass_rank: int

    def to_json(self):
        return {"q": self.q, "points_checked": self.points_checked,
                "weierstrass_rank": self.weierstrass_rank}


def verify_curve_embedding(c: CurveCoeffs) -> EmbeddingCertificate:
    """Checks, at every affine point of the curve: the pencil at the embedded
    point has rank <= 4 and all five kernel rows annihilate it; plus the
    rank <= 4 membership of the Weierstrass point at infinity."""
    field = c.field
    if not curve_is_smooth(c):
        raise SingularCurve("embedding certificate requires a smooth curve")
    t = build_gamma_c(c)
    ranks = {}
    pts = curve_affine_points(c)
    for (x, z) in pts:
        m = phi_at(t, embedding_point(field, x, z))
        r = m.rank()
        if r > 4:
            raise CertificateFailure("rank %d > 4 at point (%r, %r)" % (r, x, z))
        ranks[r] = ranks.get(r, 0) + 1
        for ridx, row in enumerate(embedding_kernel_rows(c, x, z)):
            if any(not v.is_zero() for v in m.apply(row)):
                raise CertificateFailure(
                    "kernel row %d fails at point (%r, %r)" % (ridx + 1, x, z))
    pinf = [field.zero] * 8 + [field.one]
    rinf = phi_at(t, pinf).rank()
    if rinf > 4:
        raise CertificateFailure("Weierstrass point at infinity has rank %d"
                                 % rinf)
    return EmbeddingCertificate(field.order, len(pts), ranks, rinf)


# ---------------------------------------------------------------------------
# recovering the trivector from its pencil of bilinear forms

def pencil_basis(t: Trivector):
    """The nine skew matrices phi_at(t, e_k*): the bilinear-form space."""
    field = t.field
    out = []
    for k in range(9):
        x = [field.zero] * 9
        x[k] = field.one
        out.append(phi_at(t, x))
    return out


def _independent(mats):
    field = mats[0].field
    flat = Matrix(field, [[m.rows[i][j] for i in range(9) for j in range(9)]
                          for m in mats])
    return flat.rank() == len(mats)


def _combo(mats, coeffs):
    """sum_k coeffs[k] * mats[k]."""
    acc = Matrix.zero(mats[0].field, 9, 9)
    for a, m in zip(coeffs, mats):
        if not a.is_zero():
            acc = acc + m.scale(a)
    return acc


def reconstruct_from_pencil(w_mats) -> Trivector:
    """Rebuild a trivector from a basis w_1..w_9 of its space W of bilinear
    forms, by one linear solve.

    A trivector s has its pencil inside W exactly when phi_s(e_j*) = M_j =
    sum_k A_kj w_k for a 9 x 9 matrix A whose tensor T_ijl = (M_j)_il is
    alternating; then s[abc] = (M_c)_ab.  The w_k are alternating, so T is
    alternating in (i, l) already and the rest is linear in A: T_ijj = 0
    puts column j of A in the kernel of N_j[i][k] = (w_k)_ij, and
    T_ijl + T_ilj = 0 for j < l gives 324 equations in the coordinates of
    those kernels.  Their solutions must form one line.  Its basis vector
    from rank_and_kernel (last nonzero coordinate one) is the result, so
    w = pencil_basis(t) gives A = identity and t itself; any other basis of
    t's W gives a multiple of t.  Certified: phi_at(s, e_j*) = M_j for every
    j, and the pencil of s spans all of W.
    """
    if len(w_mats) != 9:
        raise ValueError("need exactly 9 matrices")
    field = w_mats[0].field
    for m in w_mats:
        if m.nrows != 9 or m.ncols != 9:
            raise ValueError("matrices must be 9x9")
        check_skew(m)
    if not _independent(w_mats):
        raise DegenerateConfiguration("the nine matrices are not independent")
    # the unknowns: (j, sum_k b_k w_k) for each kernel vector b of N_j
    cols = []
    for j in range(9):
        n_j = Matrix(field, [[w.rows[i][j] for w in w_mats] for i in range(9)])
        cols.extend((j, _combo(w_mats, b)) for b in rank_and_kernel(n_j)[1])
    zero = field.zero
    system = [[m.rows[i][l] if c == j else m.rows[i][j] if c == l else zero
               for c, m in cols]
              for j, l in itertools.combinations(range(9), 2)
              for i in range(9)]
    sol = rank_and_kernel(Matrix(field, system))[1]
    if len(sol) != 1:
        raise DegenerateConfiguration(
            "the trivectors with pencil inside the span form a space of "
            "dimension %d, not 1" % len(sol))
    m_cols = [Matrix.zero(field, 9, 9) for _ in range(9)]
    for x, (j, m) in zip(sol[0], cols):
        m_cols[j] = m_cols[j] + m.scale(x)
    out = Trivector(field, {(a, b, c): m_cols[c - 1].rows[a - 1][b - 1]
                            for a, b, c in itertools.combinations(range(1, 10), 3)
                            if not m_cols[c - 1].rows[a - 1][b - 1].is_zero()})
    if pencil_basis(out) != m_cols:
        raise Disagreement("the solved contractions are not those of the "
                           "rebuilt trivector")
    if not _independent(m_cols):
        raise DegenerateConfiguration(
            "the rebuilt trivector's pencil does not span the input")
    return out
