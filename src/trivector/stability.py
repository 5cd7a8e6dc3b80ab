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

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded, Disagreement, UnsupportedField
from .fields import GF, Field, RationalField
from .linalg import Matrix, kernel_matrix
from .polys import Poly, embed_map, extension_of, element_degree
from .trivector import (CURVE_DEGREES, GAMMA_BASE_TERMS, GAMMA_C_TERMS,
                        CurveCoeffs, Trivector, build_gamma_c, gl_act,
                        phi_at)

__all__ = [
    "StabilityVerdict", "destabilizer_search", "witness_verify",
    "curve_is_smooth", "singular_point_search", "stability_verdict_gamma_c",
    "gamma_family_scan_f2", "gaussian_binomial", "echelon_matrices",
    "double_contract", "destabilizes", "rational_stability_report",
    "DEFAULT_SUBSPACE_BUDGET",
]

DEFAULT_SUBSPACE_BUDGET = 2_000_000


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def echelon_matrices(field: Field, k: int, n: int):
    """All reduced-echelon k x n matrices over a finite field.

    Pivot-column patterns run in colexicographic order and free entries run in
    the field's element order, so the enumeration is deterministic and
    partitionable by pattern.
    """
    elements = list(field.elements())
    zero, one = field.zero, field.one
    for pivots in sorted(itertools.combinations(range(n), k),
                         key=lambda t: t[::-1]):
        free = [[c for c in range(n) if c > pivots[r] and c not in pivots]
                for r in range(k)]
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
    the span of the first six vectors and inspect coefficients directly."""
    field = t.field
    vectors = [list(r) for r in u.rows]
    basis = Matrix(field, vectors)
    for i in range(9):
        cand = [field.zero] * 9
        cand[i] = field.one
        trial = Matrix(field, basis.rows + [cand])
        if trial.rank() > basis.nrows:
            basis = trial
        if basis.nrows == 9:
            break
    g = basis.transpose()  # columns are the adapted basis vectors
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


def _single_scan_f2(t: Trivector, pattern_indices=None):
    """Bit-level witness scan for one trivector over F_2; returns annihilator
    row bits (alpha, beta, delta) and the number of subspaces checked.

    Restricting to a subset of pivot patterns makes the scan partitionable;
    the first hit within a pattern is deterministic, so a parallel driver can
    merge by lowest pattern index."""
    table = [[0] * 9 for _ in range(9)]
    for (i, j, k) in t.coeffs:
        for a, b, other in ((i, j, k), (i, k, j), (j, k, i)):
            table[a - 1][b - 1] ^= 1 << (other - 1)
            table[b - 1][a - 1] ^= 1 << (other - 1)

    def pair(alpha, beta):
        out = 0
        a = alpha
        while a:
            la = a & -a
            row = table[la.bit_length() - 1]
            b = beta
            while b:
                lb = b & -b
                out ^= row[lb.bit_length() - 1]
                b ^= lb
            a ^= la
        return out

    checked = 0
    patterns = sorted(itertools.combinations(range(9), 3),
                      key=lambda p: p[::-1])
    indices = (range(len(patterns)) if pattern_indices is None
               else pattern_indices)
    for global_idx in indices:
        pivots = patterns[global_idx]
        free = [[c for c in range(9) if c > pivots[r] and c not in pivots]
                for r in range(3)]
        f0, f1, f2b = free
        p0, p1, p2 = (1 << pivots[r] for r in range(3))
        local = 0
        for bits0 in range(1 << len(f0)):
            alpha = p0
            for idx, col in enumerate(f0):
                if bits0 >> idx & 1:
                    alpha |= 1 << col
            r_alpha = [pair(alpha, 1 << col) for col in f2b]
            for bits1 in range(1 << len(f1)):
                beta = p1
                for idx, col in enumerate(f1):
                    if bits1 >> idx & 1:
                        beta |= 1 << col
                if pair(alpha, beta):
                    checked += 1 << len(f2b)
                    local += 1 << len(f2b)
                    continue
                r_beta = [pair(beta, 1 << col) for col in f2b]
                v02 = pair(alpha, p2)
                v12 = pair(beta, p2)
                delta = p2
                gray_prev = 0
                for step in range(1 << len(f2b)):
                    gray = step ^ (step >> 1)
                    flip = gray ^ gray_prev
                    if flip:
                        idx = flip.bit_length() - 1
                        delta ^= 1 << f2b[idx]
                        v02 ^= r_alpha[idx]
                        v12 ^= r_beta[idx]
                    gray_prev = gray
                    checked += 1
                    local += 1
                    if not v02 and not v12:
                        return (alpha, beta, delta), checked, (global_idx, local)
    return None, checked, None


def _scan_f2_single_worker(args):
    triples, pattern_indices = args
    f2 = GF(2)
    t = Trivector(f2, {trip: f2.one for trip in triples})
    return _single_scan_f2(t, pattern_indices)


def _parallel_single_scan_f2(t: Trivector, threads: int):
    """Pattern-partitioned parallel witness scan; the merge takes the hit
    with the lowest (pattern, step) enumeration index, so the result is
    identical to the sequential scan regardless of thread count."""
    import multiprocessing as mp
    triples = tuple(sorted(t.coeffs))
    chunks = [list(range(i, 84, threads)) for i in range(threads)]
    with mp.Pool(threads) as pool:
        parts = pool.map(_scan_f2_single_worker, [(triples, ch) for ch in chunks])
    hits = [(pos, hit) for hit, _, pos in parts if hit is not None]
    checked = sum(n for _, n, _ in parts)
    if not hits:
        return None, checked, None
    pos, hit = min(hits)
    # report the sequential enumeration index so the verdict is independent
    # of the thread count
    patterns = sorted(itertools.combinations(range(9), 3),
                      key=lambda p: p[::-1])
    checked = pos[1]
    for gi in range(pos[0]):
        pivots = patterns[gi]
        nfree = sum(1 for r in range(3) for c in range(9)
                    if c > pivots[r] and c not in pivots)
        checked += 1 << nfree
    return hit, checked, pos


def destabilizer_search(t: Trivector, max_ext_degree: int = 1,
                        budget: int = DEFAULT_SUBSPACE_BUDGET,
                        threads: int = 1) -> StabilityVerdict:
    """Search extensions of the base field for a destabilizing 6-plane.

    "stable" only certifies absence of a witness up to the searched bound;
    for the normal-form family the smoothness test upgrades it.
    """
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
            if threads > 1:
                hit, n, _ = _parallel_single_scan_f2(t_ext, threads)
            else:
                hit, n, _ = _single_scan_f2(t_ext)
            checked += n
            if hit is not None:
                u = _witness_rows_to_u(ext, hit)
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

def _curve_xz_parts(c: CurveCoeffs):
    """F = x^2 + A(z) x + B(z); returns (A, B) as univariate polys in z."""
    f = c.field
    a = Poly(f, [c[15], c[9], c[3]])
    b = Poly(f, [c[30], c[24], c[18], c[12], c[6], f.one])
    return a, b


def curve_is_smooth(c: CurveCoeffs, max_ext_degree: int | None = None) -> bool:
    """Whether the affine normal-form curve is smooth over the algebraic
    closure.  The gcd formulation is complete, so no extension bound enters;
    the parameter is kept for oracle cross-checks against point search.
    The point at infinity of the normal form is smooth by convention.
    """
    f = c.field
    a, b = _curve_xz_parts(c)
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


def singular_points_of_curve(c: CurveCoeffs, max_ext_degree: int):
    """Singular affine points of the normal-form curve via the generic
    polynomial-system search; the enumeration oracle for curve_is_smooth."""
    f = c.field
    F = c.curve_poly()
    fx = F.derivative(0)
    fz = F.derivative(1)
    return singular_point_search([F, fx, fz], f, max_ext_degree)


_BRUTE_POINT_BUDGET = 1 << 22


def singular_point_search(system, base_field: Field, max_ext_degree: int):
    """Common zeros of a polynomial system in <= 3 variables over all
    extensions of degree <= max_ext_degree.

    Elimination by bivariate resultants with brute-force enumeration as the
    fallback for degenerate resultants; every solution is tagged with its
    minimal field of definition.  Returns a list of (coords, degree) pairs
    with coordinates in the degree-d extension.
    """
    if isinstance(base_field, RationalField):
        raise UnsupportedField("zero search over extensions needs a finite field")
    if max_ext_degree < 1:
        raise ValueError("max_ext_degree must be >= 1")
    system = [p for p in system if not p.is_zero()]
    nvars = system[0].nvars if system else 0
    if any(p.nvars != nvars for p in system):
        raise ValueError("mixed variable counts")
    if nvars > 3:
        raise ValueError("at most 3 variables supported")
    if not system:
        raise ValueError("empty system (everything vanishes)")

    if nvars == 1:
        return _search_univariate(system, base_field, max_ext_degree)
    if nvars == 2:
        return _search_bivariate(system, base_field, max_ext_degree)
    return _search_brute(system, base_field, max_ext_degree)


def _min_degree_of_point(coords, base_field, ext):
    return math.lcm(*(element_degree(x, base_field) for x in coords))


def _search_univariate(system, base, bound):
    from .polys import roots_in_field
    g = system[0].as_univariate(0)
    for p in system[1:]:
        g = g.gcd(p.as_univariate(0))
    if g.is_zero():
        return _search_brute(system, base, bound)
    out = []
    for d in range(1, bound + 1):
        ext = extension_of(base, d)
        emb = embed_map(base, ext)
        ge = Poly(ext, [emb(c) for c in g.coeffs])
        for r in roots_in_field(ge):
            if element_degree(r, base) == d:
                out.append(((r,), d))
    return out


def _search_bivariate(system, base, bound):
    from .polys import Poly as _P, bivariate_resultant, roots_in_field
    # polynomials without the eliminated variable constrain z directly;
    # pairwise resultants only make sense between x-positive ones
    pure, posx = [], []
    for p in system:
        if all(e[0] == 0 for e in p.terms):
            pure.append(_P(base, [
                dict((e[1], c) for e, c in p.terms.items()).get(d, base.zero)
                for d in range(max(e[1] for e in p.terms) + 1)]))
        else:
            posx.append(p)
    res = None
    for g in pure:
        res = g if res is None else res.gcd(g)
    for i in range(len(posx)):
        for j in range(i + 1, len(posx)):
            r = bivariate_resultant(posx[i], posx[j], elim=0)
            if r.is_zero():
                continue
            res = r if res is None else res.gcd(r)
    if res is None or res.deg < 0:
        return _search_brute(system, base, bound)
    out = []
    for d in range(1, bound + 1):
        ext = extension_of(base, d)
        emb = embed_map(base, ext)
        res_e = Poly(ext, [emb(c) for c in res.coeffs])
        sys_e = [p.map_coeffs(ext, emb) for p in system]
        for z0 in roots_in_field(res_e):
            g = None
            for p in sys_e:
                sub = p.substitute(1, z0).as_univariate(0)
                g = sub if g is None else g.gcd(sub)
                if g.deg == 0:
                    break
            if g is None or g.deg == 0:
                continue
            if g.is_zero():
                # the whole x-line sits in the zero set; enumerate it
                for x0 in ext.elements():
                    yield_pt = (x0, z0)
                    dd = _min_degree_of_point(yield_pt, base, ext)
                    if dd == d:
                        out.append((yield_pt, d))
                continue
            for x0 in roots_in_field(g):
                pt = (x0, z0)
                dd = _min_degree_of_point(pt, base, ext)
                if dd == d:
                    out.append((pt, d))
    return _dedupe_points(out)


def _search_brute(system, base, bound):
    nvars = system[0].nvars
    out = []
    for d in range(1, bound + 1):
        ext = extension_of(base, d)
        if ext.order ** nvars > _BRUTE_POINT_BUDGET:
            raise BudgetExceeded("brute-force zero search over %r^%d refused"
                                 % (ext, nvars), count=ext.order ** nvars)
        emb = embed_map(base, ext)
        sys_e = [p.map_coeffs(ext, emb) for p in system]
        for coords in itertools.product(ext.elements(), repeat=nvars):
            if all(p(coords).is_zero() for p in sys_e):
                if _min_degree_of_point(coords, base, ext) == d:
                    out.append((coords, d))
    return _dedupe_points(out)


def _dedupe_points(points):
    seen = set()
    out = []
    for coords, d in points:
        key = (d,) + tuple(repr(x) for x in coords)
        if key not in seen:
            seen.add(key)
            out.append((coords, d))
    return out


# ---------------------------------------------------------------------------
# the batched degree-1 witness scan for the whole F_2 coefficient family

def _pair_table_f2(terms_by_gen):
    """P[a][b][g]: 9-bit image of the double contraction of generator g by
    (e_a*, e_b*); everything over F_2 so signs drop out."""
    table = [[[0] * len(terms_by_gen) for _ in range(9)] for _ in range(9)]
    for g, terms in enumerate(terms_by_gen):
        for (i, j, k) in terms:
            for a, b, other in ((i, j, k), (i, k, j), (j, k, i)):
                table[a - 1][b - 1][g] ^= 1 << (other - 1)
                table[b - 1][a - 1][g] ^= 1 << (other - 1)
    return table


def _pair_contract_bits(table, alpha_bits, beta_bits, ngens):
    out = [0] * ngens
    a = alpha_bits
    while a:
        la = a & -a
        ia = la.bit_length() - 1
        row = table[ia]
        b = beta_bits
        while b:
            lb = b & -b
            ib = lb.bit_length() - 1
            cell = row[ib]
            for g in range(ngens):
                out[g] ^= cell[g]
            b ^= lb
        a ^= la
    return out


def _solve_f2_family(vecs):
    """All c in [0,256) with vecs[0] ^ xor(vecs[i] for set bits i-1) == 0."""
    basis = {}
    kernel = []
    for i in range(1, 9):
        v, m = vecs[i], 1 << (i - 1)
        while v:
            low = v & -v
            if low in basis:
                bv, bm = basis[low]
                v ^= bv
                m ^= bm
            else:
                basis[low] = (v, m)
                break
        if v == 0:
            kernel.append(m)
    r, m0 = vecs[0], 0
    while r:
        low = r & -r
        if low not in basis:
            return []
        bv, bm = basis[low]
        r ^= bv
        m0 ^= bm
    sols = [m0]
    for km in kernel:
        sols += [s ^ km for s in sols]
    return sols


def gamma_family_scan_f2(collect_witnesses=True, pivot_patterns=None):
    """One pass over the 788,035 subspaces of Gr(6,9)(F_2) deciding, for all
    256 coefficient vectors at once, which normal-form trivectors have a
    degree-1 destabilizing 6-plane.

    Returns (destabilized_mask_by_c, witness_by_c, subspaces_checked) where
    witness_by_c maps the 8-bit coefficient code of each destabilized c to the
    annihilator rows (three 9-bit ints) of the first witness found.
    """
    gens = [GAMMA_BASE_TERMS] + [(GAMMA_C_TERMS[d][1],) for d in CURVE_DEGREES]
    ngens = 9
    table = _pair_table_f2(gens)
    found = [False] * 256
    witness = {}
    checked = 0
    patterns = sorted(itertools.combinations(range(9), 3),
                      key=lambda t: t[::-1])
    if pivot_patterns is not None:
        patterns = [patterns[i] for i in pivot_patterns]
    for pivots in patterns:
        free = [[c for c in range(9) if c > pivots[r] and c not in pivots]
                for r in range(3)]
        f0, f1, f2 = free
        p0, p1, p2 = (1 << pivots[r] for r in range(3))
        for bits0 in range(1 << len(f0)):
            alpha = p0
            for idx, col in enumerate(f0):
                if bits0 >> idx & 1:
                    alpha |= 1 << col
            # per-free-column increments for the two moving pairs
            r_alpha = [_pair_contract_bits(table, alpha, 1 << col, ngens)
                       for col in f2]
            for bits1 in range(1 << len(f1)):
                beta = p1
                for idx, col in enumerate(f1):
                    if bits1 >> idx & 1:
                        beta |= 1 << col
                v01 = _pair_contract_bits(table, alpha, beta, ngens)
                r_beta = [_pair_contract_bits(table, beta, 1 << col, ngens)
                          for col in f2]
                v02 = _pair_contract_bits(table, alpha, p2, ngens)
                v12 = _pair_contract_bits(table, beta, p2, ngens)
                delta = p2
                gray_prev = 0
                for step in range(1 << len(f2)):
                    gray = step ^ (step >> 1)
                    flip = gray ^ gray_prev
                    if flip:
                        idx = flip.bit_length() - 1
                        delta ^= 1 << f2[idx]
                        ra, rb = r_alpha[idx], r_beta[idx]
                        for g in range(ngens):
                            v02[g] ^= ra[g]
                            v12[g] ^= rb[g]
                    gray_prev = gray
                    checked += 1
                    vecs = [v01[g] | v02[g] << 9 | v12[g] << 18
                            for g in range(ngens)]
                    for cmask in _solve_f2_family(vecs):
                        if not found[cmask]:
                            found[cmask] = True
                            if collect_witnesses:
                                witness[cmask] = (alpha, beta, delta)
    return found, witness, checked


def _witness_rows_to_u(field, rows_bits):
    rows = [[field.one if bits >> c & 1 else field.zero for c in range(9)]
            for bits in rows_bits]
    return kernel_matrix(Matrix(field, rows))


_ANCHOR_CHUNK = 1024


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

    The rank-6 points are tested in lexicographic order, 1024 at a time, in
    coded arithmetic; the first hit is rebuilt and checked through the
    object route (phi_at, rref, kernel_matrix, destabilizes) and then
    witness_verify, so the result is the image of the first rank-6 point
    that passes.

    Returns a verified 6x9 witness over the extension, or None.
    """
    from .loci import _structure_tensor_codes, rank_locus_codes
    base = t.field
    ext = extension_of(base, ext_degree)
    emb = embed_map(base, ext)
    te = t.map_coeffs(ext, emb) if ext_degree > 1 else t
    kern, report, codes, ranks = rank_locus_codes(te, max_rank=6,
                                                  budget=point_budget)
    candidates = codes[ranks == 6]
    tensor = _structure_tensor_codes(te, kern)
    for start in range(0, candidates.shape[0], _ANCHOR_CHUNK):
        chunk = candidates[start:start + _ANCHOR_CHUNK]
        hits = np.nonzero(_anchored_hits(kern, chunk, tensor))[0]
        if hits.size:
            break
    else:
        return None
    red, piv = phi_at(te, [kern.decode(c) for c in chunk[hits[0]]]).rref()
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


def stability_family_report_f2(threads: int = 1):
    """Criterion-grade sweep: all 256 coefficient vectors over F_2, one shared
    Grassmannian pass for the searches plus per-c smoothness; returns
    (reports, subspaces_checked)."""
    f2 = GF(2)
    if threads > 1:
        found, witness, checked = _scan_f2_parallel(threads)
    else:
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


def _scan_f2_parallel(threads: int):
    import multiprocessing as mp
    chunks = [list(range(i, 84, threads)) for i in range(threads)]
    with mp.Pool(threads) as pool:
        parts = pool.map(_scan_chunk, chunks)
    found = [False] * 256
    witness = {}
    checked = 0
    for f, w, n in parts:
        checked += n
        for cmask in range(256):
            if f[cmask] and not found[cmask]:
                found[cmask] = True
                witness[cmask] = w[cmask]
    return found, witness, checked


def _scan_chunk(pattern_indices):
    return gamma_family_scan_f2(pivot_patterns=pattern_indices)


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
