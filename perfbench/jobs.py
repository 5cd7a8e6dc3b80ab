"""Seeded inputs, job kinds, second-route checks and the output digest.

Every call into the program goes through a module attribute
(``loci.rank_locus_codes``, not a name imported from it), so the tracing
wrappers installed by ``tracer.py`` see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trivector import e8, fields, flags, linalg, loci, scan, stability
from trivector import trivector as tv

CHERN_EXPECTED = (81, (0, 1, 1, 3, 3, 3, 6, 6, 8))
MAX_WEIGHTED_FLAGS = 81

# Job counts per kind and per pass, by workload; they do not depend on the
# seed.
JOB_COUNTS = {
    "locus-scan": {"count_q3": 4, "count_q4": 2, "count_q4_t2": 2,
                   "ylocus_q4": 2},
    "anchored-search": {"search_f2": 8, "anchored_f4": 3, "flags_q3": 4},
    "algebra": {"three_rank": 4, "jacobi": 30, "chern": 1},
}

# ylocus_q4 and anchored_f4 draw one input from each cost class recorded in
# pool.json (see make_pool.py), so every pass does the same work.
POOL = Path(__file__).resolve().parent / "pool.json"
ANCHORED_F4_CLASSES = 3
# search_f2 draws this many curves from each setup class of F_2 curves.
SEARCH_F2_CLASSES = {"smooth": 4, "rational_singular": 4}
# flags_q3 cost grows with the number of rank-4 points, which equals the
# Jacobian order (the Lang cross-check), so each job fixes that order and
# the seed picks the curve: inputs vary, work per job does not.
FLAGS_Q3_JACOBIAN_ORDERS = (8, 10, 8, 10)
# three_rank jobs: (k of GF(3^k), coefficient-side 3-rank), one job each.
THREE_RANK_STRATA = ((1, 2), (1, 1), (2, 2), (2, 1))

# (p, k) of every GF(p^k) whose scan kernel set-up builds, by workload
WORKLOAD_FIELDS = {
    "locus-scan": ((3, 1), (2, 2)),
    "anchored-search": ((2, 1), (2, 2), (3, 1)),
    "algebra": ((3, 1), (3, 2)),
}


class CheckFailed(Exception):
    """A job's output disagrees with its second route."""


@dataclass
class Job:
    kind: str
    arg: object
    expect: object = None


@dataclass
class Bench:
    jobs: list
    field_kernel_s: float


@dataclass
class PassResult:
    wall_s: float
    kind_s: dict
    kind_n: dict
    failures: list
    digest: str

    @property
    def attempted(self):
        return sum(self.kind_n.values())


# ---------------------------------------------------------------------------
# seeded inputs

def _random_curve(field, rng, degrees=tv.CURVE_DEGREES):
    return tv.CurveCoeffs(field, {d: field.random(rng) for d in degrees})


def _smooth_curves(field, n, rng):
    out = []
    while len(out) < n:
        c = _random_curve(field, rng)
        if stability.curve_is_smooth(c):
            out.append(c)
    return out


def _ylocus_curves(rng, pool):
    """One smooth F_4 curve for each path cubic_of_Y can take."""
    field = fields.parse_field(pool["field"])
    return [tv.CurveCoeffs.from_list(field, [field.from_int(v)
                                             for v in rng.choice(pool[path])])
            for path in ("sample", "full")]


def _anchored_curves(rng, ranked, curves):
    """One curve from each third of the degree-2-singular F_2 curves ordered
    by the rank-6 candidates the anchored search tries on them."""
    by_coeffs = {tuple(v.val for v in c.as_list()): c for c in curves}
    if sorted(by_coeffs) != sorted(tuple(v) for v, _ in ranked):
        raise ValueError("pool.json does not match the degree-2 class")
    n, k = len(ranked), ANCHORED_F4_CLASSES
    picks = [rng.choice(ranked[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return [by_coeffs[tuple(coeffs)] for coeffs, _ in picks]


def _jacobian_order(c):
    nd = loci.curve_point_counts(c, [1, 2], check_smooth=False)
    return loci.jacobian_order_from_counts(nd[1], nd[2], c.field.order)


def classify_f2_curves():
    """The 256 normal-form curves over F_2 by class: smooth, with an
    F_2-rational singular point, or singular only at degree-2 points."""
    f2 = fields.GF(2)
    classes = {"smooth": [], "rational_singular": [], "degree2_singular": []}
    for bits in range(256):
        c = tv.CurveCoeffs.from_list(
            f2, [f2.el(bits >> i & 1) for i in range(8)])
        if stability.curve_is_smooth(c):
            classes["smooth"].append(c)
        elif stability.singular_points_of_curve(c, 1):
            classes["rational_singular"].append(c)
        else:
            classes["degree2_singular"].append(c)
    return classes


def _weierstrass_curve(field, rank, rng):
    """A smooth Weierstrass curve (c3 = c6 = c9 = c15 = 0) whose
    coefficient-side 3-rank is `rank`."""
    while True:
        c = _random_curve(field, rng, (12, 18, 24, 30))
        coeff_rank = 2 if not c[24].is_zero() else (
            1 if not c[18].is_zero() else 0)
        if coeff_rank == rank and stability.curve_is_smooth(c):
            return c


def _random_e8_element(field, rng):
    d0 = linalg.Matrix.zero(field, 9, 9)
    for _ in range(5):
        d0.rows[rng.randrange(9)][rng.randrange(9)] = field.random(rng)
    d1 = tv.Trivector(field, {tv.TRIPLES[rng.randrange(84)]: field.random(rng)
                              for _ in range(5)})
    d2 = e8.Wedge6(field, {tv.TRIPLES[rng.randrange(84)]: field.random(rng)
                           for _ in range(5)})
    return e8.GradedE8Element(field, d0, d1, d2)


def _locus_scan_jobs(rng, pool):
    counts = JOB_COUNTS["locus-scan"]
    q3 = _smooth_curves(fields.GF(3), counts["count_q3"], rng)
    q4 = _smooth_curves(fields.GF(2, 2), counts["count_q4"], rng)
    y4 = _ylocus_curves(rng, pool["ylocus_q4"])
    return ([Job("count_q3", c) for c in q3]
            + [Job("count_q4", c) for c in q4]
            + [Job("count_q4_t2", c) for c in q4]
            + [Job("ylocus_q4", c) for c in y4])


def _anchored_search_jobs(rng, pool):
    classes = classify_f2_curves()
    jobs = []
    for cls, n in SEARCH_F2_CLASSES.items():
        jobs += [Job("search_f2", c, cls) for c in rng.sample(classes[cls], n)]
    jobs += [Job("anchored_f4", c, "degree2_singular")
             for c in _anchored_curves(rng, pool["anchored_f4"],
                                       classes["degree2_singular"])]
    f3 = fields.GF(3)
    for order in FLAGS_Q3_JACOBIAN_ORDERS:
        while True:
            c = _random_curve(f3, rng)
            if stability.curve_is_smooth(c) and _jacobian_order(c) == order:
                break
        jobs.append(Job("flags_q3", c))
    return jobs


def _algebra_jobs(rng, pool):
    jobs = [Job("three_rank", _weierstrass_curve(fields.GF(3, k), rank, rng),
                rank)
            for k, rank in THREE_RANK_STRATA]
    f3 = fields.GF(3)
    for _ in range(JOB_COUNTS["algebra"]["jacobi"]):
        jobs.append(Job("jacobi", tuple(_random_e8_element(f3, rng)
                                        for _ in range(3))))
    jobs.append(Job("chern", None, CHERN_EXPECTED))
    return jobs


_JOB_LISTS = {"locus-scan": _locus_scan_jobs,
              "anchored-search": _anchored_search_jobs,
              "algebra": _algebra_jobs}


def setup(workload: str, seed: int) -> Bench:
    """Seeded inputs, their classification, and the scan kernels of every
    field the workload uses (built here so no job pays for them)."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _JOB_LISTS[workload](rng, json.loads(POOL.read_text()))
    t0 = time.perf_counter()
    for p, k in WORKLOAD_FIELDS[workload]:
        scan.field_kernel(fields.GF(p, k))
    return Bench(jobs, time.perf_counter() - t0)


def input_fingerprint(jobs) -> str:
    """Hash of the generated inputs (coefficients and job kinds)."""
    def enc(arg):
        if isinstance(arg, tv.CurveCoeffs):
            return [arg.field.spec_str(), [repr(v) for v in arg.as_list()]]
        if isinstance(arg, tuple):
            return [repr(x.deg0) + repr(x.deg1) + repr(x.deg2) for x in arg]
        return None
    blob = json.dumps([[j.kind, enc(j.arg)] for j in jobs])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# job kinds: run (timed) and check against a second route (untimed)

def _run_count(c, threads=1):
    _, report, _, _ = loci.rank_locus_codes(tv.build_gamma_c(c),
                                            threads=threads)
    return report


def _check_count(job, report):
    c = job.arg
    q = c.field.order
    if report.total() != scan.projective_count(q):
        raise CheckFailed("scan covered %d of %d points"
                          % (report.total(), scan.projective_count(q)))
    if report.counts.get(0, 0) or report.counts.get(2, 0):
        raise CheckFailed("rank <= 2 point on a smooth curve")
    order = _jacobian_order(c)
    if report.count_le(4) != order:
        raise CheckFailed("rank <= 4 count %d != Jacobian order %d"
                          % (report.count_le(4), order))
    return {"hist": sorted(report.counts.items()), "jacobian": order}


def _run_ylocus(c):
    t = tv.build_gamma_c(c)
    cubic = loci.cubic_of_Y(t)
    kern, report, codes, ranks = loci.rank_locus_codes(t, max_rank=6)
    values = loci.batch_eval(kern, cubic.as_multipoly(), codes)
    partials_zero = np.ones(codes.shape[0], dtype=bool)
    for p in cubic.partials():
        partials_zero &= loci.batch_eval(kern, p, codes) == 0
    return cubic, report, ranks, values, partials_zero


def _check_ylocus(job, out):
    cubic, report, ranks, values, partials_zero = out
    field = job.arg.field
    if cubic.field != field:
        raise CheckFailed("cubic left the base field")
    if np.any(values != 0):
        raise CheckFailed("cubic misses a kept rank <= 6 point")
    if not bool((partials_zero == (ranks <= 4)).all()):
        raise CheckFailed("partials do not cut out the rank-4 points")
    return {"hist": sorted(report.counts.items()),
            "kept": int(ranks.shape[0]), "rank4": int((ranks <= 4).sum()),
            "cubic": sorted([list(e), field.to_int(v)]
                            for e, v in cubic.coeffs.items())}


def _check_verdict(job, report):
    smooth = job.expect == "smooth"
    verdict = report.verdict
    if (verdict.status == "stable") != smooth:
        raise CheckFailed("verdict %s for a %s curve"
                          % (verdict.status, job.expect))
    degree = 1 if job.expect != "degree2_singular" else 2
    if verdict.searched_ext_degree != degree:
        raise CheckFailed("witness degree %d, class predicts %d"
                          % (verdict.searched_ext_degree, degree))
    return {"status": verdict.status, "degree": degree}


def _run_flags(c):
    t = tv.build_gamma_c(c)
    return t, flags.flag_search(t)


def _check_flags(job, out):
    t, report = out
    if report.weighted_count > MAX_WEIGHTED_FLAGS:
        raise CheckFailed("weighted flag count %d" % report.weighted_count)
    for flag, _ in report.flags:
        if not flags.flag_compatible(t, flag).compatible:
            raise CheckFailed("returned flag is not compatible")
    return {"weighted": report.weighted_count,
            "flags": sorted([list(f.key()), d] for f, d in report.flags)}


def _check_three_rank(job, report):
    if report.lie_rank != report.coeff_rank:
        raise CheckFailed("Lie-side rank %d, coefficient-side rank %d"
                          % (report.lie_rank, report.coeff_rank))
    if report.coeff_rank != job.expect:
        raise CheckFailed("curve drawn for rank %d has rank %d"
                          % (job.expect, report.coeff_rank))
    return {"field": job.arg.field.spec_str(), "rank": report.lie_rank,
            "residue": repr(report.scalar_residue)}


def _run_jacobi(triple):
    x, y, z = triple
    b = e8.bracket
    return b(b(x, y), z) + b(b(y, z), x) + b(b(z, x), y)


def _check_jacobi(job, j):
    if not j.is_zero():
        raise CheckFailed("Jacobi sum is not zero")
    return {"zero": True}


def _check_chern(job, result):
    if tuple(result) != job.expect:
        raise CheckFailed("chern_top_class gave %r" % (result,))
    return [result[0], list(result[1])]


# kind -> (run, check); the lambdas look the program's function up at call
# time, so a tracing wrapper installed later is the one called
KINDS = {
    "count_q3": (_run_count, _check_count),
    "count_q4": (_run_count, _check_count),
    "count_q4_t2": (lambda c: _run_count(c, threads=2), _check_count),
    "ylocus_q4": (_run_ylocus, _check_ylocus),
    "search_f2": (lambda c: stability.stability_verdict_gamma_c(c),
                  _check_verdict),
    "anchored_f4": (lambda c: stability.stability_verdict_gamma_c(c),
                    _check_verdict),
    "flags_q3": (_run_flags, _check_flags),
    "three_rank": (lambda c: e8.three_rank(c), _check_three_rank),
    "jacobi": (_run_jacobi, _check_jacobi),
    "chern": (lambda _: flags.chern_top_class(), _check_chern),
}


def run_pass(jobs, quiet=nullcontext, log=None) -> PassResult:
    """Run every job once, back to back (a closed loop with one client).

    Only the job itself is timed; its check runs inside `quiet()` so a
    tracer can leave it out.  A job that raises or fails its check is
    recorded and the pass goes on."""
    kind_s, kind_n, failures, invariants = {}, {}, [], []
    start = time.perf_counter()
    for job in jobs:
        run, check = KINDS[job.kind]
        kind_n[job.kind] = kind_n.get(job.kind, 0) + 1
        kind_s.setdefault(job.kind, 0.0)
        try:
            t0 = time.perf_counter()
            out = run(job.arg)
            kind_s[job.kind] += time.perf_counter() - t0
            with quiet():
                inv = check(job, out)
        except Exception as exc:   # a failing job is counted, not fatal
            failures.append((job.kind, "%s: %s" % (type(exc).__name__, exc)))
            if log is not None:
                log(traceback.format_exc())
            inv = "FAILED"
        invariants.append([job.kind, inv])
    wall = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(invariants).encode()).hexdigest()[:16]
    return PassResult(wall, kind_s, kind_n, failures, digest)
