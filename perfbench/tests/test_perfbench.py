"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jobs
import run
import tracer
from trivector import e8, fields, linalg, scan

BENCH = Path(__file__).resolve().parent.parent
PATCHED_CLASSES = (scan.FieldKernel, linalg.Matrix, fields.PFElement,
                   fields.ExtElement)


def small_jobs():
    """A cheap job list that still reaches scan, loci, stability, linalg, e8
    and both field kinds."""
    locus = jobs.setup("locus-scan", 3).jobs
    anchored = jobs.setup("anchored-search", 3).jobs
    algebra = jobs.setup("algebra", 3).jobs
    return ([next(j for j in locus if j.kind == "count_q3")]
            + [j for j in anchored if j.kind == "search_f2"
               and j.expect == "rational_singular"][:2]
            + [j for j in algebra if j.kind == "jacobi"][:2]
            + [next(j for j in algebra if j.kind == "three_rank"
                    and j.arg.field.order == 9)])


def bindings():
    out = {}
    for m in tracer.program_modules():
        out.update({(m.__name__, k): v for k, v in vars(m).items()})
    for cls in PATCHED_CLASSES:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracing_leaves_outputs_and_program_unchanged():
    js = small_jobs()
    before = bindings()
    plain = jobs.run_pass(js)

    spans = tracer.Tracer()
    spans.install_spans()
    try:
        traced = jobs.run_pass(js, quiet=spans.paused)
    finally:
        spans.uninstall()
    counter = tracer.Tracer()
    counter.install_counters()
    try:
        counted = jobs.run_pass(js, quiet=counter.paused)
    finally:
        counter.uninstall()

    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert not plain.failures
    assert plain.digest == traced.digest == counted.digest
    assert spans.stats["loci.rank_locus_codes"].calls == 1
    assert spans.stats["scan.build_skew"].calls > 0
    assert spans.stats["e8.bracket"].calls == 2 * 6 + 248
    assert counter.counts["fields.prime.mul.calls"] > 0
    assert counter.counts["fields.ext.mul.calls"] > 0

    again = tracer.Tracer()
    again.install_counters()
    try:
        jobs.run_pass(js, quiet=again.paused)
    finally:
        again.uninstall()
    assert again.counts == counter.counts


def test_wrong_expectation_and_exception_are_counted(monkeypatch):
    js = small_jobs()
    monkeypatch.setattr(scan, "projective_count", lambda q, dim=9: 0)

    def broken(x, y):
        raise ArithmeticError("injected")
    monkeypatch.setattr(e8, "bracket", broken)
    result = jobs.run_pass(js)
    # three_rank brackets too (the adjoint matrix), so it fails as well
    assert sorted(kind for kind, _ in result.failures) == [
        "count_q3", "jacobi", "jacobi", "three_rank"]
    assert result.attempted == len(js)
    assert "CheckFailed" in result.failures[0][1]


def test_seed_changes_inputs_not_job_counts():
    for workload in run.WORKLOADS:
        one, two = jobs.setup(workload, 1), jobs.setup(workload, 2)
        assert (jobs.input_fingerprint(one.jobs)
                != jobs.input_fingerprint(two.jobs))
        assert (jobs.input_fingerprint(one.jobs)
                == jobs.input_fingerprint(jobs.setup(workload, 1).jobs))
        for bench in (one, two):
            counts = {}
            for j in bench.jobs:
                counts[j.kind] = counts.get(j.kind, 0) + 1
            assert counts == jobs.JOB_COUNTS[workload]


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert ([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
            == list(jobs.JOB_COUNTS))
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracer.PER_LAYER))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
