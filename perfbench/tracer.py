"""Tracing from outside the program.

The tracer replaces module attributes and class methods of the program with
wrappers while a traced pass runs, and puts the originals back afterwards.
Nothing under ``src/`` is edited.  Span wrappers record calls, busy time and
self time (busy time minus the time of traced calls made inside); counting
wrappers on the field element classes record exact operation counts and are
installed in a pass of their own, so they inflate no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from trivector import scan

# (span name, module under trivector, attribute path)
SPANS = (
    ("scan.build_skew", "scan", "FieldKernel.build_skew"),
    ("scan.batched_rank", "scan", "FieldKernel.batched_rank"),
    ("loci.rank_locus_codes", "loci", "rank_locus_codes"),
    ("loci.cubic_of_Y", "loci", "cubic_of_Y"),
    ("loci.batch_eval", "loci", "batch_eval"),
    ("stability.destabilizer_search", "stability", "destabilizer_search"),
    ("stability.curve_is_smooth", "stability", "curve_is_smooth"),
    ("stability.anchored_witness_search", "stability",
     "anchored_witness_search"),
    ("stability.destabilizes", "stability", "destabilizes"),
    ("stability.witness_verify", "stability", "witness_verify"),
    ("linalg.Matrix.rref", "linalg", "Matrix.rref"),
    ("linalg.kernel_matrix", "linalg", "kernel_matrix"),
    ("linalg.is_semisimple", "linalg", "is_semisimple"),
    ("flags.flag_search", "flags", "flag_search"),
    ("flags.flags_at_point", "flags", "flags_at_point"),
    ("flags.flag_compatible", "flags", "flag_compatible"),
    ("flags.chern_top_class", "flags", "chern_top_class"),
    ("flags.reduce_mod_symmetric", "flags", "reduce_mod_symmetric"),
    ("e8.restricted_power", "e8", "restricted_power"),
    ("e8.cube_class", "e8", "cube_class"),
    ("e8.three_rank", "e8", "three_rank"),
    ("e8.bracket", "e8", "bracket"),
    ("e8.pairing_gl", "e8", "pairing_gl"),
)

# field kind -> element class; op -> method
COUNTED_CLASSES = (("prime", "PFElement"), ("ext", "ExtElement"))
COUNTED_OPS = (("add", "__add__"), ("mul", "__mul__"), ("inv", "inv"))

JOB_KINDS = ("count_q3", "count_q4", "count_q4_t2", "ylocus_q4", "search_f2",
             "anchored_f4", "flags_q3", "three_rank", "jacobi", "chern")

# (name, unit, better): every metric a traced run reports.
PER_LAYER = (
    [("job.%s_s" % k, "s", "lower") for k in JOB_KINDS]
    + [("scan.%s.points_per_s.%s" % (op, kind), "1/s", "higher")
       for op in ("build_skew", "batched_rank") for kind in ("prime", "table")]
    + [("scan.build_skew.s", "s", "lower"),
       ("scan.batched_rank.s", "s", "lower"),
       ("scan.field_kernel.s", "s", "lower"),
       ("loci.rank_locus_codes.calls", "count", "lower"),
       ("loci.rank_locus_codes.s", "s", "lower"),
       ("loci.rank_locus_codes.self_s", "s", "lower"),
       ("loci.rank_locus_codes.points", "count", "lower"),
       ("loci.kept_frac", "ratio", "lower"),
       ("loci.cubic_of_Y.s", "s", "lower"),
       ("loci.batch_eval.s", "s", "lower"),
       ("loci.parallel_efficiency", "ratio", "higher"),
       ("loci.max_block_frac", "ratio", "lower"),
       ("stability.destabilizer_search.s", "s", "lower"),
       ("stability.destabilizer_search.subspaces", "count", "lower"),
       ("stability.destabilizer_search.subspaces_per_s", "1/s", "higher"),
       ("stability.curve_is_smooth.calls", "count", "lower"),
       ("stability.curve_is_smooth.s", "s", "lower"),
       ("stability.anchored_witness_search.calls", "count", "lower"),
       ("stability.anchored_witness_search.s", "s", "lower"),
       ("stability.anchored_witness_search.self_s", "s", "lower"),
       ("stability.anchored_witness_search.candidates", "count", "lower"),
       ("stability.anchored_witness_search.hit_ratio", "ratio", "higher"),
       ("stability.destabilizes.calls", "count", "lower"),
       ("stability.destabilizes.s", "s", "lower"),
       ("stability.witness_verify.calls", "count", "lower"),
       ("stability.witness_verify.s", "s", "lower"),
       ("linalg.Matrix.rref.calls", "count", "lower"),
       ("linalg.Matrix.rref.s", "s", "lower"),
       ("linalg.kernel_matrix.calls", "count", "lower"),
       ("linalg.kernel_matrix.s", "s", "lower"),
       ("flags.flag_search.s", "s", "lower"),
       ("flags.flag_search.self_s", "s", "lower"),
       ("flags.flags_at_point.calls", "count", "lower"),
       ("flags.flags_at_point.s", "s", "lower"),
       ("flags.flags_at_point.hit_ratio", "ratio", "higher"),
       ("flags.flag_compatible.calls", "count", "lower"),
       ("flags.flag_compatible.s", "s", "lower"),
       ("flags.chern_top_class.s", "s", "lower"),
       ("flags.reduce_mod_symmetric.calls", "count", "lower"),
       ("flags.reduce_mod_symmetric.s", "s", "lower"),
       ("e8.restricted_power.calls", "count", "lower"),
       ("e8.restricted_power.s", "s", "lower"),
       ("e8.cube_class.calls", "count", "lower"),
       ("e8.cube_class.s", "s", "lower"),
       ("e8.three_rank.s", "s", "lower"),
       ("linalg.is_semisimple.s", "s", "lower"),
       ("e8.bracket.calls", "count", "lower"),
       ("e8.bracket.s", "s", "lower"),
       ("e8.pairing_gl.calls", "count", "lower"),
       ("e8.pairing_gl.s", "s", "lower")]
    + [("fields.%s.%s.calls" % (kind, op), "count", "lower")
       for kind, _ in COUNTED_CLASSES for op, _ in COUNTED_OPS]
    + [("trace.overhead", "ratio", "lower")]
)


class Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls, self.s, self.self_s = 0, 0.0, 0.0


def program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "trivector"
                                  or name.startswith("trivector."))]


def _max_block_frac(q):
    """Largest lead block of the parallel scan (lead 0: q^8 points) as a
    share of P^8(F_q)."""
    return q ** 8 / scan.projective_count(q)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(int)
        self.recording = True
        self._stack = []          # [span name, seconds of traced children]
        self._patches = []        # (owner, attribute, original)
        self._notes = {
            "scan.build_skew": self._note_scan,
            "scan.batched_rank": self._note_scan,
            "loci.rank_locus_codes": self._note_locus,
            "stability.destabilizer_search": self._note_destabilizer,
            "stability.anchored_witness_search": self._note_hit,
            "flags.flags_at_point": self._note_hit,
            "linalg.Matrix.rref": self._note_rref,
        }

    # -- installing and removing wrappers ---------------------------------
    def install_spans(self):
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, n=name: self._span(n, fn))

    def install_counters(self):
        for kind, cls in COUNTED_CLASSES:
            for op, method in COUNTED_OPS:
                key = "fields.%s.%s.calls" % (kind, op)
                self._patch("fields", "%s.%s" % (cls, method),
                            lambda fn, k=key: self._counter(k, fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Calls made inside are neither timed nor counted."""
        prev, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = prev

    def _patch(self, module, path, make):
        mod = sys.modules["trivector." + module]
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(mod, owner_path)
            orig = owner.__dict__[attr]
            setattr(owner, attr, make(orig))
            self._patches.append((owner, attr, orig))
            return
        # a function is bound in every module that imported it by name
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for m in program_modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._patches.append((m, key, orig))

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        stack, stats, note = self._stack, self.stats, self._notes.get(name)
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.s += dur
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                note(name, bound.arguments, result, parent, dur)
            return result
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if self.recording:
                counts[key] += 1
            return fn(*args)
        return wrapper

    # -- counters recorded at span boundaries -------------------------------
    def _note_scan(self, name, a, result, parent, dur):
        kind = "prime" if a["self"].prime else "table"
        n = (a["points"] if name == "scan.build_skew" else a["mats"]).shape[0]
        self.counts["%s.points.%s" % (name, kind)] += n
        self.counts["%s.s.%s" % (name, kind)] += dur

    def _note_locus(self, name, a, result, parent, dur):
        report, codes = result[1], result[2]
        self.counts["loci.points"] += report.total()
        if a["max_rank"] is not None:
            self.counts["loci.collect_points"] += report.total()
            self.counts["loci.kept"] += codes.shape[0]
        if a["threads"] > 1:
            self.counts["loci.max_block_frac"] = max(
                self.counts["loci.max_block_frac"], _max_block_frac(report.q))

    def _note_destabilizer(self, name, a, result, parent, dur):
        self.counts["stability.subspaces"] += result.subspaces_checked

    def _note_hit(self, name, a, result, parent, dur):
        self.counts[name + ".hits"] += 1 if result else 0

    def _note_rref(self, name, a, result, parent, dur):
        # each rank-6 point anchored_witness_search tries costs one direct rref
        if parent == "stability.anchored_witness_search":
            self.counts["stability.anchored_witness_search.candidates"] += 1


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: Tracer, counter: Tracer, untraced, traced,
                  field_kernel_s: float) -> dict:
    """Per-layer metrics (name -> value) from the span tracer of the traced
    pass, the counting tracer of the counting pass, and the untraced pass."""
    st, c = spans.stats, spans.counts
    out = {"job.%s_s" % k: untraced.kind_s.get(k, 0.0) for k in JOB_KINDS}
    for op in ("build_skew", "batched_rank"):
        for kind in ("prime", "table"):
            out["scan.%s.points_per_s.%s" % (op, kind)] = _ratio(
                c["scan.%s.points.%s" % (op, kind)],
                c["scan.%s.s.%s" % (op, kind)])
    for name in ("scan.build_skew", "scan.batched_rank", "loci.cubic_of_Y",
                 "loci.batch_eval", "stability.destabilizer_search",
                 "flags.chern_top_class", "e8.three_rank",
                 "linalg.is_semisimple"):
        out[name + ".s"] = st[name].s
    for name in ("loci.rank_locus_codes", "stability.curve_is_smooth",
                 "stability.anchored_witness_search", "stability.destabilizes",
                 "stability.witness_verify", "linalg.Matrix.rref",
                 "linalg.kernel_matrix", "flags.flags_at_point",
                 "flags.flag_compatible", "flags.reduce_mod_symmetric",
                 "e8.restricted_power", "e8.cube_class", "e8.bracket",
                 "e8.pairing_gl"):
        out[name + ".calls"] = st[name].calls
        out[name + ".s"] = st[name].s
    for name in ("loci.rank_locus_codes", "stability.anchored_witness_search",
                 "flags.flag_search"):
        out[name + ".self_s"] = st[name].self_s
    out["flags.flag_search.s"] = st["flags.flag_search"].s
    out["scan.field_kernel.s"] = field_kernel_s
    out["loci.rank_locus_codes.points"] = c["loci.points"]
    out["loci.kept_frac"] = _ratio(c["loci.kept"], c["loci.collect_points"])
    out["loci.parallel_efficiency"] = _ratio(
        untraced.kind_s.get("count_q4", 0.0),
        2 * untraced.kind_s.get("count_q4_t2", 0.0))
    out["loci.max_block_frac"] = c["loci.max_block_frac"]
    out["stability.destabilizer_search.subspaces"] = c["stability.subspaces"]
    out["stability.destabilizer_search.subspaces_per_s"] = _ratio(
        c["stability.subspaces"], st["stability.destabilizer_search"].s)
    aws = "stability.anchored_witness_search"
    out[aws + ".candidates"] = c[aws + ".candidates"]
    out[aws + ".hit_ratio"] = _ratio(c[aws + ".hits"], c[aws + ".candidates"])
    out["flags.flags_at_point.hit_ratio"] = _ratio(
        c["flags.flags_at_point.hits"], st["flags.flags_at_point"].calls)
    for kind, _ in COUNTED_CLASSES:
        for op, _ in COUNTED_OPS:
            key = "fields.%s.%s.calls" % (kind, op)
            out[key] = counter.counts[key]
    out["trace.overhead"] = _ratio(traced.wall_s, untraced.wall_s)
    return out
