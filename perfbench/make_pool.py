"""Regenerate pool.json, the inputs whose cost class only a long run shows.

    python3 perfbench/make_pool.py > perfbench/pool.json

Two job kinds cost very different amounts on different inputs, for reasons
that set-up cannot see cheaply.  Each pass draws one input per class, so the
work per pass stays the same while the seed still picks the inputs.

- ylocus_q4: cubic_of_Y interpolates from about 400 sampled rank <= 6 points
  and falls back to all of them (about 23,000) when the sample leaves more
  than one cubic; the fallback costs several times more.  Smooth F_4 curves
  are classified by the path taken.
- anchored_f4: anchored_witness_search tries rank-6 points until one gives a
  witness; the number tried ranges from about 590 to 800 over the 16 F_2
  curves that are singular only at degree-2 points.  The curves are listed
  with that count, in increasing order.

Takes a few minutes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import jobs  # noqa: E402
import tracer  # noqa: E402
from trivector import fields, loci, stability  # noqa: E402
from trivector import trivector as tv  # noqa: E402

PER_CLASS = 12


def interpolation_path(c):
    """'sample' or 'full', following loci._interpolate_cubic_over."""
    t = tv.build_gamma_c(c)
    kern, _, codes, _ = loci.rank_locus_codes(t, max_rank=6)
    stride = max(1, codes.shape[0] // 400)
    rows = loci._monomial_matrix(kern, codes[::stride])
    return "sample" if kern.kernel_basis(rows).shape[0] == 1 else "full"


def f4_curves_by_path():
    f4 = fields.GF(2, 2)
    rng = random.Random("pool_f4")
    pool = {"sample": [], "full": []}
    while min(len(v) for v in pool.values()) < PER_CLASS:
        c = tv.CurveCoeffs(f4, {d: f4.random(rng) for d in tv.CURVE_DEGREES})
        if not stability.curve_is_smooth(c):
            continue
        path = interpolation_path(c)
        if len(pool[path]) < PER_CLASS:
            pool[path].append([f4.to_int(v) for v in c.as_list()])
    return {"field": f4.spec_str(), **pool}


def anchored_candidates(c):
    """Rank-6 points anchored_witness_search tries on the curve c."""
    spans = tracer.Tracer()
    spans.install_spans()
    try:
        stability.stability_verdict_gamma_c(c)
    finally:
        spans.uninstall()
    return spans.counts["stability.anchored_witness_search.candidates"]


def main():
    f2 = fields.GF(2)
    ranked = sorted(
        ([f2.to_int(v) for v in c.as_list()], anchored_candidates(c))
        for c in jobs.classify_f2_curves()["degree2_singular"])
    ranked.sort(key=lambda item: item[1])   # stable: ties stay in order
    json.dump({"ylocus_q4": f4_curves_by_path(),
               "anchored_f4": ranked}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
