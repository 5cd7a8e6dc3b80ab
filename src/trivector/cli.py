"""Command-line entry point: every operation behind one `trivec` command
with JSON input/output and machine-readable reports.

Exit codes: 0 success, 1 usage or input errors, 2 certified mathematical
disagreement (never expected; it means an implementation bug was caught by
a cross-check)."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import serialize as ser
from .errors import Disagreement, TrivectorError
from .fields import parse_field
from .polys import embed_map, extension_of
from .trivector import (CURVE_DEGREES, CurveCoeffs, build_gamma_c,
                        diagonal_matrix, gl_act, permutation_matrix,
                        weighted_torus_diag)

_INPUT_DIGESTS = {}


def _load(path):
    try:
        with open(path) as fh:
            data = fh.read()
    except OSError as exc:
        raise SystemExit2("cannot read %s: %s" % (path, exc))
    _INPUT_DIGESTS[path] = hashlib.sha256(data.encode()).hexdigest()[:16]
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise SystemExit2("malformed JSON in %s at line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg))


class SystemExit2(Exception):
    """Usage/input error: exits with code 1."""


def _embed_to_q(obj, q):
    """A trivector or curve over the field of order q containing its own."""
    base = obj.field
    if q is None or q == base.order:
        return obj
    if base.order is None:
        raise SystemExit2("--q %d: the input is over Q, which no finite "
                          "field contains" % q)
    d = 1
    order = base.order
    while order < q:
        order *= base.order
        d += 1
    if order != q:
        raise SystemExit2("%d is not a power of the base field order %d"
                          % (q, base.order))
    ext = extension_of(base, d)
    return obj.map_coeffs(ext, embed_map(base, ext))


def cmd_gamma_build(args):
    field = parse_field(args.field)
    cmap = {}
    for item in args.set or []:
        key, _, val = item.partition("=")
        if not key.startswith("c") or not val:
            raise SystemExit2("--set expects cD=VALUE, got %r" % item)
        d = int(key[1:])
        if d not in CURVE_DEGREES:
            raise SystemExit2("unknown coefficient degree %d" % d)
        cmap[d] = field.from_str(val)
    c = CurveCoeffs(field, cmap)
    t = build_gamma_c(c)
    data = ser.trivector_to_json(t)
    if args.output:
        ser.dump_json(data, args.output)
    return {"terms": len(t.coeffs), "field": field.spec_str(),
            "written": args.output, "gamma": data}


def cmd_gamma_act(args):
    t = ser.trivector_from_json(_load(args.gamma))
    field = t.field
    if args.matrix:
        g = ser.gl_matrix_from_json(field, _load(args.matrix))
    elif args.perm:
        digits = [int(ch) for ch in args.perm]
        if sorted(digits) != list(range(1, 10)):
            raise SystemExit2("--perm needs the digits 1..9")
        # the digit string lists the images of 9, 8, ..., 1
        g = permutation_matrix(field, tuple(digits[::-1]))
    elif args.torus is not None:
        g = weighted_torus_diag(field, field.from_str(args.torus))
    elif args.diag:
        entries = [field.from_str(v) for v in args.diag.split(",")]
        if len(entries) != 9:
            raise SystemExit2("--diag needs 9 entries")
        g = diagonal_matrix(field, entries)
    else:
        raise SystemExit2("give one of --matrix/--perm/--torus/--diag")
    out = gl_act(g, t)
    data = ser.trivector_to_json(out)
    if args.output:
        ser.dump_json(data, args.output)
    return {"terms": len(out.coeffs), "written": args.output, "gamma": data}


def cmd_stability(args):
    from .stability import DEFAULT_SUBSPACE_BUDGET, destabilizer_search
    t = ser.trivector_from_json(_load(args.gamma))
    budget = DEFAULT_SUBSPACE_BUDGET if args.budget is None else args.budget
    verdict = destabilizer_search(t, max_ext_degree=args.max_ext,
                                  budget=budget)
    return verdict.to_json()


def cmd_loci_count(args):
    from .loci import DEFAULT_POINT_BUDGET, enumerate_rank_locus
    if args.points is not None and args.max_rank is None:
        raise SystemExit2("trivec loci count: --points needs --max-rank")
    t = _embed_to_q(ser.trivector_from_json(_load(args.gamma)), args.q)
    budget = DEFAULT_POINT_BUDGET if args.budget is None else args.budget
    report, points = enumerate_rank_locus(
        t, max_rank=args.max_rank, with_points=args.points is not None,
        budget=budget)
    out = report.to_json()
    if args.points is not None:
        f = t.field
        ser.dump_json({"field": f.spec_str(),
                       "points": [{"coords": [f.to_str(x) for x in p],
                                   "rank": r} for p, r in points]},
                      args.points)
        out["points_written"] = args.points
    return out


def cmd_loci_cubic(args):
    from .loci import cubic_of_Y
    t = _embed_to_q(ser.trivector_from_json(_load(args.gamma)), args.q)
    cubic = cubic_of_Y(t)      # closed form: no scan, so --budget is unused
    data = ser.cubic_to_json(cubic)
    if args.output:
        ser.dump_json(data, args.output)
    return {"monomials": len(cubic.coeffs), "written": args.output,
            "cubic": data if not args.output else None}


def cmd_loci_check_embedding(args):
    from .loci import verify_curve_embedding
    c = _embed_to_q(ser.curve_from_json(_load(args.curve)), args.q)
    cert = verify_curve_embedding(c)
    return cert.to_json()


def cmd_loci_reconstruct(args):
    from .loci import reconstruct_from_pencil
    mats = ser.pencil_from_json(_load(args.pencil))
    t = reconstruct_from_pencil(mats)
    data = ser.trivector_to_json(t)
    if args.output:
        ser.dump_json(data, args.output)
    return {"terms": len(t.coeffs), "written": args.output, "gamma": data}


def cmd_char3_power(args):
    from .e8 import restricted_power
    t = ser.trivector_from_json(_load(args.gamma))
    a = restricted_power(t, args.exp)
    return {"exp": args.exp, "matrix": ser.matrix_to_json(a)}


def cmd_char3_rank(args):
    from .e8 import three_rank
    c = ser.curve_from_json(_load(args.curve))
    rep = three_rank(c)
    return rep.to_json()


def cmd_flags_check(args):
    from .flags import flag_compatible
    t = ser.trivector_from_json(_load(args.gamma))
    flag = ser.flag_from_json(_load(args.flag))
    return flag_compatible(t, flag).to_json()


def cmd_flags_search(args):
    from .flags import flag_search
    from .loci import DEFAULT_POINT_BUDGET
    t = _embed_to_q(ser.trivector_from_json(_load(args.gamma)), args.q)
    budget = DEFAULT_POINT_BUDGET if args.budget is None else args.budget
    rep = flag_search(t, max_ext_degree=args.max_ext, point_budget=budget)
    return rep.to_json()


def cmd_flags_chern(args):
    from .flags import chern_top_class
    coeff, exps = chern_top_class()
    return {"coefficient": coeff, "exponents": list(exps)}


def cmd_heisenberg_invariants(args):
    from .heisenberg import heisenberg_invariants
    field = parse_field(args.field)
    dim, basis = heisenberg_invariants(field)
    return {"dimension": dim,
            "basis": [ser.trivector_to_json(t) for t in basis]}


def cmd_selftest(args):
    from .acceptance import CRITERIA, run_criterion
    wanted = args.criteria.split(",") if args.criteria else \
        [cid for cid, _, _ in CRITERIA]
    lines = []
    all_ok = True
    for cid in wanted:
        res = run_criterion(cid.strip())
        print(res.line(), file=sys.stderr)
        lines.append({"id": res.cid, "pass": res.passed,
                      "detail": res.detail, "elapsed_s": round(res.elapsed, 1)})
        all_ok = all_ok and res.passed
    return {"criteria": lines, "all_pass": all_ok}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like input errors; 2 stays Disagreement's."""

    def error(self, message):
        raise SystemExit2("%s: error: %s" % (self.prog, message))


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _global_options(p):
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="cap on enumeration sizes: P^8 points per scan; for "
                        "'stability', candidates walked per degree (default "
                        "2,000,000); unused by 'loci cubic', which does not "
                        "scan")
    return p


def _unknown_leading_options(argv):
    """The options before the subcommand that trivec does not know.
    argparse reads the value of such an option as the subcommand and
    reports "invalid choice: '2'" for `--threads 2 loci ...`; a parse
    error names these options instead."""
    lead = _global_options(_Parser(prog="trivec", add_help=False))
    lead.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        return lead.parse_known_args(argv)[1]
    except SystemExit2:
        return []


def build_parser():
    p = _global_options(_Parser(
        prog="trivec",
        description="exact computations with trivectors in 9 variables and "
                    "their genus-2 curve data"))
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="build and transform normal forms")
    gsub = g.add_subparsers(dest="sub", required=True)
    gb = gsub.add_parser("build")
    gb.add_argument("--field", required=True)
    gb.add_argument("--set", action="append", metavar="cD=VAL")
    gb.add_argument("-o", "--output")
    gb.set_defaults(fn=cmd_gamma_build)
    ga = gsub.add_parser("act")
    ga.add_argument("--gamma", required=True)
    ga.add_argument("--matrix")
    ga.add_argument("--perm")
    ga.add_argument("--torus")
    ga.add_argument("--diag")
    ga.add_argument("-o", "--output")
    ga.set_defaults(fn=cmd_gamma_act)

    st = sub.add_parser("stability", help="destabilizing-subspace search (the "
                        "Gray-code scan over F_2, else the singular points "
                        "of the Pfaffian cubic)")
    st.add_argument("--gamma", required=True)
    st.add_argument("--max-ext", type=_positive_int, default=1)
    st.set_defaults(fn=cmd_stability)

    lo = sub.add_parser("loci", help="rank strata and their certificates")
    lsub = lo.add_subparsers(dest="sub", required=True)
    lc = lsub.add_parser("count")
    lc.add_argument("--gamma", required=True)
    lc.add_argument("--q", type=int)
    lc.add_argument("--max-rank", type=int, choices=range(9))
    lc.add_argument("--points", metavar="OUT.json")
    lc.set_defaults(fn=cmd_loci_count)
    lq = lsub.add_parser("cubic")
    lq.add_argument("--gamma", required=True)
    lq.add_argument("--q", type=int)
    lq.add_argument("-o", "--output")
    lq.set_defaults(fn=cmd_loci_cubic)
    le = lsub.add_parser("check-embedding")
    le.add_argument("--curve", required=True)
    le.add_argument("--q", type=int)
    le.set_defaults(fn=cmd_loci_check_embedding)
    lr = lsub.add_parser("reconstruct")
    lr.add_argument("--pencil", required=True)
    lr.add_argument("-o", "--output")
    lr.set_defaults(fn=cmd_loci_reconstruct)

    ch = sub.add_parser("char3", help="restricted powers and 3-ranks")
    csub = ch.add_subparsers(dest="sub", required=True)
    cp = csub.add_parser("power")
    cp.add_argument("--gamma", required=True)
    cp.add_argument("--exp", type=int, choices=(3, 9, 27), required=True)
    cp.set_defaults(fn=cmd_char3_power)
    cr = csub.add_parser("rank")
    cr.add_argument("--curve", required=True)
    cr.set_defaults(fn=cmd_char3_rank)

    fl = sub.add_parser("flags", help="compatible flags")
    fsub = fl.add_subparsers(dest="sub", required=True)
    fc = fsub.add_parser("check")
    fc.add_argument("--gamma", required=True)
    fc.add_argument("--flag", required=True)
    fc.set_defaults(fn=cmd_flags_check)
    fs = fsub.add_parser("search")
    fs.add_argument("--gamma", required=True)
    fs.add_argument("--q", type=int)
    fs.add_argument("--max-ext", type=_positive_int, default=1)
    fs.set_defaults(fn=cmd_flags_search)
    fch = fsub.add_parser("chern")
    fch.set_defaults(fn=cmd_flags_chern)

    he = sub.add_parser("heisenberg", help="grid operators and invariants")
    hsub = he.add_subparsers(dest="sub", required=True)
    hi = hsub.add_parser("invariants")
    hi.add_argument("--field", required=True)
    hi.set_defaults(fn=cmd_heisenberg_invariants)

    se = sub.add_parser("selftest", help="run the acceptance criteria")
    se.add_argument("--criteria", help="comma-separated ids, e.g. C2,C9")
    se.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        unknown = _unknown_leading_options(
            sys.argv[1:] if argv is None else argv)
        if unknown:
            exc = "trivec: error: unrecognized arguments: %s" % " ".join(unknown)
        print(str(exc), file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    _INPUT_DIGESTS.clear()
    try:
        verdict = args.fn(args)
        code = 0
        if args.command == "selftest" and not verdict.get("all_pass", True):
            code = 2
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Disagreement as exc:
        print("DISAGREEMENT: %s" % exc, file=sys.stderr)
        verdict = {"error": "disagreement", "message": str(exc)}
        code = 2
    except TrivectorError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1
    report = {
        "command": " ".join(sys.argv[1:]) if argv is None else " ".join(argv),
        "inputs": dict(_INPUT_DIGESTS),
        "verdict": verdict,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    try:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`trivec ... | head`): send what is
        # left to /dev/null, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("trivec: error: standard output closed", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
