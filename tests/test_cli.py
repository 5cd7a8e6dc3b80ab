import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trivector.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_gamma_build_and_count(tmp_path, capsys):
    g = tmp_path / "g.json"
    code, rep = run_cli(capsys, "gamma", "build", "--field", "GF(2)",
                        "--set", "c15=1", "-o", str(g))
    assert code == 0
    assert rep["verdict"]["terms"] == 9
    code, rep = run_cli(capsys, "loci", "count", "--gamma", str(g))
    assert code == 0
    assert rep["verdict"]["counts"] == {"0": 0, "2": 0, "4": 5, "6": 290,
                                        "8": 216}
    assert str(g) in rep["inputs"]


def test_gamma_build_gf4_default_modulus(capsys):
    code, rep = run_cli(capsys, "gamma", "build", "--field", "GF(4)")
    assert code == 0
    assert rep["verdict"]["field"] == "GF(2^2)"


def test_cli_determinism(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2^4)", "--set", "c15=1",
            "-o", str(g))
    p = tmp_path / "p.json"
    import trivector.serialize as ser
    from trivector.loci import pencil_basis
    t = ser.trivector_from_json(ser.load_json(str(g)))
    ser.dump_json(ser.pencil_to_json(t.field, pencil_basis(t)), str(p))
    code1, rep1 = run_cli(capsys, "loci", "reconstruct", "--pencil", str(p))
    code2, rep2 = run_cli(capsys, "loci", "reconstruct", "--pencil", str(p))
    assert code1 == code2 == 0
    assert rep1["verdict"] == rep2["verdict"]
    assert set(rep1) == {"command", "inputs", "verdict", "elapsed_ms"}


def test_reconstruct_cli_returns_the_trivector(tmp_path, capsys):
    # GF(2) with c15 = 1: the pencil basis of t gives back t's terms
    import trivector.serialize as ser
    from trivector.loci import pencil_basis
    g = tmp_path / "g.json"
    code, rep = run_cli(capsys, "gamma", "build", "--field", "GF(2)",
                        "--set", "c15=1", "-o", str(g))
    t = ser.trivector_from_json(ser.load_json(str(g)))
    p = tmp_path / "p.json"
    ser.dump_json(ser.pencil_to_json(t.field, pencil_basis(t)), str(p))
    code, out = run_cli(capsys, "loci", "reconstruct", "--pencil", str(p))
    assert code == 0
    assert out["verdict"]["gamma"] == rep["verdict"]["gamma"]


def test_seed_is_not_an_option(capsys):
    assert main(["--seed", "1", "loci", "reconstruct", "--pencil",
                 "absent.json"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "--seed" in err


@pytest.mark.parametrize("argv", [
    ["loci", "count", "--q", "5"], ["loci", "count"], ["loci", "cubic", "--q", "5"],
    ["flags", "search"], ["flags", "search", "--q", "5"]],
    ids=" ".join)
def test_q_input_to_a_finite_field_command(argv, tmp_path, capsys):
    # a gamma over Q cannot be scanned or embedded into a finite field
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "Q", "--set", "c30=1",
            "-o", str(g))
    code = main(argv[:2] + ["--gamma", str(g)] + argv[2:])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


def test_flags_chern_cli(capsys):
    code, rep = run_cli(capsys, "flags", "chern")
    assert code == 0
    assert rep["verdict"]["coefficient"] == 81
    assert rep["verdict"]["exponents"] == [0, 1, 1, 3, 3, 3, 6, 6, 8]


def test_stability_cli(tmp_path, capsys):
    g = tmp_path / "g0.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2)", "-o", str(g))
    code, rep = run_cli(capsys, "stability", "--gamma", str(g))
    assert code == 0
    assert rep["verdict"]["status"] == "non_stable"
    assert len(rep["verdict"]["witness"]) == 6


def test_stability_cli_past_f2(tmp_path, capsys):
    # GF(3): c30 = 1 is smooth, c24 = c30 = 1 has a rational singular point
    for sets, status in ((["c30=1"], "stable"),
                         (["c24=1", "c30=1"], "non_stable")):
        g = tmp_path / "g3.json"
        args = ["gamma", "build", "--field", "GF(3)", "-o", str(g)]
        for item in sets:
            args += ["--set", item]
        run_cli(capsys, *args)
        code, rep = run_cli(capsys, "stability", "--gamma", str(g))
        assert code == 0
        assert rep["verdict"]["status"] == status
        assert rep["verdict"]["searched_ext_degree"] == 1
    # GF(7): P^8 has 6,725,601 points, past the default budget of 2,000,000
    g = tmp_path / "g7.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(7)", "--set", "c30=1",
            "-o", str(g))
    code = main(["stability", "--gamma", str(g)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "BudgetExceeded" in err
    code, rep = run_cli(capsys, "--budget", "10000000", "stability",
                        "--gamma", str(g))
    assert code == 0
    assert rep["verdict"]["status"] == "stable"     # x^2 + z^5 + 1 is smooth


def test_heisenberg_cli(capsys):
    code, rep = run_cli(capsys, "heisenberg", "invariants", "--field", "GF(7)")
    assert code == 0
    assert rep["verdict"]["dimension"] == 4


def test_char3_rank_cli(tmp_path, capsys):
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"field": "GF(3)", "c": {"24": "1"}}))
    code, rep = run_cli(capsys, "char3", "rank", "--curve", str(c))
    assert code == 0
    assert rep["verdict"]["lie"] == rep["verdict"]["coeff"] == 2


def test_char3_rank_rejects_a_gamma_file_as_curve(tmp_path, capsys):
    # a gamma file has "terms" but no "c": it is not the zero curve
    g = tmp_path / "g.json"
    code, _ = run_cli(capsys, "gamma", "build", "--field", "GF(3)",
                      "--set", "c24=1", "-o", str(g))
    assert code == 0
    code = main(["char3", "rank", "--curve", str(g)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1, err
    assert "'c'" in err and "Traceback" not in err


def test_char3_past_table_limit_is_one_line_exit_1(tmp_path, capsys):
    # GF(3^6) is a well-formed field that the coded kernel cannot hold
    g = tmp_path / "g.json"
    code, _ = run_cli(capsys, "gamma", "build", "--field", "GF(3^6)",
                      "--set", "c24=1", "-o", str(g))
    assert code == 0
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"field": "GF(3^6)", "c": {"24": "1"}}))
    for argv in (["char3", "power", "--gamma", str(g), "--exp", "3"],
                 ["char3", "rank", "--curve", str(c)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
        assert err.startswith("UnsupportedField:") and "GF(3^5)" in err


def test_gamma_act_perm(tmp_path, capsys):
    g = tmp_path / "g.json"
    f = tmp_path / "flag_check_input.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(5)", "--set", "c30=1",
            "-o", str(g))
    code, rep = run_cli(capsys, "gamma", "act", "--gamma", str(g),
                        "--perm", "974852631", "-o", str(f))
    assert code == 0
    import trivector.serialize as ser
    from trivector.flags import flag_compatible, standard_flag
    t = ser.trivector_from_json(ser.load_json(str(f)))
    assert flag_compatible(t, standard_flag(t.field)).compatible


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "GF(2)", "terms": [,]}')
    code = main(["stability", "--gamma", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err and "column" in err


def test_usage_error_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2)", "-o", str(g))
    code = main(["gamma", "act", "--gamma", str(g)])
    assert code == 1


def test_selftest_single_criterion(capsys):
    code, rep = run_cli(capsys, "selftest", "--criteria", "C11")
    assert code == 0
    assert rep["verdict"]["all_pass"] is True
    assert rep["verdict"]["criteria"][0]["id"] == "C11"


def test_selftest_c1_parallel_family_scan(capsys):
    code, rep = run_cli(capsys, "selftest", "--criteria", "C1")
    assert code == 0
    assert rep["verdict"]["all_pass"] is True
    assert "788035 subspaces" in rep["verdict"]["criteria"][0]["detail"]


def test_loci_cubic_and_embedding_cli(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2)", "--set", "c15=1",
            "-o", str(g))
    out = tmp_path / "cubic.json"
    code, rep = run_cli(capsys, "loci", "cubic", "--gamma", str(g),
                        "--q", "4", "-o", str(out))
    assert code == 0 and rep["verdict"]["monomials"] > 0
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"field": "GF(7)", "c": {"30": "1"}}))
    code, rep = run_cli(capsys, "loci", "check-embedding", "--curve", str(c))
    assert code == 0
    assert rep["verdict"]["weierstrass_rank"] <= 4


def test_loci_count_points_output(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2)", "--set", "c15=1",
            "-o", str(g))
    pts = tmp_path / "pts.json"
    code, rep = run_cli(capsys, "loci", "count", "--gamma", str(g),
                        "--max-rank", "4", "--points", str(pts))
    assert code == 0
    data = json.loads(pts.read_text())
    assert len(data["points"]) == 5
    assert all(p["rank"] <= 4 for p in data["points"])


def test_flags_search_cli(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(4)", "--set", "c15=1",
            "-o", str(g))
    p = tmp_path / "p.json"
    run_cli(capsys, "gamma", "act", "--gamma", str(g),
            "--perm", "974852631", "-o", str(p))
    code, rep = run_cli(capsys, "flags", "search", "--gamma", str(p),
                        "--max-ext", "1")
    assert code == 0
    assert 1 <= rep["verdict"]["weighted_count"] <= 81
    assert rep["verdict"]["complete"] is False


def test_flags_check_cli(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(5)", "-o", str(g))
    flag = tmp_path / "flag.json"
    rows = [[1 if i == j else 0 for j in range(9)] for i in range(8)]
    flag.write_text(json.dumps({"field": "GF(5)", "F1": rows[:1],
                                "F3": rows[:3], "F6": rows[:6],
                                "F8": rows[:8]}))
    code, rep = run_cli(capsys, "flags", "check", "--gamma", str(g),
                        "--flag", str(flag))
    assert code == 0
    assert rep["verdict"]["compatible"] is False
    assert rep["verdict"]["violated"][0]["ijk"] == [2, 4, 9]


def test_usage_errors_exit_1(capsys):
    # the P^8 scan has no worker option: --threads is a usage error, which
    # exits 1 (2 is reserved for a Disagreement) with one line naming it,
    # before the gamma file is read, after the subcommand or before it
    code = main(["loci", "count", "--gamma", "absent.json", "--threads", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unrecognized arguments: --threads 2" in err
    assert len(err.strip().splitlines()) == 1
    assert main(["--threads", "2", "loci", "count", "--gamma",
                 "absent.json"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "--threads" in err and "absent.json" not in err
    assert main(["flags"]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    # a rank outside 0..8, and a point file with no rank to select by
    for argv in (["--max-rank", "-1", "--points", "p.json"],
                 ["--max-rank", "9"], ["--points", "p.json"]):
        assert main(["loci", "count", "--gamma", "absent.json"] + argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--max-rank" in err and "absent.json" not in err


@pytest.mark.parametrize("budget", ["0", "-3", "two"])
def test_budget_below_one_rejected_at_parse_time(budget, capsys):
    # the gamma file does not exist: parsing fails before anything runs
    code = main(["--budget", budget, "loci", "count", "--gamma",
                 "absent.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1
    assert "argument --budget" in err and "absent.json" not in err


@pytest.mark.parametrize("command", [["stability"], ["flags", "search"]])
@pytest.mark.parametrize("max_ext", ["0", "-2", "one"])
def test_max_ext_below_one_rejected_at_parse_time(command, max_ext, tmp_path,
                                                   capsys):
    # GF(2) with c30 = 1 is non_stable at degree 1; a search of no degree
    # must not report it stable, so --max-ext < 1 is a usage error
    g = tmp_path / "g.json"
    run_cli(capsys, "gamma", "build", "--field", "GF(2)", "--set", "c30=1",
            "-o", str(g))
    for gamma in (str(g), "absent.json"):
        code = main(command + ["--gamma", gamma, "--max-ext", max_ext])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "argument --max-ext" in err and gamma not in err


BAD_INPUTS = Path(__file__).parent / "fixtures" / "bad_inputs"
# each fixture folder holds malformed files of one kind, read by this command
# (the placeholder FILE is the fixture, GAMMA a valid trivector file)
BAD_INPUT_COMMANDS = {
    "gamma": ["loci", "cubic", "--gamma", "FILE"],
    "curve": ["char3", "rank", "--curve", "FILE"],
    "flag": ["flags", "check", "--gamma", "GAMMA", "--flag", "FILE"],
    "pencil": ["loci", "reconstruct", "--pencil", "FILE"],
    "matrix": ["gamma", "act", "--gamma", "GAMMA", "--matrix", "FILE"],
}


@pytest.mark.parametrize(
    "fixture", sorted(BAD_INPUTS.glob("*/*.json")),
    ids=lambda p: "%s/%s" % (p.parent.name, p.stem))
def test_malformed_input_is_one_line_exit_1(fixture, tmp_path, capsys):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"field": "GF(5)", "terms": [
        {"ijk": [1, 2, 3], "c": "1"}]}))
    argv = [{"FILE": str(fixture), "GAMMA": str(gamma)}.get(a, a)
            for a in BAD_INPUT_COMMANDS[fixture.parent.name]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 61 + 15])
def test_large_prime_field_spec(p, tmp_path, capsys):
    # GF(2^61 - 1) is the largest prime field; the next prime is refused
    # with one line, through --field and through a JSON "field" alike
    spec = "GF(%d)" % p
    g = tmp_path / "g.json"
    code = main(["gamma", "build", "--field", spec, "--set", "c30=1",
                 "-o", str(g)])
    out, err = capsys.readouterr()
    src = tmp_path / "src.json"
    src.write_text(json.dumps({"field": spec, "terms": [
        {"ijk": [1, 2, 3], "c": "1"}]}))
    argv = ["gamma", "act", "--gamma", str(src), "--perm", "974852631"]
    if p < 2 ** 61:
        assert code == 0 and json.loads(out)["verdict"]["field"] == spec
        code, rep = run_cli(capsys, *argv)
        assert code == 0 and rep["verdict"]["gamma"]["field"] == spec
        return
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "too large" in err
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "too large" in err


def test_closed_output_pipe_is_one_line_exit_1():
    # `trivec ... | head` closes the pipe before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "trivector.cli", "gamma", "build",
             "--field", "GF(7)", "--set", "c30=1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "trivec: error: standard output closed"]
