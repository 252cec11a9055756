import configparser
import json
import math
import os
import shlex
from fractions import Fraction as F

import pytest

from stacky_heights.arith import factor
from stacky_heights.cli import COMMANDS, build_parser, main, parse_cycles, parse_line


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_height_wps(capsys):
    obj = run_json(capsys, "height", "wps", "--weights", "4,6", "--coords", "0,2")
    assert obj["schema"] == "stacky-heights/1"
    assert obj["height"]["terms"] == [[2, 1, 6]]
    assert math.isclose(obj["height"]["value"], math.log(2) / 6)
    # colon shorthand gives the same result
    obj2 = run_json(capsys, "height", "wps", "--point", "4,6:0,2")
    assert obj2["height"] == obj["height"]


def test_height_bmun(capsys):
    obj = run_json(capsys, "height", "bmun", "--n", "3", "--j", "1", "--x", "12")
    assert obj["height"]["terms"] == [[2, 2, 3], [3, 1, 3]]
    obj = run_json(capsys, "height", "bmun", "--n", "3", "--j", "2", "--x", "12")
    assert obj["height"]["terms"] == [[2, 1, 3], [3, 2, 3]]


def test_height_football_tangent(capsys):
    obj = run_json(
        capsys,
        "height",
        "football",
        "--line",
        "1,0,2;1,1,2;0,1,2",
        "--point",
        "2,3",
        "--tangent",
    )
    total = obj["breakdown"]["total"]
    assert total["terms"] == [[2, 1, 2], [3, 1, 1], [5, 1, 2]]
    assert math.isclose(total["value"], 0.5 * math.log(90))


def test_height_football_divisor(capsys):
    obj = run_json(
        capsys,
        "height",
        "football",
        "--line",
        "1,0,2;0,1,3",
        "--divisor",
        "0;-1,2",
        "--point",
        "4,1",
    )
    assert obj["breakdown"]["total"]["terms"] == [[2, 1, 3]]


def test_height_sym2_and_friends(capsys):
    obj = run_json(capsys, "height", "sym2", "--form", "1,0,-2")
    assert math.isclose(obj["total"], 2.5 * math.log(2), rel_tol=1e-12)
    assert math.isclose(obj["abs_height"], math.sqrt(2), rel_tol=1e-12)
    obj = run_json(capsys, "height", "elliptic", "--A", "0", "--B", "2")
    assert obj["height"]["terms"] == [[2, 1, 6]]
    obj = run_json(capsys, "height", "quadratic", "--d", "-1")
    assert obj["height"]["terms"] == [[2, 1, 1]]
    obj = run_json(capsys, "height", "hyperelliptic", "--coeffs", "0,0,0,3072")
    assert obj["height"]["terms"] == [[3, 1, 10]]


def test_exit_codes(capsys):
    # missing required pieces: usage error -> 2
    code, _, err = run(capsys, "height", "wps")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "height", "bmun", "--n", "3", "--x", "abc")
    assert code == 2
    code, _, err = run(capsys, "height", "sym2", "--form", "1,2")
    assert code == 2 and "sym2 form must be a,b,c" in err
    code, _, err = run(capsys, "height", "wps", "--point", "1,2:3")
    assert code == 2 and "2 weights but 1 coordinates" in err
    code, _, err = run(capsys, "height", "wps", "--weights", "1", "--coords", "3,4")
    assert code == 2 and "1 weights but 2 coordinates" in err
    # domain error -> 3
    code, _, err = run(capsys, "height", "elliptic", "--A", "0", "--B", "0")
    assert code == 3 and "domain error" in err
    code, _, _ = run(capsys, "height", "bmun", "--n", "3", "--j", "5", "--x", "12")
    assert code == 3
    # argparse-level failures exit 2 as well
    with pytest.raises(SystemExit) as e:
        main(["height", "nosuch"])
    assert e.value.code == 2


def test_malle(capsys):
    obj = run_json(capsys, "malle", "--degree", "3", "--gens", "(1 2 3)")
    assert obj["exponent"] == [1, 2]
    obj = run_json(capsys, "malle", "--degree", "4", "--gens", "(1 2);(1 2 3 4)")
    assert obj["order"] == 24 and obj["exponent"] == [1, 1]


def test_malle_space_between_cycles_is_usage_error(capsys):
    code, _, err = run(capsys, "malle", "--degree", "4", "--gens", "(1 2) (3 4)")
    assert code == 2 and "bad cycle notation" in err


FOOTBALL = "height football --line 1,0,2 --point 1,2"
RUN = "[run]\nfamily = bmun\n"


# "NAME=value" words before the command set environment variables; {cfg} is
# a config file holding the case's text, {missing} a path that does not exist
USAGE_ERRORS = [
    ("height wps --weights 1,2", None, "need --weights and --coords"),
    ("height wps --point 1,2", None, "wps point must be 'a0,a1,...:M0,M1,...'"),
    ("height bmun --n 3", None, "need --n and --x"),
    ("height quadratic", None, "need --d"),
    ("height football --point 1,2", None, "need --line and --point"),
    (FOOTBALL, None, "need --divisor or --tangent"),
    ("height elliptic --A 1", None, "need --A and --B"),
    ("height hyperelliptic", None, "need --coeffs"),
    ("height sym2", None, "need --form"),
    ("height sym2 --form 1,x,2", None, "expected comma-separated integers, got '1,x,2'"),
    (FOOTBALL + ",3 --tangent", None, "football point must be a,b"),
    ("height football --line 1,0 --point 1,2 --tangent", None, "root '1,0' is not u,v,m"),
    ("height football --line 2,4,2 --point 1,2 --tangent", None, "(2, 4) is not primitive"),
    (FOOTBALL + " --divisor 0;1;2", None, "divisor '0;1;2' is not d;n1,n2,..."),
    (FOOTBALL + " --divisor 0", None, "0 stacky coefficients, line has 1 roots"),
    (FOOTBALL + " --divisor 0;1,2", None, "2 stacky coefficients, line has 1 roots"),
    (FOOTBALL + " --divisor x;1", None, "invalid literal for int()"),
    ("malle --degree 3 --gens '(1 4)'", None, "cycle entry out of range"),
    ("malle --degree 3 --gens '(1 2 1)'", None, "repeated entry in cycle"),
    ("malle --degree -1 --gens '()'", None, "element degree mismatch"),
    ("count --config {cfg}", RUN + "[schedule]\nsteps = 0\n", "at least one step"),
    ("count --config {cfg}", RUN + "[schedule]\nratio = 1\n", "ratio must exceed 1"),
    ("count --config {cfg}", RUN + "[schedule]\nb0 = 0\n", "start must be positive"),
    ("count --config {cfg}", RUN + "threads = 0\n", "thread count must be >= 1"),
    ("count --config {cfg}", RUN + "format = xml\n", "unknown format 'xml'"),
    ("STACKY_THREADS=0 search --kind 444 --cutoff 50 --delta 0.3", None, "thread count"),
    ("count --family bmun --config {missing}", None, "cannot read config file"),
]


@pytest.mark.parametrize("command, config, message", USAGE_ERRORS, ids=[m for *_, m in USAGE_ERRORS])
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, command, config, message):
    calls = _record_kernel_calls(monkeypatch)
    monkeypatch.delenv("STACKY_THREADS", raising=False)
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    words = shlex.split(command.format(cfg=cfg, missing=tmp_path / "missing.cfg"))
    while "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    code, stdout, err = run(capsys, *words)
    assert code == 2 and stdout == "" and err.startswith("error: "), err
    assert message in err, err
    assert calls == []


def test_count_resume_without_checkpoint_counts_every_bound(tmp_path, capsys):
    args = ["count", "--family", "bmun", "--b0", "4", "--steps", "3", "--out", str(tmp_path)]
    fresh = run_json(capsys, *args)
    for ckpt in tmp_path.glob("*.checkpoint.json"):
        ckpt.unlink()
    code, resumed, err = run(capsys, *args, "--resume")
    assert code == 0 and "3 bounds in one pass" in err, err
    assert json.loads(resumed) == fresh


def test_parse_helpers():
    line = parse_line("1,0,2;1,1,2;0,1,2")
    assert len(line.roots) == 3
    assert parse_cycles("(1 2 3)", 3) == (1, 2, 0)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("", 3) == (0, 1, 2)


def test_count_run_writes_outputs(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "count",
        "--family",
        "bmun",
        "--n",
        "2",
        "--b0",
        "8",
        "--ratio",
        "2",
        "--steps",
        "4",
        "--format",
        "csv",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "stacky-heights/1"
    assert [s[1] for s in report["samples"]] == [78, 314, 1248, 4982]
    assert report["fit"] is not None

    files = sorted(p.name for p in tmp_path.iterdir())
    stem = next(n for n in files if n.endswith(".json") and "checkpoint" not in n)
    run_id = stem[: -len(".json")]
    assert f"{run_id}.cfg" in files
    assert f"{run_id}.csv" in files
    assert f"{run_id}.checkpoint.json" in files
    csv_lines = (tmp_path / f"{run_id}.csv").read_text().splitlines()
    assert csv_lines[0] == "B,count"
    assert len(csv_lines) == 5
    cfg_text = (tmp_path / f"{run_id}.cfg").read_text()
    assert "[schedule]" in cfg_text and "b0 = 8" in cfg_text


def test_count_bmun_with_huge_power(tmp_path, capsys):
    # B^n = 50^200 has 340 digits, yet its 200th root is only 50
    obj = run_json(
        capsys, "count", "--family", "bmun", "--n", "200", "--b0", "50",
        "--steps", "1", "--out", str(tmp_path),
    )
    X = 50**200
    mobius = 0
    for d in range(1, 51):
        fs = factor(d).factors
        if all(e == 1 for _, e in fs):
            mobius += (-1) ** len(fs) * (X // d**200)
    assert obj["samples"] == [[50.0, 2 * mobius]]


def test_count_checkpoint_resume(tmp_path, capsys):
    args = [
        "count", "--family", "bmun", "--n", "3", "--b0", "4", "--ratio", "3",
        "--steps", "3", "--out", str(tmp_path),
    ]
    code, out1, err1 = run(capsys, *args)
    assert code == 0
    # cooked checkpoint proves the resumed run reads it instead of recomputing
    # (the planted value keeps the report monotone, so it passes validation)
    ckpt = next(p for p in tmp_path.iterdir() if p.name.endswith("checkpoint.json"))
    data = json.loads(ckpt.read_text())
    data["samples"]["4"] = 1
    ckpt.write_text(json.dumps(data))
    code, out2, _ = run(capsys, *args, "--resume")
    assert code == 0
    assert json.loads(out2)["samples"][0][1] == 1
    # without --resume the checkpoint is ignored and rebuilt
    code, out3, _ = run(capsys, *args)
    assert json.loads(out3) == json.loads(out1)


def test_count_resume_computes_missing_bounds_in_one_call(tmp_path, capsys, monkeypatch):
    from stacky_heights import cli

    args = [
        "count", "--family", "football222", "--b0", "3", "--ratio", "3/2",
        "--steps", "6", "--out", str(tmp_path / "fresh"),
    ]
    code, fresh, err = run(capsys, *args)
    assert code == 0, err
    assert "6 bounds in one pass" in err
    ckpt = next(p for p in (tmp_path / "fresh").iterdir() if p.name.endswith("checkpoint.json"))
    data = json.loads(ckpt.read_text())
    keys = list(data["samples"])
    assert keys == ["3", "9/2", "27/4", "81/8", "243/16", "729/32"]

    # a checkpoint holding only some of the bounds, under the resumed run's id
    out = tmp_path / "resumed"
    out.mkdir()
    kept = {k: data["samples"][k] for k in ("9/2", "81/8")}
    (out / ckpt.name).write_text(json.dumps({"schema": data["schema"], "samples": kept}))
    calls = []
    counter, params = cli.FAMILIES["football222"]

    def recording(cfg, Bs):
        calls.append(list(Bs))
        return counter(cfg, Bs)

    saves = []
    save = cli._save_checkpoint

    def recording_save(path, samples):
        saves.append(dict(samples))
        save(path, samples)

    monkeypatch.setitem(cli.FAMILIES, "football222", (recording, params))
    monkeypatch.setattr(cli, "_save_checkpoint", recording_save)
    args[-1] = str(out)
    code, resumed, err = run(capsys, *args, "--resume")
    assert code == 0, err
    assert json.loads(resumed) == json.loads(fresh)
    missing = [F(3), F(27, 4), F(243, 16), F(729, 32)]
    assert calls == [missing]
    assert [line.split(":")[0] for line in err.splitlines()[:4]] == [
        f"B={float(B):g}" for B in missing
    ]
    # the checkpoint is written once, with every bound
    assert saves == [data["samples"]]
    assert json.loads((out / ckpt.name).read_text())["samples"] == data["samples"]


def test_count_bmun_cap_exits_3(tmp_path, capsys, monkeypatch):
    from stacky_heights import counting

    def no_table(limit):
        raise AssertionError("the Moebius windows were sieved")

    monkeypatch.setattr(counting, "_mobius_windows", no_table)
    code, out, err = run(
        capsys, "count", "--family", "bmun", "--n", "2", "--b0", "1000000000",
        "--steps", "1", "--out", str(tmp_path),
    )
    assert code == 3 and out == ""
    assert "count_bmun" in err and "2^25" in err


@pytest.mark.parametrize(
    "family, kernel, builder, b0, cap",
    [
        ("quadratic-fields", "count_quadratic_fields", "_mobius_windows", "10000000000", "2^30"),
        ("rooted3", "count_rooted3_at_0", "sieve_power_free_parts", "100000000000", "2^25"),
        ("quadratic-points", "count_quadratic_points", "_mobius_windows", "2897", "2^23"),
    ],
)
def test_count_table_caps_exit_3(tmp_path, capsys, monkeypatch, family, kernel, builder, b0, cap):
    from stacky_heights import counting

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(counting, builder, no_table)
    code, out, err = run(
        capsys, "count", "--family", family, "--b0", b0, "--steps", "1",
        "--out", str(tmp_path),
    )
    assert code == 3 and out == ""
    assert kernel in err and cap in err


def test_count_schedule_colliding_as_floats_exits_2(tmp_path, capsys, monkeypatch):
    # 10 (1 + 10^-16)^k are four rationals but one float, and the report
    # stores float(B): the schedule is refused before any kernel call
    from stacky_heights import cli

    calls = []
    counter, params = cli.FAMILIES["bmun"]

    def recording(cfg, bounds):
        calls.append(bounds)
        return counter(cfg, bounds)

    monkeypatch.setitem(cli.FAMILIES, "bmun", (recording, params))
    out = tmp_path / "out"
    code, stdout, err = run(
        capsys, "count", "--family", "bmun", "--n", "2", "--b0", "10",
        "--ratio", "1.0000000000000001", "--steps", "4", "--out", str(out),
    )
    assert code == 2 and stdout == "" and "collide as floats" in err
    assert calls == []
    assert not out.exists() or not any(out.iterdir())
    code, _, err = run(
        capsys, "count", "--family", "bmun", "--n", "2", "--b0", "1e400",
        "--steps", "1", "--out", str(out),
    )
    assert code == 2 and "largest float" in err and calls == []


def test_count_config_without_run_section(tmp_path, capsys):
    cfg = tmp_path / "sched.cfg"
    cfg.write_text("[schedule]\nb0 = 2\nratio = 2\nsteps = 2\n")
    code, out, _ = run(
        capsys, "count", "--family", "bmun", "--n", "2",
        "--config", str(cfg), "--out", str(tmp_path),
    )
    assert code == 0
    assert len(json.loads(out)["samples"]) == 2


def test_count_config_bad_threads_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nfamily = rooted3\nthreads = two\n")
    code, _, err = run(capsys, "count", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2 and "threads" in err


def test_count_config_bad_steps_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nfamily = rooted3\n\n[schedule]\nsteps = x\n")
    code, _, err = run(capsys, "count", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2 and "steps" in err


def test_count_config_bad_bmun_modulus_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nfamily = bmun\n\n[params]\nn = two\n")
    code, _, err = run(capsys, "count", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2 and "n must be an integer" in err


def test_count_config_file_and_env_threads(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\nfamily = rooted3\nformat = plot\n\n"
        "[schedule]\nb0 = 2\nratio = 2\nsteps = 3\n"
    )
    monkeypatch.setenv("STACKY_THREADS", "2")
    code, out, _ = run(capsys, "count", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "rooted3"
    dat = next(p for p in tmp_path.iterdir() if p.suffix == ".dat")
    rows = dat.read_text().splitlines()
    assert len(rows) == 3 and all(len(r.split()) == 2 for r in rows)
    cfg_out = next(p for p in tmp_path.iterdir() if p.suffix == ".cfg" and p != cfg)
    assert "threads = 2" in cfg_out.read_text()


def test_count_config_with_legacy_seed_key(tmp_path, capsys):
    # `count` has no seed (no family is randomized); an old config that
    # still sets one loads and gives the same counts
    base = "[run]\nfamily = rooted3\n{}\n[schedule]\nb0 = 2\nratio = 2\nsteps = 3\n"
    reports = []
    for extra in ("", "seed = 5\n"):
        cfg = tmp_path / f"run{len(reports)}.cfg"
        cfg.write_text(base.format(extra))
        out = tmp_path / f"out{len(reports)}"
        code, text, err = run(capsys, "count", "--config", str(cfg), "--out", str(out))
        assert code == 0, err
        reports.append(json.loads(text))
        written = configparser.ConfigParser()
        written.read(next(p for p in out.iterdir() if p.suffix == ".cfg"))
        assert "seed" not in written["run"]
    assert reports[0]["samples"] == reports[1]["samples"]
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "rooted3", "--seed", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_threads_flag_beats_env_for_count_and_search(tmp_path, capsys, monkeypatch):
    from stacky_heights import counting

    # precedence is flag > STACKY_THREADS > config > 1 for both commands
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nfamily = bmun\nthreads = 3\n\n[schedule]\nb0 = 2\nsteps = 1\n")
    for env, flag, want in (("2", ["--threads", "1"], 1), ("2", [], 2), ("", [], 3)):
        monkeypatch.setenv("STACKY_THREADS", env)
        out = tmp_path / f"out{want}"
        code, _, err = run(capsys, "count", "--config", str(cfg), "--out", str(out), *flag)
        assert code == 0, err
        written = next(p for p in out.iterdir() if p.suffix == ".cfg")
        assert f"threads = {want}" in written.read_text()

    seen = []

    def fake_search(cutoff, delta, threads=1):
        seen.append(threads)
        return []

    monkeypatch.setenv("STACKY_THREADS", "2")
    # the CLI resolves the search kernels from counting when it runs them
    monkeypatch.setattr(counting, "vojta_search_444", fake_search)
    monkeypatch.setattr(counting, "vojta_search_ap5", fake_search)
    for kind in ("444", "ap5"):
        run_json(capsys, "search", "--kind", kind, "--cutoff", "50", "--delta", "0.3", "--threads", "1")
        run_json(capsys, "search", "--kind", kind, "--cutoff", "50", "--delta", "0.3")
    assert seen == [1, 2, 1, 2]
    monkeypatch.setenv("STACKY_THREADS", "two")
    code, _, err = run(capsys, "search", "--kind", "444", "--cutoff", "50", "--delta", "0.3")
    assert code == 2 and "STACKY_THREADS" in err


def test_count_json_roundtrip_through_fit(tmp_path, capsys):
    run(
        capsys, "count", "--family", "bmun", "--n", "2", "--b0", "8", "--ratio", "2",
        "--steps", "5", "--format", "json", "--out", str(tmp_path),
    )
    report_path = next(
        p for p in tmp_path.iterdir()
        if p.name.endswith(".json") and "checkpoint" not in p.name
    )
    obj = run_json(capsys, "fit", "--report", str(report_path), "--update")
    assert abs(obj["fit"]["a"] - 2) < 0.1
    saved = json.loads(report_path.read_text())
    assert saved["fit"] is not None


def _fit_input(kind, tmp_path, capsys):
    if kind == "directory":
        return tmp_path
    if kind == "checkpoint":
        run(capsys, "count", "--family", "bmun", "--b0", "8", "--steps", "2", "--out", str(tmp_path))
        return next(tmp_path.glob("*.checkpoint.json"))
    path = tmp_path / "report.json"
    path.write_text("[[8, 78], [16, 314]]" if kind == "json list" else "B,count\n8,78\n")
    return path


@pytest.mark.parametrize("kind", ["directory", "checkpoint", "json list", "not json"])
def test_fit_malformed_report_is_usage_error(tmp_path, capsys, kind):
    path = _fit_input(kind, tmp_path, capsys)
    code, out, err = run(capsys, "fit", "--report", str(path))
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert len(err.splitlines()) == 1, err


def test_fit_too_few_samples_stays_domain_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"family": "bmun", "samples": [[8, 78], [16, 314]]}))
    code, _, err = run(capsys, "fit", "--report", str(path))
    assert code == 3 and "domain error" in err


def test_count_out_is_a_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run(capsys, "count", "--family", "bmun", "--b0", "8", "--out", str(path))
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert len(err.splitlines()) == 1, err


def test_search_subcommand(capsys):
    obj = run_json(capsys, "search", "--kind", "444", "--cutoff", "2000", "--delta", "0.3")
    assert obj["count"] == 1 and obj["hits"] == [[81, 1250]]
    obj = run_json(capsys, "search", "--kind", "ap5", "--cutoff", "30", "--delta", "0.3")
    assert obj["hits"] == [
        [5, 10, 15, 20, 25],
        [6, 12, 18, 24, 30],
        [8, 12, 16, 20, 24],
        [10, 15, 20, 25, 30],
    ]


def test_search_444_cutoff_domain_error(capsys):
    code, out, err = run(capsys, "search", "--kind", "444", "--cutoff", str(2**20), "--delta", "0.3")
    assert code == 3 and out == ""
    assert "vojta_search_444" in err and "1048575" in err


def test_search_ap5_cutoff_domain_error(capsys):
    code, out, err = run(capsys, "search", "--kind", "ap5", "--cutoff", str(2**21), "--delta", "0.3")
    assert code == 3 and out == ""
    assert "vojta_search_ap5" in err and "2097151" in err


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", "--samples", "60", "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 5 and all(l.startswith("pass") for l in lines)
    # a different seed still passes (results don't depend on the sample draw)
    code, out, _ = run(capsys, "check", "--samples", "60", "--seed", "4")
    assert code == 0


def _record_kernel_calls(monkeypatch):
    """Replace every family's counter by one that records its call."""
    from stacky_heights import cli

    calls = []

    def recording(counter):
        def count(cfg, bounds):
            calls.append(bounds)
            return counter(cfg, bounds)

        return count

    for family, (counter, params) in list(cli.FAMILIES.items()):
        monkeypatch.setitem(cli.FAMILIES, family, (recording(counter), params))
    return calls


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nfamily = bmun\n\n[schedule]\nratoi = 3\n", "[schedule] ratoi"),
        ("[run]\nfamily = bmun\n\n[sched]\nratio = 3\n", "[sched]"),
        ("[run]\nfamily = bmun\nsteps = 3\n", "[run] steps"),
        ("[DEFAULT]\nratio = 3\n\n[run]\nfamily = bmun\n", "[DEFAULT]"),
        ("[run]\nfamily = rooted3\n\n[params]\nn = 3\n", "no parameter 'n'"),
        ("[run]\nfamily = nosuch\n", "got 'nosuch'"),
        ("family = bmun\n", "no section headers"),
        ("[run]\nfamily = bmun\nfamily = rooted3\n", "already exists"),
        ("[run]\nfamily = bmun\n[run]\nformat = json\n", "already exists"),
        ("[run]\nfamily = bmun\njunk\n", "parsing errors"),
        (b"[run]\nfamily = \xff\n", "config file"),
    ],
    ids=[
        "misspelt-key", "unknown-section", "key-in-other-section", "default-section",
        "undeclared-param", "unknown-family", "no-header", "duplicate-key",
        "duplicate-section", "no-equals", "not-utf8",
    ],
)
def test_count_config_undeclared_or_malformed_exits_2(tmp_path, capsys, monkeypatch, text, message):
    # refused before any kernel call and before --out is created
    calls = _record_kernel_calls(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "count", "--config", str(cfg), "--out", str(out))
    assert code == 2 and stdout == "" and err.startswith("error: "), err
    assert message in err, err
    assert calls == [] and not out.exists()


def test_count_parameter_the_family_does_not_declare_exits_2(tmp_path, capsys, monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    out = tmp_path / "out"
    for family in ("quadratic-fields", "football222", "rooted3", "quadratic-points"):
        code, stdout, err = run(
            capsys, "count", "--family", family, "--n", "7", "--b0", "10", "--steps", "1",
            "--out", str(out),
        )
        assert code == 2 and stdout == "" and f"{family} takes no parameter 'n'" in err, err
    assert calls == [] and not out.exists()


def test_count_percent_in_out_is_literal(tmp_path, capsys):
    # configparser's % interpolation would reject "res%1" when the resolved
    # config is written, after the counts; flag and file read it as text
    flag_out = tmp_path / "flag%1"
    conf_out = tmp_path / "conf%%1"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\nfamily = bmun\nout = {conf_out}\n\n[schedule]\nb0 = 8\nsteps = 2\n")
    reports = []
    for argv, out in (
        (["--family", "bmun", "--b0", "8", "--steps", "2", "--out", str(flag_out)], flag_out),
        (["--config", str(cfg)], conf_out),
    ):
        code, stdout, err = run(capsys, "count", *argv)
        assert code == 0, err
        reports.append(json.loads(stdout))
        written = next(p for p in out.iterdir() if p.suffix == ".cfg").read_text()
        assert f"out = {out}\n" in written
        assert {p.suffix for p in out.iterdir()} == {".cfg", ".json", ".csv"}
    assert reports[0] == reports[1]
    assert [n for _, n in reports[0]["samples"]] == [78, 314]


def test_count_resolved_cfg_reruns_the_same_run(tmp_path, capsys):
    # the .cfg a run writes names only declared settings, so it loads as a
    # config file and gives the same run id, counts and files
    first, second = tmp_path / "first", tmp_path / "second"
    code, out1, err = run(
        capsys, "count", "--family", "bmun", "--n", "3", "--b0", "5/2", "--ratio", "3/2",
        "--steps", "3", "--format", "plot", "--out", str(first),
    )
    assert code == 0, err
    written = next(p for p in first.iterdir() if p.suffix == ".cfg")
    code, out2, err = run(capsys, "count", "--config", str(written), "--out", str(second))
    assert code == 0, err
    assert out2 == out1  # the parameter is stored as the int --n gives
    assert sorted(p.name for p in second.iterdir()) == sorted(p.name for p in first.iterdir())
    rerun = (second / written.name).read_text()
    assert rerun == written.read_text().replace(f"out = {first}", f"out = {second}")


def test_count_parameter_text_and_flag_give_one_run(tmp_path, capsys):
    # [params] n = 03 and --n 3 are one run: one run id, so --resume finds
    # the checkpoint, and the same report bytes, with "n": 3
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nfamily = bmun\n\n[schedule]\nb0 = 3\nratio = 2\nsteps = 3\n\n[params]\nn = 03\n")
    code, out1, err = run(capsys, "count", "--config", str(cfg), "--out", str(from_file))
    assert code == 0, err
    flags = ["count", "--family", "bmun", "--n", "3", "--b0", "3", "--ratio", "2", "--steps", "3"]
    code, out2, err = run(capsys, *flags, "--out", str(from_flags))
    assert code == 0, err
    assert out1 == out2 and json.loads(out1)["params"] == {"n": 3}
    names = sorted(p.name for p in from_file.iterdir())
    assert names == sorted(p.name for p in from_flags.iterdir())
    for name in names:
        text = (from_file / name).read_text().replace(f"out = {from_file}", "out = X")
        assert text == (from_flags / name).read_text().replace(f"out = {from_flags}", "out = X")
    code, out3, err = run(capsys, *flags, "--out", str(from_file), "--resume")
    assert code == 0 and out3 == out1 and "one pass" not in err, err


def _parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which exits through
    argparse for help and usage errors."""
    with pytest.raises(SystemExit) as e:
        parse(list(argv))
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


# per command: its help, an error its own parser reports, and a flag it
# does not know, which the top-level parser reports with its usage line
PARSER_CASES = {
    "height": [["height", "--help"], ["height"], ["height", "nosuch"], ["height", "wps", "--nosuch"]],
    "malle": [["malle", "-h"], ["malle", "--degree", "3"], ["malle", "--degree", "3", "--gens", "", "-x"]],
    "count": [["count", "--help"], ["count", "--steps", "x"], ["count", "x", "--nosuch"]],
    "fit": [["fit", "--help"], ["fit"], ["fit", "--report", "r", "--nosuch"]],
    "search": [
        ["search", "--help"], ["search", "--kind", "9"],
        ["search", "--kind", "ap5", "--cutoff", "1", "--delta", "1", "--nosuch"],
    ],
    "check": [["check", "--help"], ["check", "--seed", "x"], ["check", "--nosuch"]],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, command):
    full = build_parser()
    for argv in PARSER_CASES[command]:
        want = _parse_outcome(capsys, full.parse_args, argv)
        assert want[0] in (0, 2) and want[1] + want[2]
        assert _parse_outcome(capsys, main, argv) == want, argv


def test_main_builds_only_the_invoked_command(capsys, monkeypatch):
    from stacky_heights import cli

    built = []

    def recording(only=None):
        built.append(only)
        return build_parser(only)

    monkeypatch.setattr(cli, "build_parser", recording)
    assert run(capsys, "malle", "--degree", "3", "--gens", "(1 2 3)")[0] == 0
    for argv in (["--help"], [], ["nosuch"], ["-h", "malle"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["malle", None, None, None, None]


def test_main_runs_the_handler_bound_to_the_command_name(capsys, monkeypatch):
    # a wrapper bound to cmd_<name> after import (as a tracer binds one) runs
    from stacky_heights import cli

    seen = []
    monkeypatch.setattr(cli, "cmd_malle", lambda args: seen.append(args.degree) or 0)
    assert run(capsys, "malle", "--degree", "3", "--gens", "(1 2 3)") == (0, "", "")
    assert seen == [3]


def test_main_keeps_no_parser_state_between_calls(tmp_path, capsys):
    # count, a usage error, a height query, then the same count again
    argv = ["count", "--family", "rooted3", "--b0", "2", "--steps", "3", "--out", str(tmp_path)]
    code, first, err = run(capsys, *argv)
    assert code == 0, err
    with pytest.raises(SystemExit) as e:
        main(["count", "--family", "rooted3", "--steps", "x"])
    assert e.value.code == 2 and "invalid int value" in capsys.readouterr().err
    code, _, err = run(capsys, "height", "quadratic", "--d", "5")
    assert code == 0, err
    code, second, err = run(capsys, *argv)
    assert code == 0 and second == first, err
