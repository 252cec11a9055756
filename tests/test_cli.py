import configparser
import json
import math
import os
from fractions import Fraction as F

import pytest

from stacky_heights.arith import factor
from stacky_heights.cli import main, parse_cycles, parse_line


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
    counter = cli.FAMILIES["football222"]

    def recording(cfg, Bs):
        calls.append(list(Bs))
        return counter(cfg, Bs)

    saves = []
    save = cli._save_checkpoint

    def recording_save(path, samples):
        saves.append(dict(samples))
        save(path, samples)

    monkeypatch.setitem(cli.FAMILIES, "football222", recording)
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
        raise AssertionError("the Moebius table was built")

    monkeypatch.setattr(counting, "_mobius_upto", no_table)
    code, out, err = run(
        capsys, "count", "--family", "bmun", "--n", "2", "--b0", "1000000000",
        "--steps", "1", "--out", str(tmp_path),
    )
    assert code == 3 and out == ""
    assert "count_bmun" in err and "2^25" in err


@pytest.mark.parametrize(
    "family, kernel, builder, b0, cap",
    [
        ("quadratic-fields", "count_quadratic_fields", "_mobius_upto", "10000000000", "2^30"),
        ("rooted3", "count_rooted3_at_0", "sieve_power_free_parts", "100000000000", "2^25"),
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
    from stacky_heights import cli

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
    monkeypatch.setattr(cli, "vojta_search_444", fake_search)
    monkeypatch.setattr(cli, "vojta_search_ap5", fake_search)
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
