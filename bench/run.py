"""Benchmark runner for stacky-heights: three workloads, each round in a
fresh interpreter, every answer checked by an independent oracle.

    python3 bench/run.py --workload heights --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # heights, count and search

A run measures `--seconds` seconds of whole rounds of one workload and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (setup_s, wall_s, peak_rss_mb, op_p50_ms, op_p99_ms);
with --trace 1 every round runs twice, untraced and traced, and the
metrics are the per-layer ones plus trace.overhead_ratio.  Provenance,
per-round figures and any problems go to .bench_out/ in the checkout.

The runner itself never imports the program; it starts bench/worker.py
for each round with src/ on PYTHONPATH and STACKY_THREADS removed, so
thread counts are only those the workloads pass explicitly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sympy

import tracing
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_PROBES = 9
SETUP_PROBE = "import stacky_heights; stacky_heights.factor(360)"
# A run must end within 180 s; rounds stop starting after --seconds and a
# child still running at this deadline is killed and the run fails.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STACKY_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], deadline: float) -> None:
    """Run a child in its own process group; kill the group at the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed")
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(argv)} exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{err.strip()}")


def _worker(workload: str, seed: int, deadline: float, *, rnd: int = 0,
            trace: int = 0, phase: str = "round") -> dict:
    out = OUT / "rounds" / f"{workload}-{phase}-r{rnd}-t{trace}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--round", str(rnd), "--trace", str(trace),
        "--phase", phase, "--src", str(SRC), "--scratch", str(OUT / "tmp"),
        "--out", str(out),
    ]
    if trace:
        argv += ["--spans", str(OUT / "spans" / f"{workload}-r{rnd}.jsonl.gz")]
    _run_child(argv, deadline)
    return json.loads(out.read_text())


def _setup_probe(deadline: float) -> float:
    """Wall time of a fresh interpreter importing the package and making
    one trivial call, as a user's first command would."""
    t0 = time.perf_counter()
    _run_child([sys.executable, "-c", SETUP_PROBE], deadline)
    return time.perf_counter() - t0


def provenance(env: dict) -> dict:
    files = sorted((SRC / "stacky_heights").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": env["python"],
        "numpy": env["numpy"],
        "sympy": sympy.__version__,
        "stacky_heights": env["stacky_heights"],
        "commit": commit,
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    for sub in ("rounds", "tmp", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    if trace:
        for old in (OUT / "spans").glob(f"{workload}-r*.jsonl.gz"):
            old.unlink()
    # Set-up probes are spread between the rounds, so that a slow stretch
    # of the machine does not catch all of them.
    probes = 0 if trace else SETUP_PROBES
    setup: list[float] = []
    plain, traced = [], []
    t_rounds = time.monotonic()
    while not plain or time.monotonic() - t_rounds < seconds:
        if len(setup) < probes:
            setup.append(_setup_probe(deadline))
        rnd = len(plain)
        plain.append(_worker(workload, seed, deadline, rnd=rnd))
        if trace:
            traced.append(_worker(workload, seed, deadline, rnd=rnd, trace=1))
    while len(setup) < probes:
        setup.append(_setup_probe(deadline))
    check = (
        _worker(workload, seed, deadline, phase="check")["check"]
        if workloads.WORKLOADS[workload][3] is not None else None
    )
    problems = verify.CHECKS[workload](plain + traced, check)

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        values = tracing.median_metrics([r["layers"] for r in traced])
        values["trace.overhead_ratio"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in plain)
        units = tracing.LAYER_UNITS
    else:
        latencies = [x for r in plain for x in r["latencies"]]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            # inclusive: with a few dozen samples the exclusive method would
            # extrapolate past the slowest operation
            "op_p99_ms": 1e3 * statistics.quantiles(
                latencies, n=100, method="inclusive"
            )[98],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(plain[0]["env"]),
        "rounds": len(plain),
        "operations_per_round": plain[0]["attempted"],
        "latency_samples": sum(len(r["latencies"]) for r in plain),
        "setup_probes_s": setup,
        "round_wall_s": [r["wall_s"] for r in plain],
        "traced_round_wall_s": [r["wall_s"] for r in traced],
        "round_latencies_s": [r["latencies"] for r in plain],
        "errors": [e for r in rounds for e in r["errors"]],
        "problems": problems[:50],
        "elapsed_s": time.monotonic() - start,
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def _summary(result: dict) -> str:
    lines = [
        f"{result['workload']}: {result['rounds']} rounds of "
        f"{result['operations_per_round']} operations, attempted "
        f"{result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for p in result["problems"][:5]:
        lines.append(f"  problem: {p}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stacky_heights" / "__init__.py").is_file():
        print(f"error: no stacky_heights package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(_summary(result), file=sys.stderr)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)

    for r in results:
        print(json.dumps({"workload": r["workload"], "provenance": r["provenance"]}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
