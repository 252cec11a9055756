"""One round, or the check phase, of a workload in a fresh interpreter.

run.py starts this file once per round so that no round sees another's
lru_cache entries (arith._factor_abs keeps 65 536 factorizations) or
memory.  It imports the program from the --src directory only, runs the
round's operations back to back (closed loop, one client), and writes
latencies, answers for the oracle, peak RSS and, when traced, the
per-layer metrics to --out.

    python3 bench/worker.py --workload heights --seed 0 --round 0 \\
        --trace 0 --src src --scratch .bench_out/tmp --out round.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
import time
import types
from pathlib import Path

import tracing
import workloads


def _load_program(src: Path, scratch: Path):
    sh = importlib.import_module("stacky_heights")
    where = Path(sh.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"stacky_heights was imported from {where}, not from {src}")
    return types.SimpleNamespace(
        sh=sh,
        checks=importlib.import_module("stacky_heights.checks"),
        cli=importlib.import_module("stacky_heights.cli"),
        scratch=scratch,
    )


def _run_round(prog, workload: str, seed: int, rnd: int, tracer) -> dict:
    inputs, run, record, _ = workloads.WORKLOADS[workload]
    ops = inputs(seed, rnd)
    answers: list = []
    latencies: list[float] = []
    errors: list[dict] = []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            answer = run(prog, op)
        except Exception as exc:  # counted as a failed operation; the round goes on
            latencies.append(clock() - t0)
            errors.append({"op": i, "error": repr(exc)})
            answers.append(None)
            continue
        latencies.append(clock() - t0)
        answers.append(answer)
    wall = clock() - start
    records = []
    for op, answer in zip(ops, answers):
        if answer is not None:
            rec = record(op, answer)
            if rec is not None:
                records.append(rec)
    return {
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "records": records,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("round", "check"), default="round")
    ap.add_argument("--src", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="gzip JSON-lines file for the spans of a traced round")
    args = ap.parse_args(argv)

    prog = _load_program(Path(args.src), Path(args.scratch))
    import numpy

    result: dict = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "stacky_heights": prog.sh.__version__,
            "module": prog.sh.__file__,
        }
    }
    if args.phase == "check":
        result["check"] = workloads.WORKLOADS[args.workload][3](prog, args.seed)
    else:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            result["sites"] = tracing.install(tracer)
        result.update(_run_round(prog, args.workload, args.seed, args.round, tracer))
        if tracer is not None:
            layers, calls = tracing.layer_metrics(tracer.spans)
            missing = [n for n in tracing.REQUIRED[args.workload] if not calls.get(n)]
            if missing:
                print(f"traced functions never called: {', '.join(missing)}", file=sys.stderr)
                return 3
            result["layers"] = layers
            result["calls"] = calls
            if args.spans:
                tracer.write(args.spans)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["rss_mb"] = peak_kb / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
