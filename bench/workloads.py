"""The benchmark's three workloads.

For each workload:
  inputs(seed, round) -> list of operations, plain data made from the seed
                         with no program code;
  run(prog, op)       -> the program's answer to one operation (timed);
  record(op, answer)  -> what the orchestrator's oracle needs to check it;
  check_phase(prog, seed) -> extra untimed runs the oracle compares against
                             naive enumeration.

`prog` holds the program's modules (sh, checks, cli) and a scratch
directory; every call goes through a module attribute so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

# ----------------------------------------------------------------------
# heights: single exact-height queries, each checking one identity

# Queries per round, by kind.  edd/tangential dominates, as in the
# criterion-01 workload; sym2 is the small floating-point share.
HEIGHTS_MIX = (
    ("edd", 440),
    ("football_wps", 150),
    ("engine_wps", 100),
    ("engine_bmun", 100),
    ("cube", 150),
    ("sym2", 60),
)
# Every ORACLE_EVERY-th query has its full term map recomputed by the oracle.
ORACLE_EVERY = 8

_FW_PAIRS = [(a, b) for a in range(2, 7) for b in range(a + 1, 7) if math.gcd(a, b) == 1]


def _gen_edd(rng: random.Random) -> dict:
    r = rng.randint(0, 4)
    roots: list[tuple[int, int, int]] = []
    while len(roots) < r:
        u, v = rng.randint(-9, 9), rng.randint(-9, 9)
        if (u, v) == (0, 0) or math.gcd(u, v) != 1:
            continue
        if any(u * v2 - u2 * v == 0 for u2, v2, _ in roots):
            continue
        roots.append((u, v, rng.randint(2, 6)))
    while True:
        a, b = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        if (a, b) == (0, 0) or math.gcd(a, b) != 1:
            continue
        vals = [u * a + v * b for u, v, _ in roots]
        if 0 in vals:
            continue
        # A prime dividing two root values is where edd and the tangential
        # height differ by design (the reduced discriminant counts it once).
        if any(math.gcd(x, y) != 1 for i, x in enumerate(vals) for y in vals[i + 1 :]):
            continue
        return {"roots": roots, "point": (a, b)}


def _gen_football_wps(rng: random.Random) -> dict:
    a, b = _FW_PAIRS[rng.randrange(len(_FW_PAIRS))]
    n, m = next(
        (n, m) for n in range(-b + 1, b) for m in range(-a, a + 1) if m * a + n * b == 1
    )
    s = rng.randint(1, 10**4) * rng.choice((1, -1))
    t = rng.randint(1, 10**4)
    g = math.gcd(s, t)
    return {"orders": (a, b), "divisor": (n, m), "st": (s // g, t // g)}


def _gen_engine_wps(rng: random.Random) -> dict:
    k = rng.randint(1, 4)
    weights = tuple(rng.randint(1, 6) for _ in range(k))
    coords = tuple(rng.randint(-(10**4), 10**4) for _ in range(k))
    if all(c == 0 for c in coords):
        coords = coords[:-1] + (1,)
    return {"weights": weights, "coords": coords}


def _gen_engine_bmun(rng: random.Random) -> dict:
    return {"n": rng.randint(2, 6), "x": rng.randint(1, 10**9) * rng.choice((1, -1))}


def _gen_cube(rng: random.Random) -> dict:
    while True:
        x = rng.randint(2, 10**9)
        r = round(x ** (1 / 3))
        if x % 3 and all(c**3 != x for c in (r - 1, r, r + 1)):
            return {"x": x}


def _gen_sym2(rng: random.Random) -> dict:
    while True:
        a = rng.randint(1, 10**6)
        b, c = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
        disc = b * b - 4 * a * c
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            continue
        return {"form": (a, b, c)}


_HEIGHT_GEN = {
    "edd": _gen_edd,
    "football_wps": _gen_football_wps,
    "engine_wps": _gen_engine_wps,
    "engine_bmun": _gen_engine_bmun,
    "cube": _gen_cube,
    "sym2": _gen_sym2,
}


def heights_inputs(seed: int, rnd: int) -> list[dict]:
    rng = random.Random(f"heights:{seed}:{rnd}")
    kinds = [kind for kind, n in HEIGHTS_MIX for _ in range(n)]
    rng.shuffle(kinds)
    ops = []
    for i, kind in enumerate(kinds):
        op = _HEIGHT_GEN[kind](rng)
        op["kind"] = kind
        op["sampled"] = i % ORACLE_EVERY == 0
        ops.append(op)
    return ops


def _argmax_coord(weights, coords) -> int:
    """Index attaining max |M_i|^(1/a_i), compared exactly via cross powers."""
    best = None
    for i, m in enumerate(coords):
        if m == 0:
            continue
        if best is None or abs(m) ** weights[best] > abs(coords[best]) ** weights[i]:
            best = i
    return best


def heights_run(prog, op: dict):
    """(identity holds, height to report) for one query."""
    sh = prog.sh
    kind = op["kind"]
    if kind == "edd":
        line = sh.RootedLine(tuple(((u, v), m) for u, v, m in op["roots"]))
        tangential = sh.tangential_height(line, op["point"])
        return sh.edd(line, op["point"]) == tangential, tangential
    if kind == "football_wps":
        (a, b), (n, m), (s, t) = op["orders"], op["divisor"], op["st"]
        wph = sh.height_O1(sh.WeightedPoint((a, b), (s, t)))
        fb = sh.generic_height(sh.football(a, b), sh.StackDivisor(0, (n, m)), (t**a, s**b))
        return fb.total == wph, wph
    if kind == "engine_wps":
        pt = sh.minimal_form(op["weights"], op["coords"])
        engine = sh.height_Oj(pt, 1)
        i = _argmax_coord(pt.weights, pt.coords)
        closed = sh.ExactHeight.log_abs(abs(pt.coords[i]), Fraction(1, pt.weights[i]))
        return engine == closed, engine
    if kind == "engine_bmun":
        n = op["n"]
        c = sh.class_of(op["x"], n)
        engine = sh.height_from_sections(n, [c.rep])
        return engine == sh.ExactHeight.log_abs(c.rep, Fraction(1, n)), engine
    if kind == "cube":
        c = sh.class_of(op["x"], 3)
        h = sh.bmu3_vector_height(c)
        disc = dict(sh.factor(abs(prog.checks.pure_cubic_discriminant(c.rep))).factors)
        primes = (set(h.terms) | set(disc)) - {3}
        ok = all(h.coefficient(p) == Fraction(disc.get(p, 0), 2) for p in primes)
        return ok, h
    if kind == "sym2":
        q = sh.QuadraticPoint.irreducible(*op["form"])
        return True, (sh.sym_height(q), q.field_discriminant())
    raise ValueError(f"unknown query kind {kind!r}")


def heights_record(op: dict, answer) -> dict | None:
    ok, value = answer
    if op["kind"] == "sym2":
        return {"op": op, "ok": ok, "value": value[0], "field_disc": value[1]}
    if ok and not op["sampled"]:
        return None
    terms = [[p, c.numerator, c.denominator] for p, c in sorted(value.terms.items())]
    return {"op": op, "ok": ok, "terms": terms}


# ----------------------------------------------------------------------
# count: serial `stacky-heights count` runs through cli.main


def count_inputs(seed: int, rnd: int) -> list[dict]:
    """The same schedules in every round of a run (each round is a fresh
    interpreter, so no cache carries over); the seed moves the bounds.

    Three schedules take under 0.2 s and three over 0.5 s, so the median
    operation is always the smaller quadratic-points schedule rather than
    the edge of a cluster of unlike ones.
    """
    rng = random.Random(f"count:{seed}")
    f222_b0 = Fraction(rng.randint(1480, 1520), 10)
    rooted3_b0 = Fraction(rng.randint(990, 1010), 100)
    fields_b0 = rng.randint(9900, 10100)
    bmun_b0 = rng.randint(95, 105)
    return [
        {"family": "football222", "b0": f222_b0, "ratio": Fraction(2), "steps": 4},
        {"family": "rooted3", "b0": rooted3_b0, "ratio": Fraction(5, 4), "steps": 50},
        # B^2 must have denominator <= 1000 and the kernel is O(B^6): fixed.
        {"family": "quadratic-points", "b0": Fraction(2), "ratio": Fraction(3, 2), "steps": 5},
        {"family": "quadratic-points", "b0": Fraction(3, 2), "ratio": Fraction(2), "steps": 4},
        {"family": "quadratic-fields", "b0": Fraction(fields_b0), "ratio": Fraction(10), "steps": 4},
        {"family": "bmun", "n": 2, "b0": Fraction(bmun_b0), "ratio": Fraction(10), "steps": 4},
        {"family": "bmun", "n": 3, "b0": Fraction(bmun_b0), "ratio": Fraction(10), "steps": 4},
    ]


def _count_argv(op: dict, out: str) -> list[str]:
    argv = [
        "count", "--family", op["family"], "--b0", str(op["b0"]),
        "--ratio", str(op["ratio"]), "--steps", str(op["steps"]),
        "--threads", "1", "--format", "csv", "--out", out,
    ]
    if "n" in op:
        argv += ["--n", str(op["n"])]
    return argv


def count_run(prog, op: dict):
    """One CLI count run into a fresh output directory; stdout and stderr
    are captured, as a caller piping them would."""
    with tempfile.TemporaryDirectory(dir=prog.scratch) as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = prog.cli.main(_count_argv(op, out))
        files = sorted(p.name.split(".", 1)[1] for p in Path(out).iterdir())
    if rc != 0:
        raise RuntimeError(f"count exited {rc}: {stderr.getvalue().strip()}")
    return json.loads(stdout.getvalue()), files


def count_record(op: dict, answer) -> dict:
    report, files = answer
    return {
        "op": {k: str(v) if isinstance(v, Fraction) else v for k, v in op.items()},
        "counts": [n for _, n in report["samples"]],
        "files": files,
    }


# Small schedules compared with naive enumeration, through the same CLI path.
COUNT_SMALL = [
    {"family": "football222", "b0": Fraction(2), "ratio": Fraction(3, 2), "steps": 6},
    {"family": "rooted3", "b0": Fraction(2), "ratio": Fraction(2), "steps": 5},
    {"family": "quadratic-points", "b0": Fraction(1), "ratio": Fraction(3, 2), "steps": 4},
    {"family": "quadratic-fields", "b0": Fraction(10), "ratio": Fraction(3), "steps": 5},
    {"family": "bmun", "n": 2, "b0": Fraction(2), "ratio": Fraction(2), "steps": 4},
    {"family": "bmun", "n": 3, "b0": Fraction(2), "ratio": Fraction(2), "steps": 4},
    {"family": "bmun", "n": 4, "b0": Fraction(2), "ratio": Fraction(3, 2), "steps": 3},
]


def count_check_phase(prog, seed: int) -> dict:
    return {"small": [count_record(op, count_run(prog, op)) for op in COUNT_SMALL]}


# ----------------------------------------------------------------------
# search: the two Vojta-exception searches at threads=2


def search_inputs(seed: int, rnd: int) -> list[dict]:
    """Two ap5 searches and one 444 search per round.  The 444 cutoff stays
    below the ~1.05e6 cap where the m = 4 sieve would overflow int64."""
    rng = random.Random(f"search:{seed}")
    return [
        {"kind": "ap5", "cutoff": 20000 + rng.randint(-200, 200), "delta": "0.3"},
        {"kind": "ap5", "cutoff": 15000 + rng.randint(-150, 150), "delta": "0.25"},
        {"kind": "444", "cutoff": 1_000_000 - rng.randint(0, 20000), "delta": "0.2"},
    ]


def search_run(prog, op: dict, threads: int = 2):
    fn = prog.sh.vojta_search_ap5 if op["kind"] == "ap5" else prog.sh.vojta_search_444
    return fn(op["cutoff"], float(op["delta"]), threads=threads)


def search_record(op: dict, answer) -> dict:
    return {"op": op, "hits": [list(h) for h in answer]}


# Naive-search comparisons (small cutoffs) and thread-count invariance.
SEARCH_SMALL = [
    {"kind": "ap5", "cutoff": 600, "delta": "0.3"},
    {"kind": "444", "cutoff": 400, "delta": "0.4"},
]
SEARCH_THREADS = [
    {"kind": "ap5", "cutoff": 4000, "delta": "0.3"},
    {"kind": "444", "cutoff": 200_000, "delta": "0.2"},
]


def search_check_phase(prog, seed: int) -> dict:
    small = [search_record(op, search_run(prog, op)) for op in SEARCH_SMALL]
    threads = [
        {
            "op": op,
            "serial": [list(h) for h in search_run(prog, op, threads=1)],
            "parallel": [list(h) for h in search_run(prog, op, threads=2)],
        }
        for op in SEARCH_THREADS
    ]
    return {"small": small, "threads": threads}


WORKLOADS = {
    "heights": (heights_inputs, heights_run, heights_record, None),
    "count": (count_inputs, count_run, count_record, count_check_phase),
    "search": (search_inputs, search_run, search_record, search_check_phase),
}
