"""Checks of the workers' answers against the independent oracle.

Each function returns a list of problems (empty when everything holds).
Nothing here imports stacky_heights: the answers arrive as JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracle

# ----------------------------------------------------------------------
# heights

_TERMS = {
    "edd": lambda op: oracle.tangential_terms(op["roots"], op["point"]),
    "football_wps": lambda op: oracle.wps_terms(op["orders"], op["st"]),
    "engine_wps": lambda op: oracle.wps_terms(op["weights"], op["coords"]),
    "engine_bmun": lambda op: oracle.power_class_terms(op["x"], op["n"]),
    "cube": lambda op: oracle.cube_class_terms(op["x"]),
}


def heights(rounds: list[dict], check: dict | None) -> list[str]:
    problems = []
    for rnd in rounds:
        for rec in rnd["records"]:
            op = rec["op"]
            if not rec["ok"]:
                problems.append(f"identity fails for {op}")
            if op["kind"] == "sym2":
                fd = oracle.fundamental_discriminant_of_form(*op["form"])
                want = oracle.sym2_value(*op["form"])
                if rec["field_disc"] != fd:
                    problems.append(f"sym2 field discriminant {rec['field_disc']} != {fd} for {op}")
                if abs(rec["value"] - want) > 1e-9 * max(1.0, abs(want)):
                    problems.append(f"sym2 height {rec['value']} != {want} for {op}")
            elif "terms" in rec:
                got = {p: Fraction(n, d) for p, n, d in rec["terms"]}
                if got != _TERMS[op["kind"]](op):
                    problems.append(f"term map differs from the oracle for {op}")
    return problems


# ----------------------------------------------------------------------
# count


def _bounds(op: dict) -> list[Fraction]:
    b0, ratio = Fraction(op["b0"]), Fraction(op["ratio"])
    return [b0 * ratio**k for k in range(int(op["steps"]))]


_EXPECTED_FILES = ["cfg", "checkpoint.json", "csv", "json"]


def _schedule_properties(rec: dict, fields_memo: dict) -> list[str]:
    op, counts = rec["op"], rec["counts"]
    bounds = _bounds(op)
    name = f"{op['family']} from {op['b0']}"
    problems = []
    if rec["files"] != _EXPECTED_FILES:
        problems.append(f"{name}: output files {rec['files']}")
    if len(counts) != len(bounds):
        return problems + [f"{name}: {len(counts)} samples for {len(bounds)} bounds"]
    if any(x > y for x, y in zip(counts, counts[1:])):
        problems.append(f"{name}: counts decrease along the schedule {counts}")
    for B, n in zip(bounds, counts):
        if op["family"] == "football222":
            # (a, b) <-> (b, a) pairs off everything but (1, 1)
            if n % 2 != 1:
                problems.append(f"{name}: even count {n} at B={B}")
            if n < 0.5 * 6 / math.pi**2 * float(B):
                problems.append(f"{name}: count {n} below the coprime-box floor at B={B}")
        elif op["family"] == "quadratic-fields":
            X = math.floor(B)
            if X not in fields_memo:
                fields_memo[X] = oracle.quadratic_field_count(X)
            if n != fields_memo[X]:
                problems.append(f"{name}: {n} fields at X={X}, oracle {fields_memo[X]}")
    return problems


_NAIVE = {
    "football222": lambda op, B: oracle.naive_football222(B),
    "rooted3": lambda op, B: oracle.naive_rooted3(B),
    "quadratic-points": lambda op, B: oracle.naive_quadratic_points(B),
    "quadratic-fields": lambda op, B: oracle.naive_quadratic_fields(math.floor(B)),
    "bmun": lambda op, B: oracle.naive_bmun(int(op["n"]), B),
}


def count(rounds: list[dict], check: dict) -> list[str]:
    problems = []
    fields_memo: dict[int, int] = {}
    seen: dict[str, list] = {}
    for rnd in rounds:
        for rec in rnd["records"]:
            key = f"{rec['op']}"
            if key in seen:
                if rec["counts"] != seen[key]:
                    problems.append(f"{key}: two rounds gave different counts")
                continue
            seen[key] = rec["counts"]
            problems += _schedule_properties(rec, fields_memo)
    for rec in check["small"]:
        problems += _schedule_properties(rec, fields_memo)
        op = rec["op"]
        for B, n in zip(_bounds(op), rec["counts"]):
            want = _NAIVE[op["family"]](op, B)
            if n != want:
                problems.append(f"{op['family']} at B={B}: {n}, naive enumeration {want}")
    return problems


# ----------------------------------------------------------------------
# search


def _hit_problems(rec: dict) -> list[str]:
    op, hits = rec["op"], [tuple(h) for h in rec["hits"]]
    expo = 1 - Fraction(op["delta"])
    name = f"{op['kind']} at {op['cutoff']}"
    problems = []
    if hits != sorted(set(hits)):
        problems.append(f"{name}: hits are not sorted and distinct")
    if op["kind"] == "ap5":
        spf = oracle.spf_table(op["cutoff"])
        bad = [h for h in hits if not oracle.ap5_hit_ok(h, op["cutoff"], expo, spf)]
    else:
        bad = [h for h in hits if not oracle.v444_hit_ok(*h, op["cutoff"], expo)]
    if bad:
        problems.append(f"{name}: {len(bad)} reported hits fail the exact test, e.g. {bad[0]}")
    return problems


def search(rounds: list[dict], check: dict) -> list[str]:
    problems = []
    verified: dict[str, list] = {}
    for rnd in rounds:
        for rec in rnd["records"]:
            key = f"{rec['op']}"
            if key in verified:
                if rec["hits"] != verified[key]:
                    problems.append(f"{key}: two rounds gave different hits")
                continue
            verified[key] = rec["hits"]
            problems += _hit_problems(rec)
    for rec in check["small"]:
        op = rec["op"]
        expo = 1 - Fraction(op["delta"])
        naive = oracle.naive_ap5 if op["kind"] == "ap5" else oracle.naive_444
        if [tuple(h) for h in rec["hits"]] != naive(op["cutoff"], expo):
            problems.append(f"{op}: hit list differs from the naive search")
    for rec in check["threads"]:
        if rec["serial"] != rec["parallel"]:
            problems.append(f"{rec['op']}: threads=1 and threads=2 disagree")
    return problems


CHECKS = {"heights": heights, "count": count, "search": search}
