"""Command-line surface: height queries, counting runs, fits, searches, and
the cross-validation check suite.

Exit codes: 0 success, 2 argument/parse problems, 3 domain errors raised by
the library (singular curve, zero input, and so on).

A counting run takes each setting of SETTINGS, and each parameter its
family declares in FAMILIES, from its flag, else (threads only) the
STACKY_THREADS environment variable, else an INI config file, else the
declared default.  The file is read literally (no % interpolation); a
section, key or parameter that nothing declares, or a file configparser
cannot parse, exits 2 before any counting.  Every run writes its resolved
config next to its output, plus a checkpoint keyed by family, parameters
and bound, so interrupted runs resume; the bounds a checkpoint lacks are
counted in one kernel call.  Bounds are exact decimal fractions, so reruns
are reproducible bit for bit.  `search` takes its thread count from the
flag, else STACKY_THREADS, else 1.

The counting layer, and numpy with it, is imported only by the commands
that count, fit, search or check; height and malle never load it.  Each
call builds the parser of the one command it runs, from the table
COMMANDS; only top-level help and errors build the parser of them all.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .classifying import PermGroup, class_of, bmun_height, malle_exponent, quadratic_height
from .football import RootedLine, StackDivisor, generic_height, tangent_divisor
from .sympow import QuadraticPoint, abs_height, discrepancy, stable_sym_height, sym_height
from .wps import WeightedPoint, elliptic_naive_height, height_Oj, hyperelliptic_height

SCHEMA = "stacky-heights/1"


class UsageError(ValueError):
    """Bad user input (exit code 2, as opposed to domain errors at 3)."""


# ----------------------------------------------------------------------
# small parsers


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from e


def _int(text, what: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise UsageError(f"{what} must be an integer, got {text!r}") from e


def _rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"expected a rational number, got {text!r}") from e


def parse_line(text: str) -> RootedLine:
    """Rooted lines as "u1,v1,m1;u2,v2,m2;..." (empty string: no roots)."""
    roots = []
    if text.strip():
        for part in text.split(";"):
            vals = _ints(part)
            if len(vals) != 3:
                raise UsageError(f"root {part!r} is not u,v,m")
            u, v, m = vals
            roots.append(((u, v), m))
    try:
        return RootedLine(tuple(roots))
    except ValueError as e:
        raise UsageError(str(e)) from e


def parse_divisor(text: str, line: RootedLine) -> StackDivisor:
    """Divisors as "d;n1,n2,..." aligned with the line's roots."""
    parts = text.split(";")
    if len(parts) == 1:
        d, stacky = parts[0], ""
    elif len(parts) == 2:
        d, stacky = parts
    else:
        raise UsageError(f"divisor {text!r} is not d;n1,n2,...")
    coeffs = _ints(stacky) if stacky.strip() else ()
    if len(coeffs) != len(line.roots):
        raise UsageError(
            f"divisor has {len(coeffs)} stacky coefficients, line has {len(line.roots)} roots"
        )
    try:
        return StackDivisor(int(d), coeffs)
    except ValueError as e:
        raise UsageError(str(e)) from e


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """One permutation in cycle notation, e.g. "(1 2 3)(4 5)", 1-based."""
    perm = list(range(degree))
    text = text.strip()
    if not text:
        return tuple(perm)
    if not re.fullmatch(r"(\([\d\s,]*\))+", text):
        raise UsageError(f"bad cycle notation {text!r}")
    for cyc in text[1:-1].split(")("):
        members = [int(x) - 1 for x in cyc.replace(",", " ").split()]
        if any(not 0 <= x < degree for x in members):
            raise UsageError(f"cycle entry out of range in {text!r}")
        if len(set(members)) != len(members):
            raise UsageError(f"repeated entry in cycle {text!r}")
        for i, x in enumerate(members):
            perm[x] = members[(i + 1) % len(members)]
    return tuple(perm)


# ----------------------------------------------------------------------
# height subcommand


def _emit(payload: dict, kind: str) -> None:
    out = {"schema": SCHEMA, "kind": kind}
    out.update(payload)
    print(json.dumps(out, indent=2))


def cmd_height(args) -> int:
    fam = args.family
    if fam == "wps":
        if args.point:
            try:
                w, c = args.point.split(":")
            except ValueError as e:
                raise UsageError("wps point must be 'a0,a1,...:M0,M1,...'") from e
            weights, coords = _ints(w), _ints(c)
        else:
            if args.weights is None or args.coords is None:
                raise UsageError("need --weights and --coords (or --point)")
            weights, coords = _ints(args.weights), _ints(args.coords)
        if len(weights) != len(coords):
            raise UsageError(f"{len(weights)} weights but {len(coords)} coordinates")
        h = height_Oj(WeightedPoint(weights, coords), args.j)
        _emit({"height": h.to_json()}, "height")
    elif fam == "bmun":
        if args.n is None or args.x is None:
            raise UsageError("need --n and --x")
        h = bmun_height(class_of(_rational(args.x), args.n), args.j)
        _emit({"height": h.to_json()}, "height")
    elif fam == "quadratic":
        if args.d is None:
            raise UsageError("need --d (squarefree, not 0 or 1)")
        _emit({"height": quadratic_height(args.d).to_json()}, "height")
    elif fam == "football":
        if args.line is None or args.point is None:
            raise UsageError("need --line and --point")
        line = parse_line(args.line)
        pt = _ints(args.point)
        if len(pt) != 2:
            raise UsageError("football point must be a,b")
        a, b = pt
        if args.tangent:
            div = tangent_divisor(line)
        elif args.divisor:
            div = parse_divisor(args.divisor, line)
        else:
            raise UsageError("need --divisor or --tangent")
        hb = generic_height(line, div, (a, b))
        _emit({"breakdown": hb.to_json()}, "breakdown")
    elif fam == "elliptic":
        if args.A is None or args.B is None:
            raise UsageError("need --A and --B")
        _emit({"height": elliptic_naive_height(args.A, args.B).to_json()}, "height")
    elif fam == "hyperelliptic":
        if args.coeffs is None:
            raise UsageError("need --coeffs a2,a3,...")
        h = hyperelliptic_height(_ints(args.coeffs))
        _emit({"height": h.to_json()}, "height")
    elif fam == "sym2":
        if args.form is None:
            raise UsageError("need --form a,b,c")
        form = _ints(args.form)
        if len(form) != 3:
            raise UsageError("sym2 form must be a,b,c")
        q = QuadraticPoint.irreducible(*form)
        _emit(
            {
                "stable": stable_sym_height(q),
                "discrepancy": discrepancy(q),
                "total": sym_height(q),
                "abs_height": abs_height(q),
            },
            "sym2",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {fam!r}")
    return 0


def cmd_malle(args) -> int:
    gens = [parse_cycles(g, args.degree) for g in args.gens.split(";")] if args.gens else []
    try:
        G = PermGroup.from_generators(args.degree, gens)
        expo = malle_exponent(G)
    except ValueError as e:
        raise UsageError(str(e)) from e
    _emit(
        {
            "degree": args.degree,
            "order": len(G),
            "exponent": [expo.numerator, expo.denominator],
            "exponent_value": float(expo),
        },
        "malle",
    )
    return 0


# ----------------------------------------------------------------------
# counting runs


# The run settings, INI section -> key -> default: load_config reads them and
# resolved_ini writes them back.  [params] holds what the family declares.
SETTINGS = {
    "run": {"family": None, "format": "csv", "threads": "1", "out": "."},
    "schedule": {"b0": "10", "ratio": "2", "steps": "4"},
}


@dataclass
class RunConfig:
    family: str
    params: dict
    b0: Fraction
    ratio: Fraction
    steps: int
    format: str
    threads: int
    out: Path

    def __post_init__(self):
        if self.family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise UsageError(f"need --family or [run] family, one of {known}; got {self.family!r}")
        self.params = {name: self.param(name) for name in self.params}  # "03" -> 3
        if self.steps < 1:
            raise UsageError("schedule needs at least one step")
        if self.ratio <= 1:
            raise UsageError("schedule ratio must exceed 1 (strictly increasing)")
        if self.b0 <= 0:
            raise UsageError("schedule start must be positive")
        if self.format not in ("csv", "json", "plot"):
            raise UsageError(f"unknown format {self.format!r}")
        try:  # the report stores float(B), so the bounds must stay distinct floats
            floats = [float(b) for b in self.bounds()]
        except OverflowError:
            raise UsageError("schedule bounds must be below the largest float") from None
        if any(x >= y for x, y in zip(floats, floats[1:])):
            raise UsageError("schedule bounds collide as floats; use a larger ratio")

    def param(self, name: str) -> int:
        """A parameter the family declares, as an int: as given, else its default."""
        declared = FAMILIES[self.family][1]
        if name not in declared:
            raise UsageError(f"family {self.family} takes no parameter {name!r}")
        return _int(self.params.get(name, declared[name]), name)

    def bounds(self) -> list[Fraction]:
        return [self.b0 * self.ratio**k for k in range(self.steps)]

    def canonical(self) -> str:
        params = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.family}|{params}|{self.b0}|{self.ratio}|{self.steps}"

    def run_id(self) -> str:
        digest = hashlib.sha256(self.canonical().encode()).hexdigest()[:12]
        return f"{self.family}-{digest}"

    def resolved_ini(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)  # read_dict stores str(value)
        cp.read_dict({s: {k: getattr(self, k) for k in keys} for s, keys in SETTINGS.items()})
        cp["params"] = self.params
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _counting():
    """The counting module, imported on first use: it loads numpy, which
    the height and malle commands never need."""
    from . import counting

    return counting


# family -> (counter(cfg, bounds): the counts of a list of bounds, in order,
# from one kernel call; the integer parameters it reads by cfg.param -> default)
FAMILIES = {
    "bmun": (lambda cfg, Bs: _counting().count_bmun(cfg.param("n"), Bs), {"n": 2}),
    "quadratic-fields": (lambda cfg, Bs: _counting().count_quadratic_fields(Bs), {}),
    "football222": (lambda cfg, Bs: _counting().count_football222(Bs, threads=cfg.threads), {}),
    "rooted3": (lambda cfg, Bs: _counting().count_rooted3_at_0(Bs), {}),
    "quadratic-points": (lambda cfg, Bs: _counting().count_quadratic_points(Bs), {}),
}


def _thread_count(flag, fallback) -> int:
    """Threads from the flag, else STACKY_THREADS, else the fallback."""
    env = os.environ.get("STACKY_THREADS")
    if flag is None:
        flag = _int(env, "STACKY_THREADS") if env else _int(fallback, "threads")
    if flag < 1:
        raise UsageError("thread count must be >= 1")
    return flag


def _read_config(path: str) -> dict[str, dict[str, str]]:
    """Section -> key -> text of a config file, read literally.  Only what
    SETTINGS declares, [params] and the legacy [run] seed (dropped) pass."""
    # no header names the default section "", so [DEFAULT] is just unknown
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not cp.read(path):
            raise UsageError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise UsageError(f"config file {path}: {e}") from e
    conf = {section: dict(cp[section]) for section in cp.sections()}
    conf.get("run", {}).pop("seed", None)  # count has no seed: no family is randomized
    for section, keys in conf.items():
        unknown = sorted(keys.keys() - SETTINGS.get(section, keys).keys())
        if unknown or section not in SETTINGS and section != "params":
            what = " ".join([f"[{section}]", *unknown])
            raise UsageError(f"config file {path}: {what} is not a run setting")
    return conf


def load_config(args) -> RunConfig:
    conf = _read_config(args.config) if args.config else {}
    value = {}
    for section, keys in SETTINGS.items():
        for key, default in keys.items():
            flag = getattr(args, key)
            value[key] = flag if flag is not None else conf.get(section, {}).get(key, default)
    params = conf.get("params", {})
    if args.n is not None:
        params["n"] = args.n
    return RunConfig(
        value["family"], params, _rational(value["b0"]), _rational(value["ratio"]),
        _int(value["steps"], "steps"), value["format"],
        _thread_count(args.threads, value["threads"]), Path(value["out"]),
    )


def _load_checkpoint(path: Path) -> dict[str, int]:
    try:
        data = json.loads(path.read_text())
        return {str(k): int(v) for k, v in data.get("samples", {}).items()}
    except (OSError, AttributeError, ValueError):  # missing or not a checkpoint
        return {}


def _save_checkpoint(path: Path, samples: dict[str, int]) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"schema": SCHEMA, "samples": samples}, indent=2))
    tmp.replace(path)


def cmd_count(args) -> int:
    from .counting import CountReport, fit_exponents

    cfg = load_config(args)
    counter = FAMILIES[cfg.family][0]
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot use {cfg.out} as the output directory: {e.strerror}") from e
    run_id = cfg.run_id()
    ckpt_path = cfg.out / f"{run_id}.checkpoint.json"
    done = _load_checkpoint(ckpt_path) if args.resume else {}

    bounds = cfg.bounds()
    missing = [B for B in bounds if str(B) not in done]
    if missing:
        t0 = time.perf_counter()
        counts = counter(cfg, missing)
        dt = time.perf_counter() - t0
        for B, count in zip(missing, counts):
            print(f"B={float(B):g}: {count}", file=sys.stderr)
            done[str(B)] = count
        print(f"{len(missing)} bounds in one pass  [{dt:.2f}s]", file=sys.stderr)
        _save_checkpoint(ckpt_path, done)
    samples = [(float(B), done[str(B)]) for B in bounds]

    report = CountReport(family=cfg.family, params=dict(cfg.params), samples=samples)
    try:
        report.fit = fit_exponents(report)
    except ValueError:
        report.fit = None

    (cfg.out / f"{run_id}.cfg").write_text(cfg.resolved_ini())
    text = json.dumps(report.to_json(), indent=2)
    (cfg.out / f"{run_id}.json").write_text(text)
    if cfg.format == "csv":
        (cfg.out / f"{run_id}.csv").write_text(report.to_csv())
    elif cfg.format == "plot":
        (cfg.out / f"{run_id}.dat").write_text(report.to_plot())
    print(text)
    return 0


def cmd_fit(args) -> int:
    from .counting import CountReport, fit_exponents

    path = Path(args.report)
    try:
        report = CountReport.from_json(json.loads(path.read_text()))
    except OSError as e:
        raise UsageError(f"cannot read a report at {path}: {e.strerror}") from e
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise UsageError(f"{path} is not a count report") from e
    report.fit = fit_exponents(report)
    if args.update:
        path.write_text(json.dumps(report.to_json(), indent=2))
    a, b, c = report.fit
    _emit({"family": report.family, "fit": {"a": a, "b": b, "c": c}}, "fit")
    return 0


def cmd_search(args) -> int:
    from .counting import vojta_search_444, vojta_search_ap5

    threads = _thread_count(args.threads, 1)
    if args.kind == "444":
        hits = vojta_search_444(args.cutoff, args.delta, threads=threads)
    else:
        hits = vojta_search_ap5(args.cutoff, args.delta, threads=threads)
    _emit(
        {
            "kind": args.kind,
            "cutoff": args.cutoff,
            "delta": args.delta,
            "count": len(hits),
            "hits": [list(h) for h in hits],
        },
        "search",
    )
    return 0


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_all(seed=args.seed, samples=args.samples)
    for r in results:
        print(r.line())
    return 0 if all(r.ok for r in results) else 1


# ----------------------------------------------------------------------


# command -> (help, flag -> add_argument keywords), the one source of the
# whole parser and of each one-command parser.  Command c runs cmd_c, looked
# up when its parser is built, so a wrapper bound to that name since import
# (a tracer, a test's stand-in) is what runs.
COMMANDS = {
    "height": ("evaluate one height exactly", {
        "family": {"choices": ["wps", "bmun", "quadratic", "football", "elliptic", "hyperelliptic", "sym2"]},
        "--weights": {},
        "--coords": {},
        "--point": {"help": 'point: "a,b" for football, "a0,a1,...:M0,M1,..." shorthand for wps'},
        "--j": {"type": int, "default": 1, "help": "bundle twist (wps/bmun)"},
        "--n": {"type": int, "help": "power class modulus (bmun)"},
        "--x": {"help": "rational representative (bmun)"},
        "--d": {"type": int, "help": "squarefree integer (quadratic)"},
        "--line": {"help": 'roots "u1,v1,m1;..." (football)'},
        "--divisor": {"help": 'divisor "d;n1,n2,..." (football)'},
        "--tangent": {"action": "store_true", "help": "use the tangent divisor"},
        "--A": {"type": int, "help": "elliptic coefficient"},
        "--B": {"type": int, "help": "elliptic coefficient"},
        "--coeffs": {"help": "hyperelliptic a2,a3,... coefficients"},
        "--form": {"help": "quadratic form a,b,c (sym2)"},
    }),
    "malle": ("Malle exponent of a permutation group", {
        "--degree": {"type": int, "required": True},
        "--gens": {"required": True, "help": 'generators "(1 2 3);(1 2)"'},
    }),
    "count": ("run a counting schedule", {
        "--family": {"choices": sorted(FAMILIES)},
        "--config": {"help": "INI config file"},
        "--b0": {"help": "first bound (exact decimal or fraction)"},
        "--ratio": {"help": "schedule ratio (exact decimal or fraction)"},
        "--steps": {"type": int},
        "--n": {"type": int, "help": "bmun modulus"},
        "--format": {"choices": ["csv", "json", "plot"]},
        "--threads": {"type": int},
        "--out": {"help": "output directory"},
        "--resume": {"action": "store_true", "help": "reuse checkpointed samples"},
    }),
    "fit": ("fit growth exponents of a saved report", {
        "--report": {"required": True},
        "--update": {"action": "store_true", "help": "write the fit back"},
    }),
    "search": ("stacky Vojta exception searches", {
        "--kind": {"choices": ["444", "ap5"], "required": True},
        "--cutoff": {"type": int, "required": True},
        "--delta": {"type": float, "required": True},
        "--threads": {"type": int},
    }),
    "check": ("run the exact cross-validation suites", {
        "--seed": {"type": int, "default": 0},
        "--samples": {"type": int, "default": 1000},
    }),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one command `only`.  Its
    usage line still lists every command, so each message is the same."""
    ap = argparse.ArgumentParser(
        prog="stacky-heights",
        description="Exact heights on stacky curves over Q; counting and searches.",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if only is None else [only]:
        summary, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, keywords in arguments.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=globals()[f"cmd_{name}"])
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only for top-level help and errors
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
