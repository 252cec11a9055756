"""Cross-validation suites tying the independent height routes together.

Each suite checks one exact identity on a randomized (seeded) or exhaustive
family of inputs:

  * engine_closed_forms: the section engine against the closed forms
    log max |M_i|^{1/a_i} and (1/n) log |N| on minimal inputs.
  * football_wps: generic heights on two-rooted lines against weighted
    projective heights under the coarse-coordinate identification.
  * bmu3_discriminant: the rank-3 cube-class height against the classical
    pure cubic field discriminant, prime by prime away from 3.
  * edd_tangential: expected deformation dimension against tangential
    height on rooted lines (inputs with a prime shared by two root values
    are excluded: there the reduced discriminant counts once on purpose).
  * phi_sieve: bulk power-free-part tables against per-element values.

All comparisons are exact (ExactHeight equality or integer equality).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .adelic import ExactHeight, height_from_sections
from .arith import factor, power_free_part
from .classifying import bmu3_vector_height, class_of
from .counting import sieve_power_free_parts
from .football import (
    RootedLine,
    StackDivisor,
    colliding_primes,
    edd,
    football,
    generic_height,
    tangential_height,
)
from .wps import WeightedPoint, height_O1, minimal_form

__all__ = ["CheckResult", "run_all", "SUITES"]


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = "" if self.ok else f"  first failure: {self.failures[0]!r}"
        return f"{status}  {self.name:24s} {self.checked:7d} checks  {self.seconds:6.2f}s{extra}"


def _argmax_root(pt: WeightedPoint) -> tuple[int, int]:
    """Index attaining max |M_i|^(1/a_i), compared exactly via cross powers."""
    best = None
    for i, (m, a) in enumerate(zip(pt.coords, pt.weights)):
        if m == 0:
            continue
        if best is None:
            best = i
            continue
        mb, ab = abs(pt.coords[best]), pt.weights[best]
        # |m|^(1/a) > |mb|^(1/ab)  <=>  |m|^ab > |mb|^a
        if abs(m) ** ab > mb**a:
            best = i
    return best, pt.weights[best]


def check_engine_closed_forms(rng: random.Random, samples: int = 2000) -> CheckResult:
    res = CheckResult("engine_closed_forms")
    t0 = time.perf_counter()
    for _ in range(samples):
        k = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 6) for _ in range(k))
        coords = tuple(rng.randint(-(10**4), 10**4) for _ in range(k))
        if all(c == 0 for c in coords):
            coords = coords[:-1] + (1,)
        pt = minimal_form(weights, coords)
        got = height_O1(pt)
        i, a = _argmax_root(pt)
        want = ExactHeight.log_abs(abs(pt.coords[i]), Fraction(1, a))
        res.checked += 1
        if got != want:
            res.failures.append((pt.weights, pt.coords))
        # n-th power classes: engine against (1/n) log |N|
        n = rng.randint(2, 6)
        x = rng.randint(1, 10**6) * rng.choice([1, -1])
        c = class_of(x, n)
        res.checked += 1
        if height_from_sections(n, [c.rep]) != ExactHeight.log_abs(
            c.rep, Fraction(1, n)
        ):
            res.failures.append(("bmun", n, x))
    res.seconds = time.perf_counter() - t0
    return res


def check_football_wps(rng: random.Random, samples: int = 1000) -> CheckResult:
    """For coprime orders (a, b), the map (s : t) -> t^a / s^b carries the
    weighted projective height to the football height of n[0] + m[inf]
    with m a + n b = 1."""
    res = CheckResult("football_wps")
    t0 = time.perf_counter()
    pairs = [(a, b) for a in range(2, 7) for b in range(a + 1, 7) if math.gcd(a, b) == 1]
    for _ in range(samples):
        a, b = pairs[rng.randrange(len(pairs))]
        # m a + n b = 1; scan the small window around 0 for a solution
        n, m = next(
            (n, m)
            for n in range(-b + 1, b)
            for m in range(-a, a + 1)
            if m * a + n * b == 1
        )
        s = rng.randint(1, 10**4) * rng.choice([1, -1])
        t = rng.randint(1, 10**4)
        g = math.gcd(s, t)
        s, t = s // g, t // g
        wph = height_O1(WeightedPoint((a, b), (s, t)))
        fb = generic_height(football(a, b), StackDivisor(0, (n, m)), (t**a, s**b))
        res.checked += 1
        if fb.total != wph:
            res.failures.append((a, b, s, t))
    res.seconds = time.perf_counter() - t0
    return res


def pure_cubic_discriminant(m: int) -> int:
    """Classical discriminant of Q(m^(1/3)) for cubefree m >= 2.

    Writing m = h k^2 with h, k coprime squarefree: -3 (h k)^2 when
    m^2 = 1 mod 9, else -27 (h k)^2.
    """
    if m < 2:
        raise ValueError("need cubefree m >= 2")
    h = k = 1
    for p, e in factor(m).factors:
        if e == 1:
            h *= p
        elif e == 2:
            k *= p
        else:
            raise ValueError(f"{m} is not cubefree")
    hk2 = (h * k) ** 2
    return -3 * hk2 if (m * m) % 9 == 1 else -27 * hk2


def check_bmu3_discriminant(bound: int = 500) -> CheckResult:
    """Coefficients of the rank-3 cube-class height match (1/2) ord_p |disc|
    of the pure cubic field at every prime p != 3."""
    res = CheckResult("bmu3_discriminant")
    t0 = time.perf_counter()
    for m in range(2, bound):
        if m % 3 == 0:
            continue
        fm = factor(m)
        if any(e >= 3 for _, e in fm.factors):
            continue
        h = bmu3_vector_height(class_of(m, 3))
        disc = factor(abs(pure_cubic_discriminant(m)))
        disc_ord = dict(disc.factors)
        primes = set(h.terms) | set(disc_ord)
        primes.discard(3)
        res.checked += 1
        for p in primes:
            if h.coefficient(p) != Fraction(disc_ord.get(p, 0), 2):
                res.failures.append((m, p))
                break
    res.seconds = time.perf_counter() - t0
    return res


def random_rooted_line(rng: random.Random) -> RootedLine:
    r = rng.randint(0, 4)
    roots = []
    forms: list[tuple[int, int]] = []
    while len(roots) < r:
        u = rng.randint(-9, 9)
        v = rng.randint(-9, 9)
        if (u, v) == (0, 0) or math.gcd(u, v) != 1:
            continue
        if any(u * v2 - u2 * v == 0 for u2, v2 in forms):
            continue
        forms.append((u, v))
        roots.append(((u, v), rng.randint(2, 6)))
    return RootedLine(tuple(roots))


def random_clean_point(
    rng: random.Random, line: RootedLine, coord_bound: int
) -> tuple[int, int]:
    """A coprime point avoiding the roots, with no prime shared by two
    distinct root values (where the edd identity is asserted)."""
    while True:
        a = rng.randint(-coord_bound, coord_bound)
        b = rng.randint(-coord_bound, coord_bound)
        if (a, b) == (0, 0) or math.gcd(a, b) != 1:
            continue
        if any(v == 0 for v in line.values_at((a, b))):
            continue
        if colliding_primes(line, (a, b)):
            continue
        return a, b


def check_edd_tangential(
    rng: random.Random, samples: int = 2000, coord_bound: int = 10**6
) -> CheckResult:
    res = CheckResult("edd_tangential")
    t0 = time.perf_counter()
    for _ in range(samples):
        line = random_rooted_line(rng)
        pt = random_clean_point(rng, line, coord_bound)
        res.checked += 1
        if edd(line, pt) != tangential_height(line, pt):
            res.failures.append((line, pt))
    res.seconds = time.perf_counter() - t0
    return res


def check_phi_sieve(rng: random.Random, samples: int = 400) -> CheckResult:
    """Sieved power-free-part tables match the per-element routine, and the
    tangential height recomputed through a table matches the direct one."""
    res = CheckResult("phi_sieve")
    t0 = time.perf_counter()
    tables = {m: sieve_power_free_parts(5000, m) for m in (2, 3, 4, 5, 6)}
    for _ in range(samples):
        m = rng.choice([2, 3, 4, 5, 6])
        k = rng.randint(1, 5000)
        res.checked += 1
        if int(tables[m][k]) != power_free_part(k, m):
            res.failures.append((m, k))
    # tangential height via tables on small points
    for _ in range(samples // 4):
        line = random_rooted_line(rng)
        pt = random_clean_point(rng, line, 300)
        vals = line.values_at(pt)
        deg = Fraction(2 - len(line.roots)) + sum(
            (Fraction(1, m) for m in line.orders), Fraction(0)
        )
        want = ExactHeight.log_abs(max(abs(pt[0]), abs(pt[1])), deg)
        for v, m in zip(vals, line.orders):
            want = want + ExactHeight.log_abs(int(tables[m][abs(v)]), Fraction(1, m))
        res.checked += 1
        if want != tangential_height(line, pt):
            res.failures.append(("tangential", line, pt))
    res.seconds = time.perf_counter() - t0
    return res


SUITES = (
    "engine_closed_forms",
    "football_wps",
    "bmu3_discriminant",
    "edd_tangential",
    "phi_sieve",
)


def run_all(seed: int = 0, samples: int = 1000) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        check_engine_closed_forms(random.Random(rng.random()), samples),
        check_football_wps(random.Random(rng.random()), samples),
        check_bmu3_discriminant(),
        check_edd_tangential(random.Random(rng.random()), samples),
        check_phi_sieve(random.Random(rng.random()), max(100, samples // 2)),
    ]
