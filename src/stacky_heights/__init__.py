"""Exact heights of rational points on stacky curves over Q, with counting
and search harnesses for their growth rates.

Importing the package loads the height modules only.  The counting names
(CountReport, count_*, fit_exponents, sieve_power_free_parts and
vojta_search_*) are looked up in stacky_heights.counting on each access
(PEP 562), so numpy is loaded only once something counts."""

from .adelic import ExactHeight, HeightBreakdown, combine, height_from_sections
from .arith import (
    FactoredInt,
    factor,
    fundamental_discriminant,
    mahler_measure_quadratic,
    ord_p,
    power_free_part,
    power_free_reduce,
    squarefree_part,
)
from .classifying import (
    PermGroup,
    PowerClass,
    bmu3_vector_height,
    bmun_height,
    class_of,
    index,
    malle_exponent,
    quadratic_height,
)
from .football import (
    RootedLine,
    StackDivisor,
    StackyPointError,
    colliding_primes,
    edd,
    football,
    generic_height,
    northcott,
    rdisc,
    tangent_divisor,
    tangential_height,
    type1_height,
)
from .sympow import QuadraticPoint, abs_height, discrepancy, stable_sym_height, sym_height
from .wps import (
    WeightedPoint,
    elliptic_naive_height,
    height_O1,
    height_Oj,
    hyperelliptic_height,
    minimal_form,
)

__version__ = "0.1.0"

_COUNTING_NAMES = (
    "CountReport",
    "count_bmun",
    "count_football222",
    "count_quadratic_fields",
    "count_quadratic_points",
    "count_rooted3_at_0",
    "fit_exponents",
    "sieve_power_free_parts",
    "vojta_search_444",
    "vojta_search_ap5",
)


def __getattr__(name: str):
    # Not stored in globals(): a patched counting.<name> stays visible here.
    if name in _COUNTING_NAMES:
        from . import counting

        return getattr(counting, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_COUNTING_NAMES])
