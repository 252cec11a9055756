"""What a fresh interpreter loads.  Heights need neither numpy nor the
counting layer, so `import stacky_heights`, a height from each height
module and the `height` and `malle` commands leave both unloaded; the ten
counting names of the package are looked up in stacky_heights.counting on
each access.  The test oracles load where stacky_heights cannot be
imported at all, so they share no code with the program."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stacky_heights
from stacky_heights import counting

SRC = Path(__file__).resolve().parent.parent / "src"
COUNTING_NAMES = (
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
NOT_FOR_HEIGHTS = ("numpy", "stacky_heights.counting", "stacky_heights.checks")


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python with src/ first on the import path, in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


HEIGHTS = """
import json, sys
import stacky_heights as sh
assert sh.factor(360).factors == ((2, 3), (3, 2), (5, 1))
sh.height_from_sections(2, [3, 4])                                  # adelic
sh.bmun_height(sh.class_of(12, 3), 1)                               # classifying
sh.edd(sh.football(2, 3), (4, 1))                                   # football
sh.sym_height(sh.QuadraticPoint.irreducible(1, 0, -2))              # sympow
sh.height_Oj(sh.WeightedPoint((4, 6), (0, 2)), 1)                   # wps
print(json.dumps(sorted(m for m in {mods} if m in sys.modules)))
"""


def test_heights_load_neither_numpy_nor_counting():
    done = fresh("-c", HEIGHTS.format(mods=NOT_FOR_HEIGHTS))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "bmun", "--n", "3", "--x", "12"],
        ["height", "football", "--line", "1,0,2;1,1,2;0,1,2", "--point", "2,3", "--tangent"],
        ["malle", "--degree", "3", "--gens", "(1 2 3)"],
    ],
    ids=lambda argv: argv[0] + (f"-{argv[1]}" if argv[0] == "height" else ""),
)
def test_height_and_malle_commands_load_no_numpy(argv):
    done = fresh("-X", "importtime", "-m", "stacky_heights.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["schema"] == "stacky-heights/1"
    # -X importtime writes one "import time: self | cumulative | name" line
    # per module imported
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert not loaded & set(NOT_FOR_HEIGHTS)


def test_counting_names_resolve_from_a_cold_package():
    code = (
        "import json, sys\n"
        "from stacky_heights import count_bmun\n"
        "from stacky_heights import counting\n"
        "print(json.dumps([count_bmun is counting.count_bmun, type(counting).__name__,"
        " 'numpy' in sys.modules, count_bmun(2, [10])]))\n"
    )
    done = fresh("-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, "module", True, counting.count_bmun(2, [10])]


@pytest.mark.parametrize("name", COUNTING_NAMES)
def test_counting_name_is_the_counting_object(name):
    assert getattr(stacky_heights, name) is getattr(counting, name)
    assert name in dir(stacky_heights)


def test_dir_keeps_the_eager_names():
    names = dir(stacky_heights)
    assert names == sorted(names)
    assert {"factor", "edd", "football", "__version__"} <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'count_everything'"):
        stacky_heights.count_everything


def test_patched_counting_name_shows_through_the_package(monkeypatch):
    assert stacky_heights.count_bmun is counting.count_bmun

    def fake(n, bounds):
        return [0] * len(bounds)

    monkeypatch.setattr(counting, "count_bmun", fake)
    assert stacky_heights.count_bmun is fake


ORACLES = """
import json, sys
sys.modules["stacky_heights"] = None  # any import of the program now fails
sys.path.insert(0, {tests!r})
import oracles
print(json.dumps([oracles.naive_bmun(2, 7), oracles.naive_quadratic_fields(60),
                  oracles.naive_rooted3(6), oracles.naive_quadratic_points(2),
                  oracles.naive_ap5(300, 0.4), oracles.naive_v444(300, 0.4)]))
"""


def test_oracles_load_without_the_program():
    done = fresh("-c", ORACLES.format(tests=str(Path(__file__).resolve().parent)))
    assert done.returncode == 0, done.stderr
    want = [
        counting.count_bmun(2, 7),
        counting.count_quadratic_fields(60),
        counting.count_rooted3_at_0(6),
        counting.count_quadratic_points(2),
        [list(t) for t in counting.vojta_search_ap5(300, 0.4)],
        [list(t) for t in counting.vojta_search_444(300, 0.4)],
    ]
    assert json.loads(done.stdout) == want
