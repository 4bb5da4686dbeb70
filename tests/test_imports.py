"""Lint checks that no linter shipped with the project makes.

Each walks a module's syntax tree.  No module of the package keeps a
top-level import that it never uses: every name bound by a top-level
import must occur as a name somewhere in the module (``__init__`` is
skipped, since its imports are the public re-exports).  The modules
that add up probabilities make no builtin ``sum`` call: it is
compensated from Python 3.12 on, so its bits, and the order of exact
ties, would depend on the interpreter; float totals use ``math.fsum``
or an explicit loop.  Module-level memoization (``lru_cache`` or
``cache``) is left on three names only: the node layout, the node law
and the argument parser; what derives from a committee size alone is
kept in that size's layout (``tables.per_size``).

Importing the package and the command line module loads neither
``dataclasses`` (nor ``inspect``, which it pulls in), nor the
simulator ``dilemma.montecarlo``, nor numpy: the first use of a
simulation name loads the simulator.  Importing the command line
module builds no argument parser: the first ``run`` does.  Importing
the package builds no node layout, and building the extended poset
leaves the layout's class grouping unbuilt: only a caller that reads
classes pays for it.  Likewise only the per-voter law derives the
layout's cube cells, and only above n = 9: up to there it runs in plain
Python, so a small per-voter command loads no numpy.  The optimal,
decide and simulate paths read rules off the node layout and build no
extended poset; only the commands that print or count its order do.  A
homogeneous optimal rule, and any other union of classes that is an
upper set, is certified on its classes, and so is the premiss-wise
rule: the optimal, decide and simulate paths on such rules build no
poset of any mode and leave the layout's upper covers underived, which
a rule given by its tables (the conclusion-wise rule of ``simulate
--rule cb``) still derives.

A ``Poset`` is immutable after construction: enumerating, testing and
ranking on it leave its attributes as they were.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dilemma"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom x import a, b as c\n"
                          "print(sys.argv, c)\n") == ["os", "a"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_top_level_import(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


# the integer counts in cli and montecarlo may use builtin sum
FLOAT_MODULES = ("optimal.py", "probability.py", "ranking.py", "rules.py")


def builtin_sum_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_the_check_sees_a_builtin_sum():
    assert builtin_sum_lines("import math\nx = math.fsum(v)\ny = np.sum(v)\n"
                             "z = f(sum(v), 1)\n") == [4]


@pytest.mark.parametrize("path", FLOAT_MODULES)
def test_no_builtin_sum_in_float_code(path):
    assert builtin_sum_lines((PACKAGE / path).read_text()) == []


def _is_memo(node) -> bool:
    """lru_cache or cache: bare, called with options, or as functools.<name>."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def memoized(source: str) -> list[str]:
    """Top-level names memoized by lru_cache or cache, as a decorator or
    through an assigned call."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if any(_is_memo(d) for d in node.decorator_list):
                names.append(node.name)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and _is_memo(node.value.func)):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def test_the_check_sees_a_memoized_name():
    assert memoized("import functools\nfrom functools import cache, lru_cache\n"
                    "@lru_cache(maxsize=4)\ndef a(n): pass\n"
                    "@functools.cache\ndef b(): pass\n"
                    "c = lru_cache(maxsize=2)(C)\n"
                    "@per_size\ndef d(n): pass\n"
                    "def e():\n    @cache\n    def f(): pass\n") == ["a", "b", "c"]


def test_module_level_memoization_is_left_on_three_names():
    found = {f"{p.stem}.{name}" for p in PACKAGE.glob("*.py")
             for name in memoized(p.read_text())}
    assert found == {"tables._layout", "probability._node_law", "cli._parser"}


def run_fresh(code: str) -> str:
    """The last word code prints when run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    return out.stdout.split()[-1]


def parsers_built(code: str) -> int:
    """ArgumentParser instances made by running code in a fresh process."""
    counted = ("import argparse\n"
               "built = []\n"
               "init = argparse.ArgumentParser.__init__\n"
               "def counting(self, *args, **kwargs):\n"
               "    built.append(1)\n"
               "    init(self, *args, **kwargs)\n"
               "argparse.ArgumentParser.__init__ = counting\n"
               + code + "print(len(built))\n")
    return int(run_fresh(counted))


def test_importing_the_cli_builds_no_parser():
    assert parsers_built("import dilemma.cli\n") == 0


def test_the_check_sees_a_parser_built():
    assert parsers_built("import dilemma.cli\n"
                         "dilemma.cli.run(['count', '--n', '1'])\n") > 0


def layouts_built(code: str) -> int:
    """Node layouts built by running code in a fresh process."""
    return int(run_fresh("from dilemma.tables import _layout\n" + code +
                         "print(_layout.cache_info().misses)\n"))


def layout_holds(code: str, n: int, name: str) -> bool:
    """Whether the size-n layout holds the derived attribute name after
    code, in a fresh process; the code must have built that layout already."""
    return run_fresh("from dilemma.tables import _layout\n" + code +
                     "misses = _layout.cache_info().misses\n"
                     f"layout = _layout({n})\n"
                     "assert _layout.cache_info().misses == misses\n"
                     f"print({name!r} in vars(layout))\n") == "True"


def test_importing_the_package_builds_no_layout():
    assert layouts_built("import dilemma, dilemma.cli\n") == 0


def test_the_check_sees_a_layout_built():
    assert layouts_built("import dilemma\ndilemma.enumerate_tables(3)\n") == 1


HEAVY = ("dataclasses", "inspect", "dilemma.montecarlo", "numpy")


def heavy_loaded(code: str) -> set:
    """Which of the HEAVY modules are loaded after running code in a fresh process."""
    return set(run_fresh("import sys\n" + code +
                         f"print(','.join(['-'] + [m for m in {HEAVY!r} "
                         "if m in sys.modules]))\n").split(",")[1:])


def test_importing_the_package_loads_no_heavy_module():
    assert heavy_loaded("import dilemma, dilemma.cli\n") == set()


@pytest.mark.parametrize("code", ["dilemma.simulate", "dilemma.montecarlo",
                                  "from dilemma import SimulationSpec"])
def test_the_check_sees_the_simulator_loaded(code):
    assert "dilemma.montecarlo" in heavy_loaded(f"import dilemma\n{code}\n")


def test_the_package_still_exposes_the_simulator_names():
    assert run_fresh(
        "import dilemma\n"
        "names = {'BLOCK_TRIALS', 'RNG_ALGORITHM', 'SimulationResult',"
        " 'SimulationSpec', 'simulate'}\n"
        "listed = names <= set(dir(dilemma)) and names <= set(dilemma.__all__)\n"
        "star = {}\n"
        "exec('from dilemma import *', star)\n"
        "from dilemma import SimulationSpec\n"
        "from dilemma.montecarlo import SimulationSpec as spec\n"
        "print(listed and names <= star.keys() and SimulationSpec is spec)\n") == "True"


def test_the_extended_poset_leaves_the_class_grouping_unbuilt():
    assert not layout_holds("import dilemma\n"
                            "dilemma.build_poset(9, 'extended')\n", 9, "groups")


def test_the_check_sees_a_class_grouping_built():
    assert layout_holds("import dilemma\n"
                        "dilemma.build_poset(9, 'quotient')\n", 9, "groups")


def test_the_homogeneous_paths_derive_no_cube_cells():
    assert not layout_holds(
        "import dilemma.cli\n"
        "run = dilemma.cli.run\n"
        "run(['optimal', '--n', '21', '--w', '0.5', '--theta', '0.7'])\n"
        "run(['decide', '--n', '21', '--w', '0.5', '--theta', '0.7',"
        " '--table', '11,5,3,2'])\n"
        "run(['simulate', '--n', '21', '--theta', '0.7', '--state', 'PQ',"
        " '--trials', '1000', '--seed', '1', '--rule', 'pb'])\n", 21, "cells")


def test_the_check_sees_the_cube_cells_derived():
    assert layout_holds(
        "import dilemma.cli\n"
        "dilemma.cli.run(['rank', '--n', '11', '--w', '0.5', '--theta',"
        " '0.6,0.62,0.64,0.66,0.68,0.7,0.72,0.74,0.76,0.78,0.8', '--mode', 'compact',"
        " '--k', '3', '--force'])\n", 11, "cells")


def test_small_per_voter_commands_load_no_numpy():
    assert heavy_loaded(
        "import dilemma, dilemma.cli\n"
        "run = dilemma.cli.run\n"
        "run(['optimal', '--n', '5', '--w', '0.4', '--theta', '0.6,0.65,0.7,0.75,0.8'])\n"
        "run(['rank', '--n', '5', '--w', '0.4', '--theta', '0.6,0.65,0.7,0.75,0.8',"
        " '--mode', 'extended'])\n"
        "run(['rank', '--n', '9', '--w', '0.45', '--theta',"
        " '0.56,0.6,0.64,0.68,0.72,0.76,0.8,0.84,0.88', '--mode', 'compact'])\n"
        "dilemma.loss(dilemma.classical_rule('pb', 9), 0.5,"
        " [0.6 + 0.03 * i for i in range(9)])\n") == set()


def test_the_check_sees_numpy_loaded_by_a_larger_per_voter_law():
    assert "numpy" in heavy_loaded(
        "import dilemma\n"
        "dilemma.loss(dilemma.classical_rule('pb', 11), 0.5,"
        " [0.6 + 0.03 * i for i in range(11)])\n")


def posets_built(code: str, mode: str | None = None) -> int:
    """Posets of the given mode, or of any mode, constructed by running
    code in a fresh process."""
    counted = ("from dilemma.poset import Poset\n"
               "built = []\n"
               "init = Poset.__init__\n"
               "def counting(self, n, mode, *args):\n"
               "    built.append(mode)\n"
               "    init(self, n, mode, *args)\n"
               "Poset.__init__ = counting\n"
               + code + f"print(len([m for m in built if {mode!r} in (None, m)]))\n")
    return int(run_fresh(counted))


def test_the_rule_paths_build_no_extended_poset():
    assert posets_built(
        "import dilemma, dilemma.cli\n"
        "run = dilemma.cli.run\n"
        "run(['optimal', '--n', '21', '--w', '0.5', '--theta', '0.7'])\n"
        "run(['decide', '--n', '21', '--w', '0.5', '--theta', '0.7',"
        " '--table', '11,5,3,2'])\n"
        "run(['simulate', '--n', '21', '--theta', '0.7', '--state', 'PQ',"
        " '--trials', '1000', '--seed', '1', '--rule', 'pb'])\n"
        "dilemma.loss(dilemma.classical_rule('pb', 9), 0.5, 0.7)\n", "extended") == 0


def test_the_check_sees_an_extended_poset_built():
    assert posets_built(
        "import dilemma.cli\n"
        "dilemma.cli.run(['hasse', '--n', '5', '--mode', 'extended'])\n", "extended") == 1


# homogeneous rules and pb are unions of classes, certified on the classes
CLASS_RULE_PATHS = (
    "import dilemma, dilemma.cli\n"
    "run = dilemma.cli.run\n"
    "run(['optimal', '--n', '21', '--w', '0.5', '--theta', '0.7'])\n"
    "run(['decide', '--n', '21', '--w', '0.5', '--theta', '0.7', '--table', '11,5,3,2'])\n"
    "run(['simulate', '--n', '21', '--theta', '0.7', '--state', 'PQ',"
    " '--trials', '1000', '--seed', '1', '--rule', 'optimal'])\n"
    "run(['simulate', '--n', '21', '--theta', '0.7', '--state', 'PQ',"
    " '--trials', '1000', '--seed', '1', '--rule', 'pb'])\n"
    "dilemma.DecisionRule.from_classes(21, [(21, 0), (20, 1), (19, 0), (19, 2)])\n")


def test_the_class_rule_paths_derive_no_covers_and_build_no_poset():
    assert posets_built(CLASS_RULE_PATHS) == 0
    assert not layout_holds(CLASS_RULE_PATHS, 21, "up")


def test_the_check_sees_a_poset_built_and_the_covers_derived():
    assert posets_built(
        "import dilemma.cli\n"
        "dilemma.cli.run(['hasse', '--n', '5', '--mode', 'quotient'])\n") == 1
    assert layout_holds(
        "import dilemma.cli\n"
        "dilemma.cli.run(['simulate', '--n', '21', '--theta', '0.7', '--state', 'PQ',"
        " '--trials', '1000', '--seed', '1', '--rule', 'cb'])\n", 21, "up")


def test_a_poset_stays_immutable():
    from dilemma import RankingRequest, build_poset, rank_rules
    from dilemma.poset import MODES

    posets = [build_poset(3, mode) for mode in MODES]
    before = [dict(vars(po)) for po in posets]
    for po in posets:
        list(po.antichains())
        list(po.upper_sets())
        top = po.upper_set(po.nodes[:1])
        po.minimal_elements(top)
        po.leq(po.nodes[-1], po.nodes[0])
    for mode in ("extended", "compact"):
        rank_rules(RankingRequest(3, 0.5, 0.7, mode=mode))
    assert [build_poset(3, mode) for mode in MODES] == posets
    for po, was in zip(posets, before):
        assert vars(po).keys() == was.keys()
        assert [k for k, v in was.items() if vars(po)[k] is not v] == []
