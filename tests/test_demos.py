"""The demos and the README's Python blocks use only names srblab exports,
the README's config blocks parse, every export and every public method of
the map families is used outside the tests, no built-in family writes a
method that the base class derives from its branch data, and the README
quick start gives the values its comments state.

Apart from the quick start, which runs in about a second, each file is
parsed with ``ast``, not run, so the checks cost milliseconds; they fail
as soon as a name a demo reads as ``sl.<name>`` moves or goes, a key the
README shows in a config is retired, or an export or a map method is left
that only its own tests call.
"""

import ast
import inspect
import math
import pathlib
import re

import pytest

import srblab as sl

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
#: the plain blocks of README.md whose every line is ``key = value``
README_CONFIGS = [block for _, block in re.findall(r"^```(\w*)\n(.*?)^```$", README,
                                                   re.DOTALL | re.MULTILINE)
                  if all(re.match(r"[\w.]+ = ", line) for line in block.splitlines())]


#: exports that only the tests read, and what each one is to them
TEST_REFERENCES = {
    "lebesgue_density": "the flat density that measure and entropy results are compared to",
    "lyapunov_exponents": "the per-orbit reference of entropy_lyapunov_rows",
    "save_config": "writes the config files that the CLI and config tests run",
}


def _sl_names(source: str) -> set:
    """Attributes read off the name ``sl`` anywhere in the source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sl"}


def test_there_is_something_to_check():
    assert DEMOS and README_BLOCKS and README_CONFIGS


@pytest.mark.parametrize("source", [
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.name) for path in DEMOS),
    *(pytest.param(block, id=f"README-{i}") for i, block in enumerate(README_BLOCKS)),
])
def test_every_sl_name_exists(source):
    names = _sl_names(source)
    assert names or "import srblab as sl" not in source
    assert sorted(name for name in names if not hasattr(sl, name)) == []


@pytest.mark.parametrize("block", [pytest.param(block, id=f"README-config-{i}")
                                   for i, block in enumerate(README_CONFIGS)])
def test_every_readme_config_parses(block):
    assert set(block.splitlines()) <= set(sl.serialize(sl.parse(block)).splitlines())


def _read_names(path: pathlib.Path) -> set:
    """Names and attributes that the code of one file reads, and its string
    constants, which name what ``getattr`` looks up (the stage tracer's table)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


INIT = ROOT / "src" / "srblab" / "__init__.py"


def _read_outside_the_tests() -> set:
    """The names that the package (less its ``__init__``), the demos and
    ``perfbench`` read."""
    code = [path for path in INIT.parent.glob("*.py") if path != INIT]
    code += DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*map(_read_names, code))


def test_every_export_is_used_outside_the_tests():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = _read_outside_the_tests()
    assert set(TEST_REFERENCES) <= exports
    assert sorted(name for name in exports - read - set(TEST_REFERENCES)
                  if not re.search(rf"\b{name}\b", README)) == []


def test_every_public_map_method_is_used_outside_the_tests():
    # the methods and properties of MapSystem and the built-in families,
    # aliases included: one that only the tests call is dead code
    names = {name for cls in (sl.MapSystem, *sl.maps._FAMILIES.values())
             for name, value in vars(cls).items() if not name.startswith("_")
             and (inspect.isfunction(value) or isinstance(value, (property, staticmethod)))}
    assert {"f_batch", "orbit", "block_steps", "norm_batch", "critical_points"} <= names
    assert sorted(names - _read_outside_the_tests()) == []


#: what MapSystem derives from a family's branch_edges, branch_signs, |f'|
#: kernel and critical_points
DERIVED_MAP_METHODS = {"n_branches", "branch_bounds", "branch_dlift", "interior_cuts",
                       "branch_containing", "has_critical_set"}


def test_no_built_in_family_writes_what_the_base_class_derives():
    # the cylinder's critical set is a curve, not critical_points
    exempt = {("VianaMap", "has_critical_set")}
    assert DERIVED_MAP_METHODS <= set(vars(sl.MapSystem))
    written = {(cls.__name__, name) for cls in sl.maps._FAMILIES.values()
               for name in DERIVED_MAP_METHODS & set(vars(cls))}
    assert exempt <= written
    assert sorted(written - exempt) == []


def test_readme_quick_start_gives_its_commented_values():
    ns = {}
    exec(README_BLOCKS[0], ns)
    log2 = math.log(2.0)
    assert ns["rep"].kappa == 0.5 and ns["rep"].distortion == 0.0
    assert abs(ns["kac"] - 2.0) <= 1e-5
    assert abs(ns["h_F"] - 2 * log2) <= 1e-4
    assert abs(ns["h_f"] - log2) <= 1e-4
    assert abs(ns["h_pesin"] - log2) <= 1e-12
    assert abs(ns["h_lyap"] - log2) <= 1e-9
