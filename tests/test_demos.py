"""The demos and the README's Python blocks use only names srblab exports,
and the README's config blocks parse.

Each file is parsed with ``ast``, not run, so the check costs milliseconds;
it fails as soon as a name a demo reads as ``sl.<name>`` moves or goes, or
a key the README shows in a config is retired.
"""

import ast
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
