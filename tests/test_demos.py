"""The demos and the README's Python blocks use only names srblab exports.

Each file is parsed with ``ast``, not run, so the check costs milliseconds;
it fails as soon as a name a demo reads as ``sl.<name>`` moves or goes.
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


def _sl_names(source: str) -> set:
    """Attributes read off the name ``sl`` anywhere in the source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sl"}


def test_there_is_something_to_check():
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("source", [
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.name) for path in DEMOS),
    *(pytest.param(block, id=f"README-{i}") for i, block in enumerate(README_BLOCKS)),
])
def test_every_sl_name_exists(source):
    names = _sl_names(source)
    assert names or "import srblab as sl" not in source
    assert sorted(name for name in names if not hasattr(sl, name)) == []
