"""The public surface: every exported name exists and the README's library
examples run as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import levelgeo

MODULES = sorted(m.name for m in pkgutil.iter_modules(levelgeo.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"levelgeo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_examples_run(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block goes on from the first one's names
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1 + 3
    assert all(line.startswith("budget ") for line in printed[1:])
