"""The demos and README's quickstart still match the package API: every
imported name resolves, and every demo and the quickstart run to completion."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import whipchain

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


def _whipchain_imports(path):
    """(module, name) for every ``from whipchain[.sub] import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "whipchain"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _whipchain_imports(path)
    assert imports
    missing = [f"{mod}.{name}" for mod, name in imports if not hasattr(importlib.import_module(mod), name)]
    assert not missing


@pytest.mark.parametrize("name", [p.name for p in sorted(DEMOS.glob("*.py"))])
def test_demo_runs(name):
    src = str(Path(whipchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("t_end_reached ")
