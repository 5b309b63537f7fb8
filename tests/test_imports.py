"""Every top-level import of a thickcalc module is used in that module, and
starting the command line tool builds no dataclass and imports neither a
numeric library nor ``dataclasses`` or ``inspect``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thickcalc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names bound by the module-level imports of ``source`` that no
    other node of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_are_found():
    assert "pairing.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import sys\nfrom a import b, c as d\nfrom __future__ import x\n"
                          "print(b)\n") == ["sys", "d"]


STARTUP_PROBE = """
import sys, thickcalc.cli
dataclasses = sorted(f"{name.partition('.')[2]}.{cls.__qualname__}"
                     for name, module in list(sys.modules.items())
                     if name.startswith("thickcalc.")
                     for cls in vars(module).values()
                     if isinstance(cls, type) and cls.__module__ == name
                     and hasattr(cls, "__dataclass_fields__"))
print(" ".join(dataclasses))
print(" ".join(sorted({"numpy", "mpmath"} & set(sys.modules))))
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_startup_builds_no_dataclass_and_imports_no_numeric_library():
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    dataclasses, numeric, introspection = out.stdout.split("\n")[:3]
    assert dataclasses == ""
    assert numeric == ""
    assert introspection == ""
