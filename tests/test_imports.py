"""Every name a drshift module imports is used in that module, and the
leaf modules import no other drshift module.

No linter is pinned for this project, so this ast walk catches the dead
imports that deleting code tends to leave behind. __init__.py is skipped:
its imports are the package's public re-exports. data, calibration and
errors sit below the model: they may import errors and nothing else from
drshift, which keeps test-only oracles over the model out of data.

Importing the CLI loads no public scipy package beyond scipy.special:
scipy.stats alone used to triple the start-up time of every command. And
softmax and log-sum-exp have one implementation, calibration._lse_parts: no
module binds scipy's softmax or logsumexp.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
import scipy.special

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "drshift"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LEAVES = ("data.py", "calibration.py", "errors.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def drshift_imports(source):
    """Names of the drshift modules (or package attributes) a module imports."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "drshift." + (node.module or "") if node.level else node.module
            dotted += [f"{package.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("drshift.")}


@pytest.mark.parametrize("name", LEAVES)
def test_leaf_module_imports_only_errors(name):
    assert drshift_imports((SRC / name).read_text(encoding="utf-8")) <= {"errors"}


def test_walk_finds_drshift_imports():
    source = ("import numpy\nimport drshift.kde\nfrom . import robust\n"
              "from .domain import x\nfrom drshift.features import y\nfrom scipy import z\n")
    assert drshift_imports(source) == {"kde", "robust", "domain", "features"}


def test_walk_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as parse\nparse('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def public_scipy_modules(code):
    """The public scipy.<name> modules that a fresh interpreter holds after running code."""
    script = (f"{code}\nimport json, sys\n"
              "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules\n"
              "    if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_scipy_package_but_special():
    # scipy.special brings some public modules of its own (scipy.version).
    special_alone = public_scipy_modules("import scipy.special")
    assert "special" in special_alone and "stats" not in special_alone
    assert public_scipy_modules("import drshift.cli") == special_alone


def test_walk_sees_a_loaded_scipy_package():
    assert "stats" in public_scipy_modules("import scipy.stats")


def test_no_module_binds_scipy_softmax_or_logsumexp():
    kernels = (scipy.special.softmax, scipy.special.logsumexp)
    binders = {path.stem for path in MODULES
               if any(value is kernel
                      for value in vars(importlib.import_module(f"drshift.{path.stem}")).values()
                      for kernel in kernels)}
    assert binders == set()
