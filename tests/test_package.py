"""The package's public names, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mixroc


def test_all_is_one_literal_list_of_package_names():
    # benchmarks/run.py counts mixroc.public_names from this assignment's literal elements
    tree = ast.parse(Path(mixroc.__file__).read_text())
    assigns = [node for node in tree.body if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(assigns) == 1 and isinstance(assigns[0].value, ast.List)
    elts = assigns[0].value.elts
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts)
    assert [e.value for e in elts] == mixroc.__all__
    assert len(elts) == len(mixroc.__all__) == len(set(mixroc.__all__))
    for name in mixroc.__all__:
        assert hasattr(mixroc, name), name


def test_import_leaves_out_scipy_optimize():
    # the package's one scipy import is scipy.special; scipy.optimize would add ~95 modules
    package_root = str(Path(mixroc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = ("import sys, mixroc, mixroc.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-W", "error::FutureWarning", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
