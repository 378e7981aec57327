"""The package's public names, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mixroc

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")
TAIL_CODE = (
    "import numpy as np\n"
    "from mixroc.datasets import make_refined_grid\n"
    "from mixroc.gmm import GmmModel, survival, survival_inverse\n"
    "from mixroc.roc import functional_roc\n"
    "f = GmmModel([0.7, 0.3], [0.0, 2.5], [1.0, 0.36])\n"
    "g = GmmModel([0.4, 0.6], [1.0, 3.0], [2.25, 0.5])\n"
    "c = np.linspace(-40.0, 40.0, 801)\n"
    "t = np.concatenate([np.geomspace(1e-300, 0.5, 60), 1.0 - np.geomspace(1e-16, 0.5, 60)])\n"
    "values = np.concatenate([survival(f, c), survival_inverse(g, t),\n"
    "                         functional_roc(f, g, make_refined_grid()).tpr])\n"
)


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


def run_python(code):
    """Run `code` in a fresh interpreter on this package, with numerical warnings as errors."""
    package_root = str(Path(mixroc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-W", "error::FutureWarning", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_out_scipy_optimize():
    # the package imports scipy.special only inside the mixture tail functions;
    # scipy.optimize would add ~95 modules
    code = ("import sys, mixroc, mixroc.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.optimize')])")
    assert run_python(code) == "[]"


def test_import_leaves_out_scipy_special():
    code = "import sys, mixroc; print([m for m in sys.modules if m.startswith('scipy.special')])"
    assert run_python(code) == "[]"


def test_default_cli_run_leaves_out_scipy_special(tmp_path):
    # all three estimators: the binormal curve and the MG band's z take Phi and Phi^-1
    # from the standard library, and no CLI output calls a mixture tail function
    args = ["--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--plots", "--pauc", "0:0.2", "--reproducible", "--out", str(tmp_path)]
    code = ("import sys; from mixroc.cli import main; "
            f"assert main({args!r}) == 0; "
            "print([m for m in sys.modules if m.startswith('scipy.special')])")
    assert run_python(code) == "[]"
    assert (tmp_path / "curve_binormal.csv").is_file() and (tmp_path / "mg_bands.csv").is_file()


def test_cli_run_with_plots_leaves_out_numpy_ma(tmp_path):
    # np.quantile and np.unique import numpy.ma on first use: the ensemble's envelope, the
    # operating points and the histogram edges take their own sort instead
    args = ["--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--plots", "--reproducible", "--out", str(tmp_path)]
    code = ("import sys; from mixroc.cli import main; "
            f"assert main({args!r}) == 0; "
            "print([m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')])")
    assert run_python(code) == "[]"
    assert (tmp_path / "roc_overlay.svg").is_file() and (tmp_path / "mg_bands.csv").is_file()


def test_tail_functions_import_scipy_special_at_first_use():
    # bit for bit the values this interpreter, which has scipy.special loaded, computes
    code = TAIL_CODE + (
        "import sys; assert 'scipy.special' in sys.modules\n"
        "print(values.tobytes().hex())\n"
    )
    scope = {}
    exec(TAIL_CODE, scope)
    assert run_python(code) == scope["values"].tobytes().hex()
