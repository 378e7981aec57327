"""Byte-identity manifests of one source tree, and the differences between two.

    python tools/identity.py manifest --tree DIR --out FILE
    python tools/identity.py diff A.json B.json

`manifest` runs a fixed case list against DIR/src, each case as one subprocess in a fresh
temporary directory with PYTHONPATH=DIR/src, and writes case -> file -> SHA-256 of every file
the case left behind, with its exit code and the SHA-256 of its stdout and stderr. The cases:

- cli/...     the CLI on the bundled study, a two-file run and three estimator subsets;
- demo/...    the five demos, stdout and the files they write;
- fits/...    `fit_em` models and traces, and `select_k` models, on a fixed input set: the
              Wieand populations at seeds 0-19, synthetic shapes at K 1-5 and four
              `max_iter` values, hostile inputs (ties, n=2, a constant 1e200), and the
              three acceptance simulation scenarios at n=150 and seeds 0-9 with the
              protocol's `EmConfig(k_max=3, n_restarts=3, max_iter=300, seed=s)`;
- functional-roc  `functional_roc` on fixed models, and one model at the float limit;
- ensemble    `run_mg` and `sample_from` on fixed models, at four sizes and both grids.

A library case's "files" are its calls, each hashed over the model, curve, ensemble or draws,
every trace, the error and the warnings; the manifest also keeps each fit's K and parameters
and each curve's R(t) values. `manifest` exits 1 when a case exits non-zero. `diff` lists the
cases and files that differ, and the library groups that failed on either side, whose fits it
could not compare; for fits it adds the K changes and the largest relative moves of means,
variances and log-likelihoods, and for `functional-roc` the largest absolute move of R(t). A
mean's move is relative to max(|mu_A|, |mu_B|, sigma_A) of its component, so a mean at 0 is
judged against its component's spread; the others are relative to max(|A|, |B|). It exits 1
when it lists anything, else 0. A tree of the parent commit to compare with comes from
`git worktree add /tmp/parent HEAD~1`.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

CLI_FLAGS = ["--plots", "--reproducible", "--pauc", "0:0.1", "--dump-replicates"]
TOOL = str(Path(__file__).resolve())
LIBRARY_GROUPS = ("fits/wieand", "fits/synthetic", "fits/hostile", "fits/select-k",
                  "fits/sim-sweep", "functional-roc", "ensemble")
# the acceptance simulation protocol (tests/test_acceptance.py): controls N(0, 1), cases an
# equal mixture of two normals, name -> (means, sds)
SIM_SCENARIOS = {"strong": ((2.2, 5.0), (0.6, 1.0)), "moderate": ((0.3, 2.6), (0.5, 0.9)),
                 "poor": ((-0.5, 1.6), (0.6, 1.2))}
TWO_FILE_INPUTS = {  # 40 controls and 35 cases, rounded so the text is fixed
    "non_diseased.txt": "".join(f"{math.sin(i) * 3 + 10:.3f}\n" for i in range(40)),
    "diseased.txt": "".join(f"{math.cos(i) * 4 + 13 + (i % 7 == 0) * 9:.3f}\n"
                            for i in range(35)),
}


def case_list(tree: Path) -> dict[str, dict]:
    """Case name -> {"argv": command, "inputs": file name -> text written before it runs}."""
    py, data = sys.executable, str(tree / "data" / "wieand_pancreatic.csv")
    wieand = ["--input", data, "--label-col", "status"]
    cases = {}
    for marker in ("ca125", "ca199"):
        for seed in (0, 7):
            for fmt in ("json", "csv", "table"):
                cases[f"cli/{marker}-seed{seed}-{fmt}"] = [
                    py, "-m", "mixroc", *wieand, "--score-col", marker, "--seed", str(seed),
                    "--report-format", fmt, "--out", "out", *CLI_FLAGS]
    cases["cli/two-file"] = [py, "-m", "mixroc", "--non-diseased", "non_diseased.txt",
                             "--diseased", "diseased.txt", "--out", "out", *CLI_FLAGS]
    cases["cli/ca199-mg"] = [py, "-m", "mixroc", *wieand, "--score-col", "ca199",
                             "--estimators", "mg", "--out", "out", "--reproducible"]
    cases["cli/ca125-empirical-binormal"] = [
        py, "-m", "mixroc", *wieand, "--score-col", "ca125", "--estimators",
        "empirical,binormal", "--out", "out", "--plots", "--reproducible"]
    cases["cli/ca125-mg-empirical-csv"] = [  # a selection out of order: the order written
        py, "-m", "mixroc", *wieand, "--score-col", "ca125", "--estimators", "mg,empirical",
        "--report-format", "csv", "--out", "out", "--plots", "--reproducible"]
    for demo in sorted((tree / "demos").glob("*.py")):
        cases[f"demo/{demo.stem}"] = [py, str(demo)]
    for group in LIBRARY_GROUPS:
        cases[group] = [py, TOOL, "worker", group, data]
    return {name: {"argv": argv, "inputs": TWO_FILE_INPUTS if name == "cli/two-file" else {}}
            for name, argv in cases.items()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tree: Path, case: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in case["inputs"].items():
            (work / name).write_text(text)
        proc = subprocess.run(case["argv"], cwd=work, env=env, capture_output=True)
        files = {path.relative_to(work).as_posix(): sha256(path.read_bytes())
                 for path in sorted(work.rglob("*")) if path.is_file()}
    record = {"exit_code": proc.returncode, "stdout": sha256(proc.stdout),
              "stderr": sha256(proc.stderr), "files": files}
    if case["argv"][1] == TOOL and proc.returncode == 0:  # a library group: one file per call
        calls = json.loads(proc.stdout)
        record["files"] = {name: call.pop("sha256") for name, call in calls.items()}
        record["fits"] = {name: fit for name, fit in calls.items() if fit}
    return record


def build_manifest(tree, patterns=None) -> dict:
    """Run the cases matching any of `patterns` (all when None) against `tree`/src."""
    tree = Path(tree).resolve()
    cases = {name: case for name, case in case_list(tree).items()
             if patterns is None or any(fnmatch.fnmatchcase(name, p) for p in patterns)}
    return {"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "cases": {name: run_case(tree, case) for name, case in cases.items()}}


def diff_manifests(a: dict, b: dict) -> list[str]:
    """One line per case field or file that differs between manifests a and b."""
    lines = []
    if a["versions"] != b["versions"]:
        lines.append(f"versions differ: {a['versions']} vs {b['versions']}")
    for name in sorted(a["cases"].keys() | b["cases"].keys()):
        if name not in a["cases"] or name not in b["cases"]:
            lines.append(f"{name}: only in {'A' if name in a['cases'] else 'B'}")
            continue
        ca, cb = a["cases"][name], b["cases"][name]
        if ca["exit_code"] != cb["exit_code"]:
            lines.append(f"{name}: exit code {ca['exit_code']} -> {cb['exit_code']}")
        elif ca["exit_code"] and name in LIBRARY_GROUPS:
            lines.append(f"{name}: exit code {ca['exit_code']} on both sides, fits not compared")
        for stream in ("stdout", "stderr"):
            if ca[stream] != cb[stream] and "fits" not in ca:  # a worker's stdout is its fits
                lines.append(f"{name}: {stream} differs")
        for file in sorted(ca["files"].keys() | cb["files"].keys()):
            if ca["files"].get(file) != cb["files"].get(file):
                only = [side for side, case in (("A", ca), ("B", cb)) if file in case["files"]]
                where = f" (only in {only[0]})" if len(only) == 1 else ""
                lines.append(f"{name}: {file} differs{where}")
    return lines


def _relative_move(x, y, scale=0.0) -> float:
    """The largest |x - y| / max(|x|, |y|, scale), 0 where x == y and inf where undefined."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        move = np.abs(x - y) / np.maximum(np.maximum(np.abs(x), np.abs(y)), scale)
    return float(np.max(np.where(x == y, 0.0, np.nan_to_num(move, nan=np.inf))))


def _kept(manifest: dict, prefix: str) -> dict:
    """Each call's kept record, keyed "case: call", in the cases whose names start with prefix."""
    return {f"{case}: {call}": record for case, body in manifest["cases"].items()
            if case.startswith(prefix) for call, record in body.get("fits", {}).items()}


def fit_moves(a: dict, b: dict) -> list[str]:
    """The K changes of the fits in both manifests, and the largest relative moves of the
    means (against max(|mu_A|, |mu_B|, sigma_A)), variances and log-likelihoods among the
    fits whose K held."""
    fa, fb = _kept(a, "fits/"), _kept(b, "fits/")
    common = sorted(fa.keys() & fb.keys())
    changed = [name for name in common if fa[name].get("k") != fb[name].get("k")]
    lines = [f"K changes: {len(changed)} of {len(common)} fits (None: an error)"]
    lines += [f"  {name}: K {fa[name].get('k')} -> {fb[name].get('k')}" for name in changed]
    for field in ("means", "variances", "log_likelihood"):
        moves = [(_relative_move(fa[name][field], fb[name][field],
                                 np.sqrt(fa[name]["variances"]) if field == "means" else 0.0), name)
                 for name in common if name not in changed and "k" in fa[name]]
        top = max(moves, key=lambda move: move[0], default=(0.0, "-"))  # the first of the largest
        lines.append(f"largest relative move of {field}: {top[0]:.3g} ({top[1]})")
    return lines


def curve_moves(a: dict, b: dict) -> list[str]:
    """The largest absolute move of R(t) among the curves in both manifests."""
    ca, cb = _kept(a, "functional-roc"), _kept(b, "functional-roc")
    moves = [(float(np.max(np.abs(np.subtract(ca[name]["tpr"], cb[name]["tpr"])))), name)
             for name in sorted(ca.keys() & cb.keys()) if "tpr" in ca[name] and "tpr" in cb[name]]
    top = max(moves, key=lambda move: move[0], default=(0.0, "-"))  # the first of the largest
    return [f"largest absolute move of R(t): {top[0]:.3g} ({top[1]})"]


def _record(call) -> dict:
    """Run call() once and hash its result, error and warnings; keep a fit's K and parameters
    and a curve's R(t) values.

    call() returns a model, a (model, traces) pair, a curve, an ensemble or an array of draws.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # a failure is a result like any other
            result = exc
    out = {"warnings": sorted(f"{w.category.__name__}: {w.message}" for w in caught)}
    kept = {}
    if isinstance(result, Exception):
        out["error"] = kept["error"] = f"{type(result).__name__}: {result}"
    elif hasattr(result, "tpr"):
        out["tpr"] = kept["tpr"] = result.tpr.tolist()
    elif isinstance(result, np.ndarray):
        out["draws"] = sha256(result.tobytes())
    elif hasattr(result, "replicate_matrix"):  # every field of an ensemble, by its bytes
        out.update({name: sha256(np.asarray(getattr(value, "tpr", value)).tobytes())
                    for name, value in vars(result).items()})
    else:
        model, out["traces"] = result if isinstance(result, tuple) else (result, None)
        kept = {"k": model.k, "weights": model.weights.tolist(), "means": model.means.tolist(),
                "variances": model.variances.tolist(), "log_likelihood": model.log_likelihood,
                "n_train": model.n_train}
        out.update(kept)
    return {"sha256": sha256(json.dumps(out, sort_keys=True).encode()), **kept}


def _library_cases(group: str, data: str):
    """Yield (name, call) for each case of one library group, against the importable mixroc."""
    import mixroc
    from mixroc import EmConfig, PopulationTag, ScoreSample

    def fit(values, k, config, tag=PopulationTag.NON_DISEASED):
        return lambda: mixroc.fit_em(ScoreSample(values, tag), k, config, return_trace=True)

    def select(values, config, tag=PopulationTag.NON_DISEASED):
        return lambda: mixroc.select_k(ScoreSample(values, tag), config)

    rng = np.random.default_rng(20261019)
    shapes = {
        "normal": lambda n: rng.normal(0.0, 1.0, n),
        "lognormal": lambda n: rng.lognormal(0.0, 1.0, n),
        "bimodal": lambda n: np.concatenate([rng.normal(-2.0, 1.0, n - n // 3),
                                             rng.normal(3.0, 0.5, n // 3)]),
        "ties": lambda n: rng.integers(0, 4, n).astype(float) ** 3,
    }
    if group in ("fits/wieand", "fits/select-k"):
        for marker in ("ca125", "ca199"):
            study = mixroc.load_dataset(data, score_col=marker, label_col="status")
            for pop in (study.non_diseased, study.diseased):
                for seed in range(20):
                    name = f"{marker}-{pop.population_tag.name.lower()}-seed{seed}"
                    config = EmConfig(seed=seed)
                    if group == "fits/select-k":
                        yield name, select(pop.scores, config, pop.population_tag)
                        continue
                    for k in range(1, 6):  # every K that select_k tries at the defaults
                        yield f"{name}-k{k}", fit(pop.scores, k, config, pop.population_tag)
    if group == "fits/select-k":
        for shape, draw in shapes.items():
            for n in (30, 200):
                for seed in range(3):
                    yield f"{shape}-n{n}-seed{seed}", select(draw(n), EmConfig(seed=seed))
    if group == "fits/synthetic":
        for shape, draw in shapes.items():
            for n in (2, 5, 30, 200):
                values = draw(n)
                for k in range(1, min(5, n) + 1):
                    for max_iter in (1, 2, 37, 500):
                        for seed in (0, 1):
                            yield (f"{shape}-n{n}-k{k}-iter{max_iter}-seed{seed}",
                                   fit(values, k, EmConfig(max_iter=max_iter, seed=seed)))
    if group == "fits/hostile":
        hostile = {
            "n2": np.array([0.0, 1.0]),
            "n2-tie": np.array([3.0, 3.0]),
            "ties-40": np.random.default_rng(12).integers(0, 4, 40).astype(float) ** 3,
            "few-values": np.repeat([1.0, 2.0, 5.0], [20, 1, 9]),
            "ulps": 1.0 + np.arange(30) % 3 * np.finfo(float).eps,
            "wide": np.r_[rng.normal(0.0, 1.0, 40), 1e5],
            "n3000": rng.normal(0.0, 1.0, 3000),  # K=5 runs in batches of one restart
            **{f"const1e200-n{n}": np.full(n, 1e200) for n in (5, 10, 30, 100)},
        }
        for name, values in hostile.items():
            for k in range(1, min(5, values.size) + 1):
                for max_iter in (1, 2, 37, 500):
                    config = EmConfig(max_iter=max_iter)
                    yield f"{name}-k{k}-iter{max_iter}", fit(values, k, config)
    if group == "fits/sim-sweep":
        for index, (scenario, (means, sds)) in enumerate(SIM_SCENARIOS.items()):
            for seed in range(10):  # the scores of the protocol's study at this seed
                rng = np.random.default_rng(np.random.SeedSequence(2026, spawn_key=(index, seed)))
                x = rng.normal(0.0, 1.0, 150)
                comp = rng.integers(0, 2, 150)
                study = mixroc.from_arrays(x, rng.normal(np.asarray(means)[comp],
                                                         np.asarray(sds)[comp]))
                config = EmConfig(k_max=3, n_restarts=3, max_iter=300, seed=seed)
                for pop in (study.non_diseased, study.diseased):
                    name = f"{scenario}-{pop.population_tag.name.lower()}-seed{seed}"
                    yield name, select(pop.scores, config, pop.population_tag)
                    for k in range(1, 4):
                        yield f"{name}-k{k}", fit(pop.scores, k, config, pop.population_tag)
    if group == "functional-roc":
        models = {
            "unit": mixroc.GmmModel([1.0], [0.0], [1.0]),
            "shifted": mixroc.GmmModel([1.0], [1.5], [2.0]),
            "bimodal": mixroc.GmmModel([0.7, 0.3], [0.0, 4.0], [1.0, 0.25]),
            "spike": mixroc.GmmModel([0.98, 0.02], [10.0, 179.0], [10.0, 0.03]),
        }
        grids = {"uniform": mixroc.make_uniform_grid(512), "refined": mixroc.make_refined_grid()}
        for f_name, f_model in models.items():
            for g_name, g_model in models.items():
                for grid_name, grid in grids.items():
                    yield (f"{f_name}-vs-{g_name}-{grid_name}",
                           lambda f=f_model, g=g_model, grid=grid:
                           mixroc.functional_roc(f, g, grid))
        # outside the product: a bracket beyond the float range, refused
        limit = mixroc.GmmModel([1.0], [np.finfo(float).max], [1.0])
        yield ("float-limit-vs-unit-uniform",
               lambda: mixroc.functional_roc(limit, models["unit"], grids["uniform"]))
    if group == "ensemble":
        models = {
            "k1": mixroc.GmmModel([1.0], [0.0], [1.0]),
            "k3": mixroc.GmmModel([0.5, 0.3, 0.2], [0.0, 1.0, 2.0], [1.0, 0.25, 0.09]),
            "k4": mixroc.GmmModel([0.4, 0.3, 0.2, 0.1], [1.0, 2.5, 4.0, 8.0],
                                  [1.0, 0.25, 0.09, 4.0]),
            "k5": mixroc.GmmModel([1 / 90, 0.3, 0.2, 0.2, 0.3 - 1 / 90], [0.5, 1.0, 2.0, 3.0, 4.0],
                                  [0.04, 1.0, 0.25, 0.09, 1.0]),
        }
        for f_name, g_name, m, n_x, n_y, grid in (
                ("k3", "k4", 50, 1000, 1000, mixroc.make_uniform_grid(512)),
                # 47 blocks, in shares on worker threads wherever the process may use 2+ CPUs
                ("k3", "k4", 600, 1000, 1000, mixroc.make_uniform_grid(512)),
                ("k1", "k5", 400, 150, 150, mixroc.make_refined_grid()),
                ("k3", "k4", 7, 3, 2, mixroc.make_uniform_grid(512))):
            config = mixroc.MgConfig(m=m, replicate_n_x=n_x, replicate_n_y=n_y, grid=grid,
                                     seed=m)
            yield (f"run-mg-{f_name}-vs-{g_name}-m{m}-n{n_x}x{n_y}-{grid.count}",
                   lambda f=models[f_name], g=models[g_name], config=config:
                   mixroc.run_mg(f, g, config))
        for name, model in models.items():
            for n in (1, 2, 1000):
                yield (f"sample-from-{name}-n{n}",
                       lambda model=model, n=n: mixroc.sample_from(model, n,
                                                                   np.random.default_rng(n)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    make = sub.add_parser("manifest", help="run the cases against TREE/src")
    make.add_argument("--tree", required=True)
    make.add_argument("--out", required=True)
    compare = sub.add_parser("diff", help="list what differs between two manifests")
    compare.add_argument("a")
    compare.add_argument("b")
    worker = sub.add_parser("worker")  # one library case group, run by `manifest`
    worker.add_argument("group")
    worker.add_argument("data")
    args = parser.parse_args(argv)
    if args.command == "worker":
        records = {name: _record(call) for name, call in _library_cases(args.group, args.data)}
        json.dump(records, sys.stdout, sort_keys=True)
        return 0
    if args.command == "manifest":
        manifest = build_manifest(args.tree)
        Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        failed = [name for name, case in manifest["cases"].items() if case["exit_code"]]
        print(f"{len(manifest['cases'])} cases, exit code != 0: {failed or 'none'}")
        return 1 if failed else 0
    a, b = (json.loads(Path(path).read_text()) for path in (args.a, args.b))
    lines = diff_manifests(a, b)
    if any(line.startswith("fits/") for line in lines):
        lines += fit_moves(a, b)
    if any(line.startswith("functional-roc:") for line in lines):
        lines += curve_moves(a, b)
    print("\n".join(lines) or "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
