"""The byte-identity tool (tools/identity.py): manifests are deterministic, diff reports moves."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    return identity


def test_two_manifests_of_one_tree_are_equal():
    # the determinism contract on a small subset: one MG CLI run and the model curves
    identity = load_identity()
    cases = ["cli/ca199-mg", "functional-roc"]
    first, second = (identity.build_manifest(ROOT, cases) for _ in range(2))
    assert sorted(first["cases"]) == cases
    assert all(case["exit_code"] == 0 and case["files"] for case in first["cases"].values())
    assert first == second
    assert identity.diff_manifests(first, second) == []


def test_diff_lists_files_and_fit_moves():
    identity = load_identity()
    fit = {"k": 2, "means": [1.0, 2.0], "variances": [1.0, 4.0], "log_likelihood": -10.0}

    def manifest(digest, fits, group="fits/x", exit_code=0):
        return {"versions": {}, "cases": {group: {
            "exit_code": exit_code, "stdout": "", "stderr": "",
            "files": dict.fromkeys(fits, digest), "fits": fits}}}

    at_zero = {**fit, "means": [0.0, 2.0]}  # judged against sigma 1, not against |mean| 1e-16
    before = manifest("0", {"a": fit, "b": fit, "c": at_zero})
    after = manifest("1", {"a": {**fit, "means": [1.0, 2.5]}, "b": {**fit, "k": 3},
                           "c": {**at_zero, "means": [1e-16, 2.0]}})
    assert identity.diff_manifests(before, after) == [
        "fits/x: a differs", "fits/x: b differs", "fits/x: c differs"]
    assert identity.fit_moves(before, after) == [
        "K changes: 1 of 3 fits (None: an error)",
        "  fits/x: b: K 2 -> 3",
        "largest relative move of means: 0.2 (fits/x: a)",
        "largest relative move of variances: 0 (fits/x: a)",
        "largest relative move of log_likelihood: 0 (fits/x: a)",
    ]
    # curves: R(t) moves are absolute, and the fits' lines leave them out
    curve = {"tpr": [0.0, 0.5, 1.0]}
    before = manifest("0", {"r": curve, "s": curve}, group="functional-roc")
    after = manifest("1", {"r": {"tpr": [0.0, 0.25, 1.0]}, "s": {"tpr": [0.0, 0.5 + 1e-15, 1.0]}},
                     group="functional-roc")
    assert identity.diff_manifests(before, after) == [
        "functional-roc: r differs", "functional-roc: s differs"]
    assert identity.curve_moves(before, after) == [
        "largest absolute move of R(t): 0.25 (functional-roc: r)"]
    assert identity.fit_moves(before, after)[0] == "K changes: 0 of 0 fits (None: an error)"
    # a library group that fails on both sides compares no fit, even with equal stderr
    failed = manifest("0", {}, group="fits/wieand", exit_code=1)
    assert identity.diff_manifests(failed, failed) == [
        "fits/wieand: exit code 1 on both sides, fits not compared"]
