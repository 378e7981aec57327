"""Acceptance gate: every shipped requirement at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion. Each criterion asserts at its own tolerance; the printed line
states the measured values.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from mixroc import ensemble
from mixroc.binormal import BinormalParams, binormal_auc, binormal_curve, fit_binormal
from mixroc.datasets import from_arrays, load_dataset, make_refined_grid, make_uniform_grid
from mixroc.ensemble import MgConfig, mg_pipeline, run_mg
from mixroc.gmm import EmConfig, GmmModel, fit_em, pdf, survival, survival_inverse
from mixroc.roc import (
    auc_mann_whitney,
    auc_trapezoid,
    empirical_roc,
    empirical_roc_points,
    functional_roc,
)

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")
GRID = make_uniform_grid(512)


def load_marker(marker):
    return load_dataset(DATA, score_col=marker, label_col="status", source_name=marker)


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def brute_force_mw(x, y):
    total = 0.0
    for xv in x:
        for yv in y:
            total += 1.0 if yv > xv else (0.5 if yv == xv else 0.0)
    return total / (len(x) * len(y))


# --------------------------------------------------------------------------
# 1–2: empirical AUCs on the pancreatic-cancer biomarkers
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "criterion,marker,trap_ref,mw_ref",
    [(1, "ca125", 0.7143, 0.7056), (2, "ca199", 0.8651, 0.8614)],
)
def test_empirical_auc(criterion, marker, trap_ref, mw_ref):
    ds = load_marker(marker)
    start = time.perf_counter()
    trap = auc_trapezoid(empirical_roc(ds, GRID))
    mw = auc_mann_whitney(ds)
    elapsed = time.perf_counter() - start
    ok = abs(trap - trap_ref) <= 0.005 and abs(mw - mw_ref) <= 0.005 and elapsed < 1.0
    announce(
        criterion,
        ok,
        f"{marker} empirical trapezoidal={trap:.4f} (ref {trap_ref}+-0.005), "
        f"Mann-Whitney={mw:.4f} (ref {mw_ref}+-0.005), {elapsed*1000:.1f} ms",
    )


# --------------------------------------------------------------------------
# 3: crude binormal closed-form AUC from sample moments
# --------------------------------------------------------------------------

def test_binormal_closed_form():
    vals = {}
    for marker, ref in (("ca125", 0.5924), ("ca199", 0.6774)):
        vals[marker] = (binormal_auc(fit_binormal(load_marker(marker))), ref)
    ok = all(abs(got - ref) <= 0.005 for got, ref in vals.values())
    detail = ", ".join(
        f"{m}={got:.4f} (ref {ref}+-0.005)" for m, (got, ref) in vals.items()
    )
    announce(3, ok, "binormal closed form " + detail)


# --------------------------------------------------------------------------
# 4: ensemble AUC with defaults, five seeds per biomarker
# --------------------------------------------------------------------------

@pytest.mark.parametrize("marker,ref", [("ca125", 0.7147), ("ca199", 0.8569)])
def test_mg_auc_on_study_data(marker, ref):
    ds = load_marker(marker)
    values = []
    start = time.perf_counter()
    for seed in range(5):
        _, _, res = mg_pipeline(ds, EmConfig(seed=seed), MgConfig(m=1000, seed=seed, grid=GRID))
        values.append(res.auc_mean)
    elapsed = time.perf_counter() - start
    ok = all(abs(v - ref) <= 0.02 for v in values) and elapsed < 30.0
    announce(
        4,
        ok,
        f"{marker} ensemble AUC over 5 seeds in [{min(values):.4f}, {max(values):.4f}] "
        f"(ref {ref}+-0.02), {elapsed:.1f} s total",
    )


# --------------------------------------------------------------------------
# 5: simulation protocol, ensemble at least as close as binormal
# --------------------------------------------------------------------------

SCENARIOS = {
    "strong": dict(means=(2.2, 5.0), sds=(0.6, 1.0)),
    "moderate": dict(means=(0.3, 2.6), sds=(0.5, 0.9)),
    "poor": dict(means=(-0.5, 1.6), sds=(0.6, 1.2)),
}


def simulate_scenario(index, seed, n=150):
    """Unimodal controls, bimodal cases; one synthetic study per seed."""
    params = list(SCENARIOS.values())[index]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=2026, spawn_key=(index, seed)))
    x = rng.normal(0.0, 1.0, n)
    comp = rng.integers(0, 2, n)
    y = rng.normal(np.asarray(params["means"])[comp], np.asarray(params["sds"])[comp])
    return from_arrays(x, y)


def test_simulation_protocol_mg_beats_binormal():
    wins = {}
    for index, name in enumerate(SCENARIOS):
        wins[name] = 0
        for seed in range(10):
            ds = simulate_scenario(index, seed)
            emp = auc_trapezoid(empirical_roc(ds, GRID))
            bin_auc = binormal_auc(fit_binormal(ds))
            _, _, res = mg_pipeline(
                ds,
                EmConfig(k_max=3, n_restarts=3, max_iter=300, seed=seed),
                MgConfig(m=400, seed=seed, grid=GRID),
            )
            if abs(res.auc_mean - emp) <= abs(bin_auc - emp):
                wins[name] += 1
    succeeded = sum(w >= 8 for w in wins.values())
    ok = succeeded >= 2
    announce(
        5,
        ok,
        "ensemble at least as close as binormal in "
        + ", ".join(f"{name}: {w}/10 seeds" for name, w in wins.items())
        + f" -> {succeeded}/3 scenarios succeed (need >= 2)",
    )


# --------------------------------------------------------------------------
# 6: property suite
# --------------------------------------------------------------------------

def random_dataset(rng):
    kind = rng.integers(0, 3)
    n = int(rng.integers(20, 120))
    if kind == 0:
        data = rng.normal(rng.uniform(-5, 5), rng.uniform(0.3, 3.0), n)
    elif kind == 1:
        comp = rng.integers(0, 2, n)
        mus = rng.uniform(-6, 6, 2)
        data = rng.normal(mus[comp], rng.uniform(0.3, 2.0), n)
    else:
        data = rng.lognormal(rng.uniform(0, 2), rng.uniform(0.3, 1.0), n)
    return data


def test_property_a_em_loglik_monotone():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng)
        k = int(rng.integers(1, 4))
        from mixroc.datasets import PopulationTag, ScoreSample

        _, traces = fit_em(
            ScoreSample(data, PopulationTag.NON_DISEASED),
            k,
            EmConfig(seed=seed, n_restarts=2, max_iter=200),
            return_trace=True,
        )
        for trace in traces:
            if len(trace) > 1:
                worst = max(worst, float(np.max(-np.diff(trace))))
    ok = worst <= 1e-9
    announce(6, ok, f"(a) EM log-likelihood monotone on 100 datasets, worst dip {worst:.2e} <= 1e-9")


def test_property_b_trapezoid_mann_whitney_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(0, 1, int(rng.integers(5, 60)))
        y = rng.normal(rng.uniform(0, 2), 1.3, int(rng.integers(5, 60)))
        ds = from_arrays(x, y)  # continuous draws: tie-free
        _, fpr, tpr = empirical_roc_points(ds)
        worst = max(worst, abs(np.trapezoid(tpr, fpr) - auc_mann_whitney(ds)))
    ok = worst <= 1e-12
    announce(6, ok, f"(b) step-curve trapezoid == Mann-Whitney on 100 tie-free datasets, worst {worst:.2e}")


def test_property_c_survival_round_trip():
    worst = 0.0
    rng = np.random.default_rng(99)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        model = GmmModel(
            rng.dirichlet(np.ones(k) * 2.0),
            rng.uniform(-5, 5, k),
            rng.uniform(0.05, 4.0, k),
        )
        for t in np.arange(0.01, 1.0, 0.01):
            err = abs(survival(model, survival_inverse(model, float(t))) - t)
            worst = max(worst, err)
    ok = worst <= 1e-9
    announce(6, ok, f"(c) survival round trip on 50 mixtures x 99 quantiles, worst {worst:.2e} <= 1e-9")


def test_property_d_binormal_quadrature_lattice():
    grid = make_refined_grid()  # resolves the corner steepness at b far from 1
    worst = 0.0
    for a in np.linspace(-3.0, 3.0, 7):
        for b in (0.3, 0.5, 1.0, 1.5, 2.2, 3.0):
            params = BinormalParams(float(a), float(b), 0.0, float(b), float(a), 1.0)
            diff = abs(auc_trapezoid(binormal_curve(params, grid)) - binormal_auc(params))
            worst = max(worst, diff)
    ok = worst <= 1e-4
    announce(6, ok, f"(d) binormal quadrature vs closed form over (a,b) lattice, worst {worst:.2e} <= 1e-4")


def test_property_e_functional_roc_diagonal():
    rng = np.random.default_rng(7)
    grid = make_uniform_grid(101)
    worst = 0.0
    for _ in range(5):
        k = int(rng.integers(1, 4))
        model = GmmModel(
            rng.dirichlet(np.ones(k) * 2.0),
            rng.uniform(-4, 4, k),
            rng.uniform(0.1, 3.0, k),
        )
        curve = functional_roc(model, model, grid)
        worst = max(worst, float(np.max(np.abs(curve.tpr - grid.points))))
    ok = worst <= 1e-8
    announce(6, ok, f"(e) functional ROC of identical models is the diagonal, worst {worst:.2e} <= 1e-8")


def test_property_f_pdf_normalization():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        model = GmmModel(
            rng.dirichlet(np.ones(k) * 2.0),
            rng.uniform(-5, 5, k),
            rng.uniform(0.05, 4.0, k),
        )
        sig = float(np.sqrt(model.variances.max()))
        total, _ = quad(
            lambda v: pdf(model, v),
            float(model.means.min()) - 10 * sig,
            float(model.means.max()) + 10 * sig,
            limit=200,
        )
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-6
    announce(6, ok, f"(f) mixture pdf integrates to 1, worst deviation {worst:.2e} <= 1e-6")


# --------------------------------------------------------------------------
# 7: Monte Carlo contracts
# --------------------------------------------------------------------------

def test_mc_determinism_and_ci_shrinkage(monkeypatch):
    f = GmmModel([1.0], [0.0], [1.0])
    g = GmmModel([1.0], [1.5], [1.0])
    base = dict(seed=5, grid=GRID, replicate_n_x=100, replicate_n_y=100)

    r1a = run_mg(f, g, MgConfig(m=1000, **base))
    r1b = run_mg(f, g, MgConfig(m=1000, **base))
    blocked = []
    for rows in (1, 7, 1000):
        # replicates per block = _BLOCK_SCORES // (n_x + n_y + grid count)
        monkeypatch.setattr(ensemble, "_BLOCK_SCORES", rows * (100 + 100 + GRID.count))
        blocked.append(run_mg(f, g, MgConfig(m=1000, **base)))
    monkeypatch.undo()
    identical = all(
        np.array_equal(getattr(r1a, name), getattr(other, name))
        for other in (r1b, *blocked)
        for name in ("se", "ci_lower", "ci_upper", "env_lower", "env_upper", "auc_samples",
                     "auc_mann_whitney_mean")
    ) and all(
        np.array_equal(r1a.mean_curve.tpr, other.mean_curve.tpr) for other in (r1b, *blocked)
    )

    r4 = run_mg(f, g, MgConfig(m=4000, **base))
    ratio = float(np.mean(r1a.ci_upper - r1a.ci_lower) / np.mean(r4.ci_upper - r4.ci_lower))
    ok = identical and 1.8 <= ratio <= 2.2
    announce(
        7,
        ok,
        f"bit-identical reruns, runs in blocks of 1, 7 and M replicates: {identical}; "
        f"CI width ratio M=1000/M=4000 = {ratio:.3f} in [1.8, 2.2]",
    )


# --------------------------------------------------------------------------
# 8: curve invariants on every acceptance dataset
# --------------------------------------------------------------------------

def test_curve_invariants_everywhere():
    curves = []
    for marker in ("ca125", "ca199"):
        ds = load_marker(marker)
        curves.append(empirical_roc(ds, GRID))
        curves.append(empirical_roc(ds, GRID, interpolate=False))
        curves.append(binormal_curve(fit_binormal(ds), GRID))
        _, _, res = mg_pipeline(
            ds, EmConfig(seed=1), MgConfig(m=200, seed=1, grid=GRID)
        )
        curves.append(res.mean_curve)
    for index in range(len(SCENARIOS)):
        ds = simulate_scenario(index, seed=0)
        curves.append(empirical_roc(ds, GRID))
        curves.append(binormal_curve(fit_binormal(ds), GRID))
    checked = 0
    for curve in curves:
        assert np.all((curve.tpr >= 0.0) & (curve.tpr <= 1.0))
        assert np.all(np.diff(curve.tpr) >= 0.0)
        assert curve.tpr.size == curve.grid.count
        checked += 1
    announce(8, True, f"monotonicity and range invariants hold on {checked} emitted curves")
