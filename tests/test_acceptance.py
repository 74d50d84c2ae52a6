"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything is seeded and single-threaded, so results are exactly
reproducible.
"""

import json
import time

import numpy as np
from scipy.special import logsumexp, softmax

from drshift import (
    RobustClassifier,
    bce_loss,
    default_classifier,
    default_domain_classifier,
    default_shift_spec,
    dual_objective,
    feature_constraint,
    grad_source,
    identity_map,
    predict_proba,
    brier,
    ece,
    miscls_entropy,
)
from drshift.benchmarks import (
    calibration_trial,
    erm_baseline,
    self_training_trial,
    semi_supervised_trial,
)
from drshift.cli import main as cli_main
from drshift.domain import bce_gradient_arrays, domain_ratios
from drshift.kde import run_plugin_simulation
from drshift.robust import _domain_gradient

from helpers import (
    enumerate_source,
    fd_layers,
    fd_matrix,
    flat,
    random_discrete_instance,
    rel_err,
)
from oracle import domain_step_objective, drl_density_gradient, oracle_expectations

SEEDS = range(5)
# (r, ratio_bounds) of the domain step's gradient check: r = 0 at the
# default bounds, then the calibration, self-training and consistency
# recipes' settings.
DOMAIN_STEP_SETTINGS = [(0.0, (1e-3, 1e3)), (0.5, (1e-3, 1e3)), (1.0, (0.9, 1.11)), (0.5, (0.5, 2.0))]


def report(num, name, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num:>2} {'PASS' if passed else 'FAIL'}: {name}{tail}")
    assert passed, f"criterion {num}: {name}{tail}"


def test_criterion_1_reduction_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    max_gap = 0.0
    temperature_ok = True
    for _ in range(100):
        C, m = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        theta = rng.normal(size=(C, m))
        x = rng.normal(size=m)
        clf = RobustClassifier(theta, identity_map(m), 0.0)
        probs, _ = predict_proba(clf, x[None], [1.0])
        max_gap = max(max_gap, np.abs(probs[0] - softmax(theta @ x)).max())

        r = float(rng.uniform(0.0, 1.0))
        R = float(rng.uniform(0.01, 10.0))
        clf_r = RobustClassifier(theta, identity_map(m), r)
        p_test, _ = predict_proba(clf_r, x[None], [R])
        if not np.array_equal(p_test[0], softmax(R * (theta @ x) / (1.0 + r))):
            temperature_ok = False
    elapsed = time.monotonic() - start
    report(
        1,
        "reduction and temperature identity",
        max_gap <= 1e-12 and temperature_ok and elapsed < 1.0,
        f"max gap {max_gap:.2e}, identity bitwise {temperature_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(1)
    for trial in range(20):
        # grad_source (theta and feature parameters, r = 0) against central
        # finite differences of the dual objective on an exactly enumerable
        # instance
        spec, clf = random_discrete_instance(
            rng,
            n_points=int(rng.integers(3, 7)),
            class_count=int(rng.integers(2, 5)),
            dim=int(rng.integers(2, 7)),
            feature_dim=int(rng.integers(2, 9)),
            uniform_target=True,
        )
        X, y, w, ratios = enumerate_source(spec)
        g = grad_source(clf, (X, y), ratios, weights=w)
        target_ratios = spec.p_source / spec.p_target

        def dual():
            cons = feature_constraint(clf.feature_map, X, y, spec.class_count, weights=w)
            return dual_objective(clf, spec.points, target_ratios, cons)

        worst = max(worst, rel_err(fd_matrix(dual, clf.theta, 1e-5), g.grad_theta))
        worst = max(
            worst, rel_err(flat(fd_layers(dual, clf.feature_map, 1e-5)), g.feature_grad)
        )

        # domain-classifier BCE gradient
        dom = default_domain_classifier(3, seed=300 + trial, hidden=(4,))
        Xd = rng.normal(size=(8, 3))
        td = rng.integers(0, 2, size=8).astype(float)
        gb = bce_gradient_arrays(dom, Xd, td)
        fdb = fd_layers(lambda: bce_loss(dom, Xd, td), dom.net, 1e-5)
        worst = max(worst, rel_err(flat(fdb), gb))

        # density gradients against the log-partition
        theta = rng.normal(size=(3, 4))
        phi = rng.normal(size=4)
        tau_s = float(rng.uniform(0.2, 0.8))
        tau_t = 1.0 - tau_s
        z = theta @ phi
        probs = softmax((tau_s / tau_t) * z)
        est = type(
            "E", (), {"tau_s": tau_s, "tau_t": tau_t, "ratio": tau_s / tau_t, "clamped": False}
        )
        g_s, g_t = drl_density_gradient(theta, phi, probs, est)
        eps = 1e-5
        fd_s = (logsumexp((tau_s + eps) / tau_t * z) - logsumexp((tau_s - eps) / tau_t * z)) / (2 * eps)
        fd_t = (logsumexp(tau_s / (tau_t + eps) * z) - logsumexp(tau_s / (tau_t - eps) * z)) / (2 * eps)
        worst = max(worst, rel_err(fd_s, g_s), rel_err(fd_t, g_t))

    # The trainers' domain step, _domain_gradient, against central
    # differences of the objective F_r it descends
    # (oracle.domain_step_objective) at every setting, on unequal halves
    # whose source rows carry both domain tags, as DRST's pseudo-labelled
    # rows do. Clamped target rows must occur, so the zero density upstream
    # there is checked too.
    clamped, target_rows = 0, 0
    for r, bounds in DOMAIN_STEP_SETTINGS:
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            clf = default_classifier(2, 3, seed=seed, r=r, ratio_bounds=bounds)
            clf.theta = rng.normal(size=clf.theta.shape)
            dom = default_domain_classifier(2, seed=seed + 1)
            Xb_s, Xb_t = rng.normal(size=(16, 2)), rng.normal(size=(24, 2))
            t_s = rng.permutation(np.repeat([1.0, 0.0], [12, 4]))
            g = _domain_gradient(clf, dom, Xb_s, t_s, Xb_t)
            fd = fd_layers(lambda: domain_step_objective(clf, dom, Xb_s, t_s, Xb_t), dom.net, 1e-6)
            worst = max(worst, rel_err(flat(fd), g))
            clamped += int(domain_ratios(dom, Xb_t, clf.ratio_bounds)[1].sum())
            target_rows += len(Xb_t)
    elapsed = time.monotonic() - start
    report(
        2,
        "gradients match central finite differences",
        worst <= 1e-4 and clamped > 0 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, domain step at {len(DOMAIN_STEP_SETTINGS)} (r, bounds) "
        f"with {clamped}/{target_rows} target rows clamped, {elapsed:.1f}s",
    )


def test_criterion_3_change_of_measure_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        spec, clf = random_discrete_instance(
            rng, n_points=int(rng.integers(4, 17)), class_count=int(rng.integers(2, 5))
        )
        X, y, w, ratios = enumerate_source(spec)
        g = grad_source(clf, (X, y), ratios, weights=w)
        res = oracle_expectations(spec, clf)
        worst = max(worst, float(np.abs(g.grad_theta - res.grad_theta).max()))
    report(
        3,
        "source-expectation gradient equals enumerated dual gradient",
        worst <= 1e-10,
        f"max abs gap {worst:.2e}",
    )


def test_criterion_4_conservativeness():
    rng = np.random.default_rng(3)
    grid = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0]
    ok = True
    kl_max = 0.0
    for _ in range(20):
        C = int(rng.integers(2, 5))
        theta = rng.normal(size=(C, 3))
        x = rng.normal(size=3)
        clf = RobustClassifier(theta, identity_map(3), 0.0, (1e-3, 1e3))
        ents = []
        for R in grid:
            p = predict_proba(clf, x[None], [R])[0][0]
            ents.append(float(-(p * np.log(p)).sum()))
        ok = ok and all(a > b for a, b in zip(ents, ents[1:]))
        p_small = predict_proba(clf, x[None], [0.01])[0][0]
        kl = float(np.log(C) + (p_small * np.log(p_small)).sum())
        kl_max = max(kl_max, kl)
    report(
        4,
        "entropy strictly decreasing in the ratio; near-uniform at R=0.01",
        ok and kl_max < 1e-2,
        f"max KL to uniform {kl_max:.2e}",
    )


def test_criterion_5_calibration_under_shift():
    start = time.monotonic()
    rows = [calibration_trial(seed) for seed in SEEDS]
    ece_drl = np.mean([r["drl"].ece for r in rows])
    ece_erm = np.mean([r["erm"].ece for r in rows])
    brier_drl = np.mean([r["drl"].brier for r in rows])
    brier_erm = np.mean([r["erm"].brier for r in rows])
    ts_wins = sum(r["drl"].ece <= r["ts"].ece for r in rows)
    elapsed = time.monotonic() - start
    passed = ece_drl < ece_erm and brier_drl < brier_erm and ts_wins >= 3 and elapsed < 120
    report(
        5,
        "robust model better calibrated than source-only and temperature scaling",
        passed,
        f"ECE {ece_drl:.3f} vs {ece_erm:.3f}, Brier {brier_drl:.3f} vs {brier_erm:.3f}, "
        f"<=TS on {ts_wins}/5, {elapsed:.0f}s",
    )


def test_criterion_6_plugin_simulation():
    start = time.monotonic()
    mismatches = 0
    for seed in SEEDS:
        rows = run_plugin_simulation(default_shift_spec(seed=seed), [0.05, 0.2, 0.5, 1.0])
        best_ll = max(rows, key=lambda r: r["ll_target"])
        best_loss = min(rows, key=lambda r: r["target_logloss"])
        mismatches += best_ll["h"] != best_loss["h"]
    elapsed = time.monotonic() - start
    report(
        6,
        "best-likelihood bandwidth is not best for downstream loss",
        mismatches >= 3 and elapsed < 120,
        f"mismatch on {mismatches}/5 seeds, {elapsed:.0f}s",
    )


def test_criterion_7_self_training_gain():
    start = time.monotonic()
    full = [self_training_trial(seed, "full")["report"] for seed in SEEDS]
    unit = [self_training_trial(seed, "unit_ratio")["report"] for seed in SEEDS]
    noreg = [self_training_trial(seed, "no_reg")["report"] for seed in SEEDS]
    erm = [erm_baseline(seed)["report"] for seed in SEEDS]
    acc_full = np.mean([r.accuracy for r in full])
    acc_unit = np.mean([r.accuracy for r in unit])
    acc_noreg = np.mean([r.accuracy for r in noreg])
    acc_erm = np.mean([r.accuracy for r in erm])
    brier_full = np.mean([r.brier for r in full])
    brier_erm = np.mean([r.brier for r in erm])
    elapsed = time.monotonic() - start
    passed = (
        acc_full >= acc_erm + 0.02
        and brier_full < brier_erm
        and acc_unit <= acc_full
        and acc_noreg <= acc_full
        and elapsed < 300
    )
    report(
        7,
        "self-training beats source-only; ablations do not beat the full method",
        passed,
        f"acc full {acc_full:.3f} vs erm {acc_erm:.3f} (unit {acc_unit:.3f}, no-reg {acc_noreg:.3f}), "
        f"Brier {brier_full:.3f} vs {brier_erm:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_semi_supervised_gain():
    start = time.monotonic()
    ours = [semi_supervised_trial(seed)["report"].accuracy for seed in SEEDS]
    base = [semi_supervised_trial(seed, baseline=True)["report"].accuracy for seed in SEEDS]
    elapsed = time.monotonic() - start
    gain = np.mean(ours) - np.mean(base)
    report(
        8,
        "consistency training beats the softmax-confidence baseline",
        gain >= 0.01 and elapsed < 300,
        f"mean acc {np.mean(ours):.3f} vs {np.mean(base):.3f} (gain {gain:+.3f}), {elapsed:.0f}s",
    )


def test_criterion_9_metric_unit_values():
    b = brier([[0.8, 0.2]], [0])
    e, _ = ece([[0.9, 0.1], [0.9, 0.1]], [0, 1], n_bins=5)
    ment, _ = miscls_entropy([[0.5, 0.5]], [1])
    passed = (
        abs(b - 0.08) <= 1e-12 and abs(e - 0.4) <= 1e-12 and abs(ment - np.log(2)) <= 1e-12
    )
    report(9, "metric unit values", passed, f"brier {b}, ece {e}, entropy {ment}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "seed": 11,
        "out_dir": str(tmp_path / "a"),
        "data": {"kind": "gaussian", "n_source": 80, "n_target": 80},
        "train": {"epochs": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train-drl", "--config", str(cfg_path)]) == 0
    assert cli_main(["train-drl", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl"
    ).read_bytes()
    report(10, "repeated CLI runs are byte-identical", same)
