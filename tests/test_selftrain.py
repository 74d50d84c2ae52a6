import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drshift import (
    ContractError,
    DivergenceError,
    SelfTrainSchedule,
    TrainConfig,
    calibration_report,
    default_classifier,
    default_domain_classifier,
    default_shift_spec,
    generate_gaussian_shift,
    select_pseudo,
    target_predictions,
)
from drshift.robust import train_end_to_end
from drshift.selftrain import run_drst

from helpers import default_models


class TestSchedule:
    def test_cap_arithmetic(self):
        sched = SelfTrainSchedule(p0=0.1, dp=0.1, pmax=0.15, rounds=3)
        assert [sched.portion(t) for t in range(3)] == [0.1, pytest.approx(0.15), pytest.approx(0.15)]

    def test_paper_defaults(self):
        sched = SelfTrainSchedule()
        assert (sched.p0, sched.dp, sched.pmax) == (0.065, 0.0085, 0.165)

    def test_portion_sequence_monotone_and_capped(self):
        sched = SelfTrainSchedule(p0=0.02, dp=0.03, pmax=0.1, rounds=8)
        seq = [sched.portion(t) for t in range(8)]
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        assert max(seq) <= 0.1

    def test_invalid_schedule_rejected(self):
        from drshift.errors import ConfigError

        with pytest.raises(ConfigError):
            SelfTrainSchedule(p0=0.5, dp=0.0, pmax=0.4)


class TestSelectPseudo:
    def test_zero_portion_selects_nothing(self):
        assert len(select_pseudo(np.array([[0.9, 0.1]]), 0.0)) == 0

    def test_full_portion_selects_everything(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(3), size=20)
        chosen = select_pseudo(P, 1.0)
        assert len(chosen) == 20
        np.testing.assert_array_equal(chosen, np.arange(20))

    def test_hand_enumerated_selection(self):
        P = np.array([
            [0.9, 0.1],   # class 0, conf 0.9
            [0.6, 0.4],   # class 0, conf 0.6
            [0.2, 0.8],   # class 1, conf 0.8
        ])
        chosen = select_pseudo(P, 0.5)
        assert {(int(i), int(P[i].argmax())) for i in chosen} == {(0, 0), (2, 1)}

    def test_out_of_range_portion_rejected(self):
        with pytest.raises(ContractError):
            select_pseudo(np.array([[0.5, 0.5]]), 1.5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_selection_invariants(self, seed, portion):
        rng = np.random.default_rng(seed)
        n, C = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        P = rng.dirichlet(np.ones(C), size=n)
        chosen = select_pseudo(P, portion)
        assert chosen.dtype.kind == "i"
        assert np.all(np.diff(chosen) > 0)  # sorted, each target at most once
        labels = P.argmax(axis=1)
        counts = np.bincount(labels[chosen], minlength=C)
        for c in range(C):
            n_c = int((labels == c).sum())
            expected = min(int(np.ceil(portion * n_c)), n_c) if n_c else 0
            assert counts[c] == expected
            # the selected rows of class c are its most confident ones
            picked = P[chosen[labels[chosen] == c]].max(axis=1)
            rest = np.delete(P, chosen, axis=0)
            rest = rest[rest.argmax(axis=1) == c].max(axis=1)
            if picked.size and rest.size:
                assert picked.min() >= rest.max()

    def test_tie_breaks_by_lower_index(self):
        P = np.array([[0.8, 0.2], [0.8, 0.2]])
        chosen = select_pseudo(P, 0.5)
        assert chosen.tolist() == [0]


class TestRunDrst:
    def _data(self, seed=0, n=60):
        return generate_gaussian_shift(default_shift_spec(seed=seed, n_source=n, n_target=n))

    def test_zero_rounds_equals_plain_training(self):
        source, target, _ = self._data()
        cfg = TrainConfig(epochs=3, seed=1)
        clf0 = default_classifier(2, 2, seed=2, r=0.5)
        dom0 = default_domain_classifier(2, seed=3)
        sched = SelfTrainSchedule(rounds=0)
        clf_a, dom_a, hist = run_drst(source, target, sched, cfg, clf0, dom0)
        clf_b, dom_b, _ = train_end_to_end(source, target, clf0, dom0, cfg)
        assert hist == []
        np.testing.assert_array_equal(clf_a.theta, clf_b.theta)
        for (Wa, ba), (Wb, bb) in zip(dom_a.net.layers, dom_b.net.layers):
            np.testing.assert_array_equal(Wa, Wb)

    def test_non_finite_dual_raises_at_its_epoch(self, monkeypatch):
        # The per-epoch record of a DRST pass checks the dual alone; here it
        # turns NaN at epoch 1 of round 0 while theta stays finite.
        import drshift.robust as robust

        source, target, _ = self._data()
        cfg = TrainConfig(epochs=3, seed=1)
        calls = []
        real = robust.dual_objective

        def dual_objective(*args):
            calls.append(args)
            return float("nan") if len(calls) == cfg.epochs + 2 else real(*args)

        monkeypatch.setattr(robust, "dual_objective", dual_objective)
        with pytest.raises(DivergenceError, match="non-finite training state at epoch 1$") as exc:
            run_drst(source, target, SelfTrainSchedule(rounds=2), cfg, *default_models(source, 0))
        assert len(calls) == cfg.epochs + 2 and exc.value.state["epoch"] == 1
        assert np.isfinite(calls[-1][0].theta).all()

    def test_history_records_per_round(self):
        source, target, _ = self._data(seed=4)
        cfg = TrainConfig(epochs=2, seed=1)
        sched = SelfTrainSchedule(p0=0.1, dp=0.05, pmax=0.3, rounds=3)
        _, _, hist = run_drst(source, target, sched, cfg, *default_models(source, cfg.seed))
        assert [h["round"] for h in hist] == [0, 1, 2]
        assert [h["portion"] for h in hist] == [0.1, pytest.approx(0.15), pytest.approx(0.2)]
        for h in hist:
            assert {"round", "portion", "n_pseudo", "accuracy", "brier", "ece"} <= set(h)

    def test_pseudo_counts_grow_with_portion(self):
        source, target, _ = self._data(seed=5, n=100)
        cfg = TrainConfig(epochs=2, seed=2)
        sched = SelfTrainSchedule(p0=0.1, dp=0.2, pmax=0.9, rounds=3)
        _, _, hist = run_drst(source, target, sched, cfg, *default_models(source, cfg.seed))
        counts = [h["n_pseudo"] for h in hist]
        assert counts[0] < counts[-1]

    def test_deterministic_given_seed(self):
        source, target, _ = self._data(seed=6)
        cfg = TrainConfig(epochs=2, seed=3)
        sched = SelfTrainSchedule(rounds=2)
        _, _, h1 = run_drst(source, target, sched, cfg, *default_models(source, cfg.seed))
        _, _, h2 = run_drst(source, target, sched, cfg, *default_models(source, cfg.seed))
        assert h1 == h2

    def test_predicts_the_target_once_per_pass(self, monkeypatch):
        import drshift.selftrain as selftrain

        calls = []

        def counting(clf, dom, dataset):
            calls.append(dataset)
            return target_predictions(clf, dom, dataset)

        monkeypatch.setattr(selftrain, "target_predictions", counting)
        source, target, _ = self._data(seed=7)
        cfg = TrainConfig(epochs=2, seed=4)
        sched = SelfTrainSchedule(rounds=3)
        clf, dom, hist = run_drst(source, target, sched, cfg, *default_models(source, cfg.seed))
        assert len(calls) == sched.rounds + 1
        probs, _ = target_predictions(clf, dom, target)
        report = calibration_report(probs, target.y)
        assert (hist[-1]["accuracy"], hist[-1]["brier"], hist[-1]["ece"]) == (
            report.accuracy, report.brier, report.ece)
