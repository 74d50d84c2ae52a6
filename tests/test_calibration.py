import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from drshift import brier, calibration_report, ece, fit_temperature, miscls_entropy, nll
from drshift.calibration import _lse_parts, _mean_nll, _row_reduce
from drshift.errors import ContractError


class TestBrier:
    def test_perfect_prediction(self):
        assert brier([[1.0, 0.0]], [0]) == 0.0

    def test_hand_value(self):
        assert brier([[0.8, 0.2]], [0]) == pytest.approx(0.08, abs=1e-12)

    def test_uniform_two_class(self):
        assert brier([[0.5, 0.5]], [1]) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_four_class(self):
        assert brier([[0.25] * 4], [2]) == pytest.approx(0.75, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            brier([[0.5, 0.5]], [0, 1])


class TestEce:
    def test_hand_example(self):
        probs = [[0.9, 0.1], [0.9, 0.1]]
        labels = [0, 1]  # one correct, one wrong at confidence 0.9
        val, bins = ece(probs, labels, n_bins=5)
        assert val == pytest.approx(0.4, abs=1e-12)
        top = bins[-1]
        assert top.count == 2 and top.mean_confidence == pytest.approx(0.9)
        assert top.accuracy == pytest.approx(0.5)

    def test_perfectly_calibrated_bins(self):
        # confidence 0.7 with 70% accuracy inside one bin
        probs = [[0.7, 0.3]] * 10
        labels = [0] * 7 + [1] * 3
        val, _ = ece(probs, labels, n_bins=5)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_single_confident_correct(self):
        val, _ = ece([[1.0, 0.0]], [0], n_bins=5)
        assert val == 0.0

    def test_interior_edge_goes_to_upper_bin(self):
        _, bins = ece([[0.8, 0.2]], [0], n_bins=5)
        assert bins[-1].count == 1 and bins[-2].count == 0

    def test_single_bin_equals_accuracy_confidence_gap(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(3), size=50)
        y = rng.integers(0, 3, size=50)
        val, _ = ece(P, y, n_bins=1)
        acc = (P.argmax(1) == y).mean()
        conf = P.max(1).mean()
        assert val == pytest.approx(abs(acc - conf), abs=1e-12)

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        P = rng.dirichlet(np.ones(4), size=33)
        y = rng.integers(0, 4, size=33)
        _, bins = ece(P, y)
        assert sum(b.count for b in bins) == 33

    @pytest.mark.parametrize("n_bins", [0, -1, 2.5, 5.0, True, np.bool_(True), "5", None])
    def test_n_bins_must_be_a_positive_integer(self, n_bins):
        message = f"n_bins must be an integer >= 1, got {n_bins!r}"
        with pytest.raises(ContractError, match=re.escape(message)):
            ece([[0.8, 0.2]], [0], n_bins=n_bins)

    def test_numpy_integer_n_bins_counts_as_its_int(self):
        P, y = [[0.8, 0.2], [0.3, 0.7], [0.55, 0.45]], [0, 0, 1]
        assert ece(P, y, n_bins=np.int64(3)) == ece(P, y, n_bins=3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        P = rng.dirichlet(np.ones(3), size=n)
        y = rng.integers(0, 3, size=n)
        perm = rng.permutation(n)
        e1, _ = ece(P, y)
        e2, _ = ece(P[perm], y[perm])
        assert e1 == pytest.approx(e2, abs=1e-12)
        assert brier(P, y) == pytest.approx(brier(P[perm], y[perm]), abs=1e-12)


class TestMisclsEntropy:
    def test_uniform_wrong_prediction(self):
        val, all_correct = miscls_entropy([[0.5, 0.5]], [1])
        # argmax ties break to class 0, so label 1 counts as misclassified
        assert val == pytest.approx(np.log(2), abs=1e-12)
        assert not all_correct

    def test_confident_wrong_limit(self):
        eps = 1e-12
        val, _ = miscls_entropy([[1 - eps, eps]], [1])
        assert val < 1e-10

    def test_all_correct_flag(self):
        val, all_correct = miscls_entropy([[0.9, 0.1]], [0])
        assert val == 0.0 and all_correct


class TestFitTemperature:
    def test_well_specified_logits_keep_temperature_near_one(self):
        rng = np.random.default_rng(2)
        n = 4000
        logits = rng.normal(scale=2.0, size=(n, 3))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(3, p=p) for p in probs])
        T = fit_temperature(logits, labels)
        assert 0.8 <= T <= 1.25

    def test_overconfident_logits_need_cooling(self):
        rng = np.random.default_rng(3)
        n = 2000
        logits = rng.normal(scale=2.0, size=(n, 3))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array([rng.choice(3, p=p) for p in probs])
        T = fit_temperature(logits * 3.0, labels)
        assert T > 1.0

    def test_never_worse_than_unit_temperature(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            logits = rng.normal(size=(30, 4)) * rng.uniform(0.2, 5.0)
            labels = rng.integers(0, 4, size=30)
            T = fit_temperature(logits, labels)
            assert nll(logits, labels, T) <= nll(logits, labels, 1.0) + 1e-9

    def test_single_confident_sample_drives_temperature_down(self):
        # NLL is monotone in T here and exactly flat (0.0 to machine
        # precision) below T ~ 0.12, so the search lands at the low end of
        # the interval where the flat region starts.
        logits = np.array([[4.0, 0.0]])
        T = fit_temperature(logits, [0])
        assert T < 0.15
        assert nll(logits, [0], T) == 0.0


def scipy_nll(logits, labels, temperature=1.0):
    L = np.asarray(logits, dtype=float) / temperature
    return float((logsumexp(L, axis=1) - L[np.arange(L.shape[0]), labels]).mean())


def scipy_fit_temperature(logits, labels, lo=0.05, hi=20.0, tol=1e-4):
    """fit_temperature's golden-section search over scipy's logsumexp."""
    L = np.asarray(logits, dtype=float)

    def f(log_t):
        return scipy_nll(L, labels, np.exp(log_t))

    a, b = np.log(lo), np.log(hi)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    t_star = float(np.exp((a + b) / 2.0))
    return t_star if scipy_nll(L, labels, t_star) <= scipy_nll(L, labels, 1.0) - 1e-12 else 1.0


def tied_and_signed_zero_logits(rng, n, C):
    """Random logits of random scale, with rows whose entries all tie, rows
    whose first two tie, rows of +0 and -0, and rows with a -0 among them."""
    L = rng.normal(size=(n, C)) * rng.uniform(0.1, 30.0)
    L[::5] = L[::5, :1]
    L[1::5, 1] = L[1::5, 0]
    L[2::5] = 0.0
    L[2::5, ::2] = -0.0
    L[3::5, 0] = -0.0
    return L


def sample_temperatures(rng):
    """The search's bounds, T = 1, random T inside the bounds, and extremes
    at which L / T underflows to 0 or overflows to inf."""
    return [0.05, 1.0, 20.0, *np.exp(rng.uniform(np.log(0.05), np.log(20.0), 5)),
            1e-300, 1e-5, 1e5, 1e300]


class TestLogSumExp:
    """nll uses the library's own row-wise log-sum-exp, not scipy's."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("temperature", [0.07, 1.0, 3.5])
    def test_nll_matches_scipy(self, seed, temperature):
        rng = np.random.default_rng(seed)
        C = 2 + seed
        logits = rng.normal(size=(200, C)) * rng.uniform(0.1, 30.0)
        labels = rng.integers(0, C, size=200)
        assert nll(logits, labels, temperature) == pytest.approx(
            scipy_nll(logits, labels, temperature), rel=1e-14)

    def test_nll_matches_scipy_on_ties_and_extreme_logits(self):
        logits = np.array([[700.0, -700.0, 0.0], [1.0, 1.0, 1.0], [-700.0, -700.0, -700.0],
                           [700.0, 700.0, -700.0], [-700.0, 700.0, 700.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 1, 2, 1, 0, 2])
        for temperature in (1.0, 0.5, 20.0):
            assert nll(logits, labels, temperature) == pytest.approx(
                scipy_nll(logits, labels, temperature), rel=1e-14)
        assert nll(logits[:1], [1]) == 1400.0

    @pytest.mark.parametrize("seed", range(10))
    def test_temperature_equals_scipy_search_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        C = int(rng.integers(2, 12))
        n = int(rng.integers(20, 2000))
        logits = rng.normal(size=(n, C)) * rng.uniform(0.2, 10.0)
        labels = rng.integers(0, C, size=n)
        assert fit_temperature(logits, labels) == scipy_fit_temperature(logits, labels)

    @pytest.mark.parametrize("seed", range(6))
    def test_given_row_max_gives_the_same_parts_bitwise(self, seed):
        # fit_temperature takes the row max of the logits once and divides it
        # by each T; division by T > 0 keeps every row's order, so that is the
        # row max of L / T, overflow to inf included.
        rng = np.random.default_rng(200 + seed)
        L = tied_and_signed_zero_logits(rng, 60, 2 + seed)
        L_max = L.max(axis=1, keepdims=True)
        for T in sample_temperatures(rng):
            with np.errstate(all="ignore"):
                plain = _lse_parts(L / T)
                given = _lse_parts(L / T, L_max / T)
            for a, b in zip(plain, given):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_mean_nll_with_the_row_max_equals_nll_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        C = 2 + seed
        L = tied_and_signed_zero_logits(rng, 60, C)
        y = rng.integers(0, C, size=60)
        L_label, L_max = L[np.arange(60), y], L.max(axis=1, keepdims=True)
        for T in sample_temperatures(rng):
            with np.errstate(all="ignore"):
                given = _mean_nll(L, L_label, T, L_max)
                plain = nll(L, y, T)
            assert np.float64(given).tobytes() == np.float64(plain).tobytes()

    @pytest.mark.parametrize("C", range(1, 12))
    def test_parts_equal_the_axis_reductions_bitwise(self, C):
        # Below 8 columns the row max and row sum run column by column, which
        # must be numpy's own order of reduction; from 8 on they are numpy's.
        rng = np.random.default_rng(400 + C)
        L = tied_and_signed_zero_logits(rng, 200, max(C, 2))[:, :C].copy()
        L[4::10] *= 1e-300
        L[9::10] *= 1e300
        m = L.max(axis=1, keepdims=True)
        e = np.exp(L - m)
        s = e.sum(axis=1, keepdims=True)
        expected = (m[:, 0] + np.log(s[:, 0]), e, s)
        for got in (_lse_parts(L), _lse_parts(L, m)):
            for a, b in zip(got, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert _row_reduce(np.maximum, L).tobytes() == m.tobytes()
        # Sums whose rounding depends on the order of the terms.
        V = rng.uniform(size=(200, C)) * 10.0 ** rng.integers(-20, 20, size=(200, C))
        assert _row_reduce(np.add, V).tobytes() == V.sum(axis=1, keepdims=True).tobytes()

    def test_softmax_is_the_shifted_exp_over_its_sum(self):
        from drshift.robust import _softmax_lse

        L = np.random.default_rng(7).normal(size=(50, 4)) * 50.0
        probs, lse = _softmax_lse(L)
        m = L.max(axis=1, keepdims=True)
        e = np.exp(L - m)
        assert probs.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
        assert lse.tobytes() == (m[:, 0] + np.log(e.sum(axis=1))).tobytes()


def test_calibration_report_fields():
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(2), size=40)
    y = rng.integers(0, 2, size=40)
    rep = calibration_report(P, y)
    assert 0.0 <= rep.ece <= 1.0
    assert 0.0 <= rep.brier <= 2.0
    assert 0.0 <= rep.miscls_entropy <= np.log(2) + 1e-12
    assert sum(b.count for b in rep.bins) == 40


class TestLabels:
    """Every metric takes one label per row, each in [0, C) for C columns."""

    P = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    METRICS = {
        "brier": lambda P, y: brier(P, y),
        "ece": lambda P, y: ece(P, y),
        "miscls_entropy": lambda P, y: miscls_entropy(P, y),
        "nll": lambda P, y: nll(np.log(P), y),
        "fit_temperature": lambda P, y: fit_temperature(np.log(P), y),
        "calibration_report": lambda P, y: calibration_report(P, y),
    }

    @pytest.mark.parametrize("metric", METRICS)
    def test_a_label_count_other_than_the_row_count_is_rejected(self, metric):
        with pytest.raises(ContractError, match="1 labels for 3 rows"):
            self.METRICS[metric](self.P, [1])

    @pytest.mark.parametrize("label", [-1, 2, 5])
    @pytest.mark.parametrize("metric", METRICS)
    def test_a_label_outside_the_classes_is_rejected(self, metric, label):
        with pytest.raises(ContractError, match=f"label {label} outside"):
            self.METRICS[metric](self.P, [0, label, 1])

    @pytest.mark.parametrize("label", [0.9, 1.5, np.nan, np.inf, 1e20])
    @pytest.mark.parametrize("metric", METRICS)
    def test_a_label_that_is_not_an_integer_is_rejected(self, metric, label):
        with pytest.raises(ContractError, match=re.escape(f"label {label!r} is not an integer")):
            self.METRICS[metric](self.P, [0.0, label, 1.0])

    def test_whole_float_labels_are_read_as_integers(self):
        assert calibration_report(self.P, [0.0, 1.0, 1.0]) == calibration_report(self.P, [0, 1, 1])
        # 1.9 would be cut to the right class 1 if labels were truncated.
        with pytest.raises(ContractError, match="label 0.9 is not an integer"):
            calibration_report(self.P[:2], [0.9, 1.9])

    def test_report_on_zero_rows_raises_before_any_mean(self):
        # pytest turns the "Mean of empty slice" warning into an error.
        with pytest.raises(ContractError, match="at least one sample"):
            calibration_report(np.zeros((0, 2)), [])

    def test_nll_on_zero_rows_raises_before_any_mean(self):
        with pytest.raises(ContractError, match="nll needs at least one sample"):
            nll(np.zeros((0, 2)), [])

    @pytest.mark.parametrize("row, bad", [(1, [np.nan, 0.5]), (2, [np.inf, 0.5])])
    @pytest.mark.parametrize("metric", METRICS)
    def test_a_row_with_a_non_finite_value_is_rejected(self, metric, row, bad):
        P = self.P.copy()
        P[row] = bad
        with pytest.raises(ContractError, match=f"row {row} must be finite"):
            self.METRICS[metric](P, [0, 1, 1])

    @pytest.mark.parametrize("temperature", [-1.0, 0.0, np.nan, np.inf, True, "1"])
    def test_nll_rejects_a_temperature_that_is_not_a_finite_positive_number(self, temperature):
        with pytest.raises(ContractError, match="^temperature: "):
            nll(np.log(self.P), [0, 1, 1], temperature)

    @pytest.mark.parametrize("metric", METRICS)
    def test_zero_rows_are_rejected(self, metric):
        with pytest.raises(ContractError, match="needs at least one sample"):
            self.METRICS[metric](np.zeros((0, 2)), [])

    def test_a_single_row_of_logits_is_a_one_row_batch(self):
        L = np.log(self.P)
        assert nll(L[0], [1]) == nll(L[:1], [1])
        assert fit_temperature(L[0], [1]) == fit_temperature(L[:1], [1])
