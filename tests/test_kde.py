import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from drshift import (
    ConfigError,
    ContractError,
    KdeModel,
    default_shift_spec,
    kde,
    kde_log_density,
    plugin_ratio,
)
from drshift.calibration import _lse_parts
from drshift.data import GaussianShiftSpec, generate_gaussian_shift, split_indices
from drshift.features import identity_map
from drshift.kde import (
    _BLOCK_PAIRS,
    _log_densities,
    _train_frozen_feature_model,
    run_plugin_simulation,
)
from drshift.robust import DEFAULT_RATIO_BOUNDS, RobustClassifier, _Momentum, grad_source

DEFAULT_BANDWIDTHS = (0.05, 0.2, 0.5, 1.0)


def lse_parts_1d(v):
    return _lse_parts(v[None, :])[0][0]


def per_query_log_density(model, x, lse=lse_parts_1d):
    """The single-query formula the matrix path must reproduce bitwise; lse
    is the log-sum-exp of the sorted exponents."""
    h2 = model.bandwidth**2
    sq = ((model.points - x) ** 2).sum(axis=1)
    exponents = np.sort(-sq / (2.0 * h2))
    n, d = model.points.shape
    return float(lse(exponents) - np.log(n) - 0.5 * d * np.log(2.0 * np.pi * h2))


class TestLogDensity:
    def test_single_point_at_itself(self):
        model = KdeModel([[0.0]], 1.0)
        val = kde_log_density(model, np.array([[0.0]]))[0]
        assert val == pytest.approx(np.log(1 / np.sqrt(2 * np.pi)), abs=1e-12)
        assert val == pytest.approx(-0.9189385332, abs=1e-9)

    def test_bandwidth_scaling_at_peak(self):
        model = KdeModel([[0.0]], 2.0)
        val = kde_log_density(model, np.array([[0.0]]))[0]
        assert val == pytest.approx(-0.9189385332 - np.log(2), abs=1e-9)

    def test_symmetric_pair_at_origin(self):
        a, h = 1.3, 0.7
        model = KdeModel([[a], [-a]], h)
        expected = -0.5 * (a / h) ** 2 - 0.5 * np.log(2 * np.pi * h * h)
        assert kde_log_density(model, np.array([[0.0]]))[0] == pytest.approx(expected, abs=1e-12)

    def test_one_dimensional_density_integrates_to_one(self):
        rng = np.random.default_rng(0)
        model = KdeModel(rng.normal(size=(40, 1)), 0.4)
        xs = np.linspace(-8, 8, 4001)
        dens = np.exp(kde_log_density(model, xs[:, None]))
        mass = trapezoid(dens, xs)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_bitwise_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(25, 2))
        x = rng.normal(size=(1, 2))
        a = kde_log_density(KdeModel(pts, 0.5), x)
        b = kde_log_density(KdeModel(pts[rng.permutation(25)], 0.5), x)
        assert a.tobytes() == b.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            kde_log_density(KdeModel(np.zeros((3, 2)), 1.0), np.zeros((1, 3)))

    def test_model_without_points_rejected(self):
        with pytest.raises(ContractError, match="no points"):
            kde_log_density(KdeModel(np.zeros((0, 2)), 1.0), np.zeros((1, 2)))

    @pytest.mark.parametrize("points,shape", [
        ([0.0, 1.0, 2.0], "(3,)"), (1.0, "()"), (np.zeros((2, 3, 1)), "(2, 3, 1)"),
    ])
    def test_points_must_be_a_matrix(self, points, shape):
        with pytest.raises(ConfigError, match=rf"\(n, d\) matrix, got shape {re.escape(shape)}"):
            KdeModel(points, 0.5)

    def test_points_need_a_column(self):
        with pytest.raises(ConfigError, match=r"at least one column, got shape \(3, 0\)"):
            KdeModel(np.zeros((3, 0)), 0.5)

    # h^2 overflows at 1e300 and 2 pi h^2 at 5.4e153; h^2 is 0 at 1e-300
    # and subnormal at 1e-154.
    @pytest.mark.parametrize("bandwidth", [
        float("nan"), float("inf"), 0.0, -1.0, 1e300, 5.4e153, 1e-300, 1e-154,
    ])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ConfigError, match="bandwidth"):
            KdeModel(np.zeros((3, 2)), bandwidth)

    @pytest.mark.parametrize("bandwidth", [5.3e153, 1e-150])
    def test_extreme_accepted_bandwidths_give_finite_densities(self, bandwidth):
        model = KdeModel([[0.0, 0.0], [1.0, -1.0]], bandwidth)
        assert np.isfinite(kde_log_density(model, np.array([[0.5, 0.5], [0.0, 0.0]]))).all()


class TestMatrixQueries:
    # n points and m queries chosen against the block of _BLOCK_PAIRS pairs:
    # several blocks with a partial last one, and n above the block (one
    # query per block). The first three shapes are fixed ones that fit in
    # one block or a few.
    @pytest.mark.parametrize("n,m", [
        (400, 47),
        (2000, 13),
        (8197, 3),
        (400, 2 * (_BLOCK_PAIRS // 400) + 7),
        (2000, 3 * (_BLOCK_PAIRS // 2000) + 1),
        (_BLOCK_PAIRS + 5, 3),
    ])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_rows_equal_single_queries_bitwise(self, n, m, d):
        rng = np.random.default_rng(10 * d + n % 97)
        for h in (0.05, 0.7):
            model = KdeModel(rng.normal(size=(n, d)), h)
            Q = 2.0 * rng.normal(size=(m, d))
            out = kde_log_density(model, Q)
            assert out.shape == (m,)
            single = np.array([kde_log_density(model, q[None])[0] for q in Q])
            formula = np.array([per_query_log_density(model, q) for q in Q])
            assert out.tobytes() == single.tobytes()
            if d < 8:
                assert out.tobytes() == formula.tobytes()
            else:
                # The pass adds the squares in order; numpy's sum over 8 or
                # more adds them pairwise.
                np.testing.assert_allclose(out, formula, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.7, 5.0])
    def test_matches_scipy_logsumexp(self, h):
        rng = np.random.default_rng(13)
        model = KdeModel(rng.normal(size=(300, 2)), h)
        Q = 2.0 * rng.normal(size=(40, 2))
        scipy_form = np.array([per_query_log_density(model, q, logsumexp) for q in Q])
        np.testing.assert_allclose(kde_log_density(model, Q), scipy_form, rtol=1e-13, atol=0)

    def test_matrix_path_is_permutation_invariant(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(50, 2))
        Q = rng.normal(size=(30, 2))
        a = kde_log_density(KdeModel(pts, 0.4), Q)
        b = kde_log_density(KdeModel(pts[rng.permutation(50)], 0.4), Q)
        assert a.tobytes() == b.tobytes()

    def test_plugin_ratio_rows_equal_single_queries(self):
        rng = np.random.default_rng(12)
        ks = KdeModel(rng.normal(size=(40, 1)), 0.1)
        kt = KdeModel(rng.normal(size=(40, 1)) + 0.5, 0.1)
        bounds = (1e-2, 1e2)
        Q = np.concatenate([rng.normal(size=(20, 1)), [[-3.0], [4.0]]])
        out = plugin_ratio(ks, kt, Q, bounds)
        single = np.array([plugin_ratio(ks, kt, q[None], bounds)[0] for q in Q])
        assert out.tobytes() == single.tobytes()
        assert out.min() == bounds[0] and out.max() == bounds[1]
        assert ((out > bounds[0]) & (out < bounds[1])).any()

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), ()])
    def test_wrong_shape_rejected(self, shape):
        model = KdeModel(np.zeros((3, 2)), 1.0)
        with pytest.raises(ContractError):
            kde_log_density(model, np.zeros(shape))
        with pytest.raises(ContractError):
            plugin_ratio(model, model, np.zeros(shape))

    @pytest.mark.parametrize("d,shape", [(1, (1,)), (1, (3,)), (2, (2,))])
    def test_one_dimensional_query_rejected(self, d, shape):
        # A vector of d values is one query, or for d = 1 as many queries:
        # only an (m, d) matrix says which.
        model = KdeModel(np.zeros((3, d)), 1.0)
        match = rf"\(m, {d}\) matrix, got shape {re.escape(str(shape))}"
        with pytest.raises(ContractError, match=match):
            kde_log_density(model, np.zeros(shape))
        with pytest.raises(ContractError, match=match):
            plugin_ratio(model, model, np.zeros(shape))

    def test_empty_matrix_gives_empty_result(self):
        model = KdeModel(np.ones((3, 2)), 1.0)
        assert kde_log_density(model, np.zeros((0, 2))).shape == (0,)
        assert plugin_ratio(model, model, np.zeros((0, 2))).shape == (0,)


def one_bandwidth_pass(points, Q, h):
    """One bandwidth's log densities as a pass of their own computes them:
    the squared distances divided by -2 h^2, then sorted ascending, and a
    log-sum-exp that takes its own row max. Rows are independent, so one
    unblocked pass over every query gives the blocked pass's bits."""
    n, d = points.shape
    h2 = h**2
    sq = (points[:, 0] - Q[:, :1]) ** 2
    for j in range(1, d):
        sq += (points[:, j] - Q[:, j:j + 1]) ** 2
    sq /= -2.0 * h2
    sq.sort(axis=1)
    return _lse_parts(sq)[0] - np.log(n) - 0.5 * d * np.log(2.0 * np.pi * h2)


class TestSharedBandwidthPass:
    """_log_densities sorts each block's distances once for every bandwidth."""

    @pytest.mark.parametrize("n,m", [
        (1, 5),
        (400, 1),
        (400, _BLOCK_PAIRS // 400),
        (400, _BLOCK_PAIRS // 400 + 1),
        (400, 3 * (_BLOCK_PAIRS // 400) - 1),
        (2000, 2 * (_BLOCK_PAIRS // 2000) + 3),
    ])
    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_equals_one_pass_per_bandwidth_bitwise(self, n, m, d):
        rng = np.random.default_rng(100 * d + n % 89 + m)
        P = rng.normal(size=(n, d))
        Q = 2.0 * rng.normal(size=(m, d))
        bandwidths = (0.01,) + DEFAULT_BANDWIDTHS + (3.0,)
        out = _log_densities(P, Q, bandwidths)
        assert out.shape == (len(bandwidths), m)
        expected = np.array([one_bandwidth_pass(P, Q, h) for h in bandwidths])
        assert out.tobytes() == expected.tobytes()
        for h, row in zip(bandwidths, out):
            assert kde_log_density(KdeModel(P, h), Q).tobytes() == row.tobytes()

    def test_tied_distances_keep_the_bits(self):
        # A grid gives each query many equal distances, so the sort has ties.
        P = np.array([[i, j] for i in range(-5, 6) for j in range(-5, 6)], dtype=float)
        Q = np.array([[0.0, 0.0], [0.5, 0.5], [0.25, -1.0], [5.0, 5.0]])
        out = _log_densities(P, Q, DEFAULT_BANDWIDTHS)
        expected = np.array([one_bandwidth_pass(P, Q, h) for h in DEFAULT_BANDWIDTHS])
        assert out.tobytes() == expected.tobytes()

    def test_non_finite_query_rows_are_rejected(self):
        rng = np.random.default_rng(15)
        P = rng.normal(size=(30, 2))
        for bad in (np.inf, -np.inf, np.nan):
            Q = rng.normal(size=(8, 2))
            Q[3, 1] = Q[6, 0] = bad
            with pytest.raises(ContractError, match="query row 3 must be finite"):
                _log_densities(P, Q, DEFAULT_BANDWIDTHS)
            with pytest.raises(ContractError, match="query row 3 must be finite"):
                kde_log_density(KdeModel(P, 0.5), Q)

    def test_far_query_rows_have_log_density_minus_inf(self):
        # pyproject.toml makes RuntimeWarnings errors, so none is raised.
        rng = np.random.default_rng(18)
        P = rng.normal(size=(30, 2))
        Q = rng.normal(size=(6, 2))
        # Every squared distance of rows 1 and 4 overflows.
        Q[1], Q[4] = (1e200, 0.0), (-1e170, 1e170)
        out = _log_densities(P, Q, DEFAULT_BANDWIDTHS)
        assert (out[:, [1, 4]] == -np.inf).all()
        near = [0, 2, 3, 5]
        expected = np.array([one_bandwidth_pass(P, Q[near], h) for h in DEFAULT_BANDWIDTHS])
        assert out[:, near].tobytes() == expected.tobytes()
        # At an accepted tiny bandwidth a modest distance's exponents overflow.
        tiny = _log_densities(P, np.array([[1e10, 0.0], [P[0, 0], P[0, 1]]]), [1e-150])
        assert tiny[0, 0] == -np.inf and np.isfinite(tiny[0, 1])

    def test_invariant_to_the_order_of_the_points(self):
        rng = np.random.default_rng(16)
        P = rng.normal(size=(300, 3))
        Q = rng.normal(size=(200, 3))
        a = _log_densities(P, Q, DEFAULT_BANDWIDTHS)
        b = _log_densities(P[rng.permutation(300)], Q, DEFAULT_BANDWIDTHS)
        assert a.tobytes() == b.tobytes()

    def test_peak_memory_is_flat_in_the_query_rows(self):
        # Beyond its (k, m) result the pass holds at most three block
        # buffers of _BLOCK_PAIRS floats at a time: the sorted distances,
        # one bandwidth's exponents and the log-sum-exp's shifted copy.
        rng = np.random.default_rng(17)
        P = rng.normal(size=(400, 2))
        extra = []
        for m in (1_000, 20_000):
            Q = rng.normal(size=(m, 2))
            tracemalloc.start()
            try:
                out = _log_densities(P, Q, DEFAULT_BANDWIDTHS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        assert max(extra) < 4 * 8 * _BLOCK_PAIRS
        assert abs(extra[1] - extra[0]) < 8 * _BLOCK_PAIRS // 4

    def test_no_queries_give_an_empty_row_per_bandwidth(self):
        assert _log_densities(np.ones((3, 2)), np.zeros((0, 2)), [0.5, 1.0]).shape == (2, 0)


class TestPluginRatio:
    def test_identical_models_give_one(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 2))
        k = KdeModel(pts, 0.8)
        X = rng.normal(size=(5, 2))
        assert plugin_ratio(k, k, X) == pytest.approx(np.ones(5), abs=1e-12)

    def test_large_sample_approaches_gaussian_quotient(self):
        rng = np.random.default_rng(3)
        ks = KdeModel(rng.normal(size=(4000, 1)), 0.2)
        kt = KdeModel(rng.normal(size=(4000, 1)) + 1.0, 0.2)
        val = plugin_ratio(ks, kt, np.array([[0.0]]))[0]
        assert abs(val - np.exp(0.5)) < 0.3

    def test_far_query_clamps(self):
        rng = np.random.default_rng(4)
        ks = KdeModel(rng.normal(size=(30, 1)), 0.1)
        kt = KdeModel(rng.normal(size=(30, 1)) + 0.5, 0.1)
        val = plugin_ratio(ks, kt, np.array([[50.0]]), bounds=(1e-3, 1e3))[0]
        assert val in (1e-3, 1e3)

    def test_row_with_zero_density_under_both_kdes_is_rejected(self):
        rng = np.random.default_rng(6)
        ks = KdeModel(rng.normal(size=(30, 2)), 0.5)
        kt = KdeModel(rng.normal(size=(30, 2)) + 0.5, 0.5)
        with pytest.raises(ContractError, match="query row 1 has density 0 under both KDEs"):
            plugin_ratio(ks, kt, np.array([[0.5, 0.5], [1e200, 0.0]]))

    def test_zero_density_under_one_kde_clamps(self):
        # At h = 1e-150 the source density at the target's points is 0.
        ks = KdeModel(np.zeros((3, 1)), 1e-150)
        kt = KdeModel(np.full((3, 1), 1e10), 1e-150)
        X = np.array([[1e10], [0.0]])
        assert plugin_ratio(ks, kt, X, bounds=(1e-3, 1e3)).tolist() == [1e-3, 1e3]

    def test_reciprocal_identity(self):
        rng = np.random.default_rng(5)
        ka = KdeModel(rng.normal(size=(30, 2)), 0.6)
        kb = KdeModel(rng.normal(size=(30, 2)) + 0.3, 0.6)
        X, wide = rng.normal(size=(5, 2)), (1e-12, 1e12)
        assert plugin_ratio(ka, kb, X, wide) * plugin_ratio(kb, ka, X, wide) == pytest.approx(
            np.ones(5), abs=1e-10
        )


class TestSimulation:
    def test_single_bandwidth_emits_one_finite_row(self):
        spec = default_shift_spec(seed=0, n_source=60, n_target=60)
        rows = run_plugin_simulation(spec, [0.5])
        assert len(rows) == 1
        row = rows[0]
        assert set(row) == {"h", "ll_source", "ll_target", "target_logloss"}
        assert all(np.isfinite(v) for v in row.values())

    def test_no_shift_matches_unit_ratio_loss(self):
        spec = GaussianShiftSpec(
            source_mean=[0.0, 0.0], target_mean=[0.0, 0.0],
            source_cov=np.eye(2), target_cov=np.eye(2),
            boundary_weights=[1.0, -1.0], boundary_bias=0.0,
            n_source=400, n_target=400, seed=6,
        )
        rows = run_plugin_simulation(spec, [0.4, 0.8])
        # unit-ratio reference: same pipeline with ratios forced to 1
        from drshift.data import generate_gaussian_shift
        from drshift.kde import _train_frozen_feature_model
        from drshift.robust import predict_proba

        source, target = generate_gaussian_shift(spec)
        clf = _train_frozen_feature_model(with_bias(source.X), source.y, np.ones(len(source)), 2)
        probs, _ = predict_proba(clf, with_bias(target.X), np.ones(len(target)))
        ref = float(-np.log(probs[np.arange(len(target)), target.y]).mean())
        for row in rows:
            assert abs(row["target_logloss"] - ref) < 0.05

    def test_default_rows_are_unchanged(self):
        # Recorded by repr; a move of any bit in the KDE pass or the fit shows.
        rows = run_plugin_simulation(default_shift_spec(seed=0), DEFAULT_BANDWIDTHS)
        assert rows == [
            {"h": 0.05, "ll_source": -5.699085965309824, "ll_target": -5.553474490840715,
             "target_logloss": 0.6926715606907851},
            {"h": 0.2, "ll_source": -2.8586000433592833, "ll_target": -2.9600091270238558,
             "target_logloss": 0.6931073186394633},
            {"h": 0.5, "ll_source": -2.7942013041508873, "ll_target": -2.89863706724793,
             "target_logloss": 0.6928177518956231},
            {"h": 1.0, "ll_source": -2.9747128358508768, "ll_target": -3.05639064704012,
             "target_logloss": 0.6894485089192083},
        ]

    def test_empty_bandwidths_rejected(self):
        with pytest.raises(ContractError):
            run_plugin_simulation(default_shift_spec(seed=0, n_source=20, n_target=20), [])

    @pytest.mark.parametrize("seed", range(3))
    def test_held_out_likelihoods_are_means_of_single_passes(self, seed):
        spec = default_shift_spec(seed=seed, n_source=150, n_target=120)
        rows = run_plugin_simulation(spec, DEFAULT_BANDWIDTHS)
        source, target = generate_gaussian_shift(spec)
        rng = np.random.default_rng(spec.seed + 1)
        tr_s, ho_s = split_indices(len(source), 0.8, rng)
        tr_t, ho_t = split_indices(len(target), 0.8, rng)
        for h, row in zip(DEFAULT_BANDWIDTHS, rows):
            kde_s, kde_t = KdeModel(source.X[tr_s], h), KdeModel(target.X[tr_t], h)
            assert row["ll_source"] == float(np.mean(kde_log_density(kde_s, source.X[ho_s])))
            assert row["ll_target"] == float(np.mean(kde_log_density(kde_t, target.X[ho_t])))


def with_bias(X):
    """The feature rows the plug-in fit trains on: X with a constant 1 appended."""
    return np.hstack([X, np.ones((len(X), 1))])


def plugin_objective(clf, Phi, y, ratios):
    """J(theta) = mean_i (log Z_i / R_i - theta_{y_i} . phi_i) with logits
    R_i theta . phi_i, on scipy's logsumexp."""
    Z = Phi @ clf.theta.T
    return float(np.mean(logsumexp(ratios[:, None] * Z, axis=1) / ratios - Z[np.arange(len(y)), y]))


def momentum_fit(Phi, y, ratios, class_count):
    """Reference form of the plug-in fit: 400 full-batch momentum steps
    (lr 0.5, momentum 0.9) from theta = 0. It does not converge."""
    fmap = identity_map(Phi.shape[1])
    clf = RobustClassifier(np.zeros((class_count, fmap.out_dim)), fmap, 0.0, DEFAULT_RATIO_BOUNDS)
    opt = _Momentum(clf, 0.5, 0.9)
    for _ in range(400):
        g = grad_source(clf, (Phi, y), ratios)
        opt.step(g.grad_theta, g.feature_grad)
    return clf


def gradient_norm(clf, X, y, ratios):
    return float(np.linalg.norm(grad_source(clf, (X, y), ratios).grad_theta))


@pytest.fixture(scope="module")
def canonical_fits():
    """(Phi, y, ratios, Newton fit) for the source ratios run_plugin_simulation
    trains on, at seeds 0-4 and each default bandwidth."""
    fits = []
    for seed in range(5):
        source, target = generate_gaussian_shift(default_shift_spec(seed=seed))
        rng = np.random.default_rng(seed + 1)
        tr_s, _ = split_indices(len(source), 0.8, rng)
        tr_t, _ = split_indices(len(target), 0.8, rng)
        Phi = with_bias(source.X)
        for h in DEFAULT_BANDWIDTHS:
            ratios = plugin_ratio(KdeModel(source.X[tr_s], h), KdeModel(target.X[tr_t], h), source.X)
            fits.append((Phi, source.y, ratios, _train_frozen_feature_model(Phi, source.y, ratios, 2)))
    return fits


def counted_fit(monkeypatch, X, y, ratios, class_count):
    """The plug-in fit and the number of grad_source calls it made."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return grad_source(*args, **kwargs)

    monkeypatch.setattr(kde, "grad_source", counting)
    return _train_frozen_feature_model(X, y, ratios, class_count), len(calls)


class TestNewtonFit:
    def test_gradient_norm_is_within_the_tolerance(self, canonical_fits):
        for X, y, ratios, clf in canonical_fits:
            start = RobustClassifier(np.zeros_like(clf.theta), clf.feature_map)
            tol = kde._FIT_RTOL * gradient_norm(start, X, y, ratios)
            assert gradient_norm(clf, X, y, ratios) <= tol

    def test_objective_is_no_higher_than_the_momentum_fit(self, canonical_fits):
        for X, y, ratios, clf in canonical_fits:
            reference = momentum_fit(X, y, ratios, 2)
            assert plugin_objective(clf, X, y, ratios) <= plugin_objective(reference, X, y, ratios)

    @pytest.mark.parametrize("unit_ratios", [True, False])
    def test_separable_set_stops_within_the_cap(self, monkeypatch, unit_ratios):
        rng = np.random.default_rng(14)
        X = with_bias(np.vstack([rng.normal(size=(30, 2)) + 3.0, rng.normal(size=(30, 2)) - 3.0]))
        y = np.repeat([0, 1], 30)
        ratios = np.ones(60) if unit_ratios else np.exp(rng.uniform(-3.0, 3.0, 60))
        clf, calls = counted_fit(monkeypatch, X, y, ratios, 2)
        assert calls <= kde._FIT_MAX_STEPS + 1
        assert np.isfinite(clf.theta).all()
        start = RobustClassifier(np.zeros_like(clf.theta), clf.feature_map)
        assert plugin_objective(clf, X, y, ratios) < plugin_objective(start, X, y, ratios)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_rows_per_domain_stop_within_the_cap(self, monkeypatch, seed):
        spec = default_shift_spec(seed=seed, n_source=2, n_target=2)
        source, _ = generate_gaussian_shift(spec)
        drawn = np.exp(np.random.default_rng(seed).normal(size=2))
        for ratios in (np.ones(2), np.array([1e-3, 1e3]), drawn):
            clf, calls = counted_fit(monkeypatch, with_bias(source.X), source.y, ratios, 2)
            assert calls <= kde._FIT_MAX_STEPS + 1
            assert np.isfinite(clf.theta).all()
        rows = run_plugin_simulation(spec, DEFAULT_BANDWIDTHS)
        assert all(np.isfinite(v) for row in rows for v in row.values())
