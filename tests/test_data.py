import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from drshift import (
    AugmentationSpec,
    ConfigError,
    ContractError,
    CsvParseError,
    Dataset,
    GaussianShiftSpec,
    RobustClassifier,
    augment_batch,
    default_shift_spec,
    generate_gaussian_shift,
    identity_map,
    load_csv,
    save_csv,
)

from drshift import data
from drshift.data import split_indices, true_class_probs, true_log_ratio

from helpers import random_discrete_instance
from oracle import DiscreteDomainSpec, oracle_expectations


def one_d_spec(mu_s, mu_t, n=50, seed=0):
    return GaussianShiftSpec(
        source_mean=[mu_s], target_mean=[mu_t],
        source_cov=[[1.0]], target_cov=[[1.0]],
        boundary_weights=[1.0], boundary_bias=0.0,
        n_source=n, n_target=n, seed=seed,
    )


def random_spec(d, rng):
    """A spec with random means and correlated covariances in d dimensions."""
    covs = []
    for _ in range(2):
        A = rng.normal(size=(d, d))
        covs.append(A @ A.T + 0.5 * np.eye(d))
    means = rng.normal(scale=1.5, size=(2, d))
    return GaussianShiftSpec(
        source_mean=means[0], target_mean=means[1],
        source_cov=covs[0], target_cov=covs[1],
        boundary_weights=rng.normal(size=d), boundary_bias=0.0,
        n_source=3, n_target=3, seed=0,
    )


class TestGaussianShift:
    def test_identical_specs_give_unit_ratio(self):
        X = np.array([[-2.0], [0.0], [1.7]])
        np.testing.assert_allclose(true_log_ratio(one_d_spec(0.0, 0.0), X), 0.0, atol=1e-12)

    def test_ratio_at_midpoint_of_means_is_one(self):
        log_r = true_log_ratio(one_d_spec(0.0, 1.0), np.array([[0.5]]))
        np.testing.assert_allclose(log_r, [0.0], atol=1e-12)

    def test_ratio_closed_form_value(self):
        # log N(0;0,1) - log N(0;1,1) = -0/2 + 1/2, the direct density
        # formula evaluated by hand.
        log_r = true_log_ratio(one_d_spec(0.0, 1.0), np.array([[0.0]]))
        assert log_r.shape == (1,)
        assert log_r[0] == pytest.approx(0.5, abs=1e-12)

    def test_swapped_spec_inverts_ratio(self):
        spec = default_shift_spec(seed=3)
        swapped = replace(spec, source_mean=spec.target_mean, target_mean=spec.source_mean,
                          source_cov=spec.target_cov, target_cov=spec.source_cov)
        X = np.random.default_rng(0).normal(size=(10, 2))
        total = true_log_ratio(spec, X) + true_log_ratio(swapped, X)
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_ratio_matches_scipy_on_correlated_covariances(self, d):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(d)
        for _ in range(10):
            spec = random_spec(d, rng)
            X = rng.normal(scale=2.0, size=(5, d))
            expected = (multivariate_normal(spec.source_mean, spec.source_cov).logpdf(X)
                        - multivariate_normal(spec.target_mean, spec.target_cov).logpdf(X))
            log_r = true_log_ratio(spec, X)
            assert log_r.dtype == float and log_r.shape == (5,)
            np.testing.assert_allclose(log_r, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 32])
    def test_log_ratio_of_a_batch_matches_one_row_calls(self, d):
        # Far rows, at about 100 standard deviations, give log-ratios in the
        # thousands, whose exp would overflow; the log stays finite, and the
        # suite turns any RuntimeWarning into a failure.
        rng = np.random.default_rng(d)
        spec = random_spec(d, rng)
        X = np.vstack([rng.normal(size=(20, d)), rng.normal(scale=100.0, size=(20, d))])
        log_r = true_log_ratio(spec, X)
        rows = np.concatenate([true_log_ratio(spec, X[i:i + 1]) for i in range(len(X))])
        assert np.isfinite(log_r).all() and np.abs(log_r).max() > 1000
        np.testing.assert_allclose(log_r, rows, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("truth", [true_log_ratio, true_class_probs])
    @pytest.mark.parametrize("X", [np.zeros(2), np.zeros((3, 3)), np.zeros((3, 1)), 0.0])
    def test_truth_functions_need_an_input_matrix_of_the_spec_width(self, truth, X):
        with pytest.raises(ContractError, match=re.escape(f"got shape {np.shape(X)}")):
            truth(default_shift_spec(), X)

    @pytest.mark.parametrize("truth", [true_log_ratio, true_class_probs])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_truth_functions_reject_non_finite_rows(self, truth, bad):
        X = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ContractError, match="input row 1 must be finite"):
            truth(default_shift_spec(), X)

    def test_class_probs_are_the_labeling_posterior(self):
        spec = default_shift_spec(seed=2)
        source, target = generate_gaussian_shift(spec)
        for X in (source.X, target.X):
            P = true_class_probs(spec, X)
            p1 = expit(X @ spec.boundary_weights + spec.boundary_bias)
            assert P.shape == (len(X), 2)
            np.testing.assert_array_equal(P[:, 1], p1)
            np.testing.assert_array_equal(P[:, 0], 1.0 - p1)

    def test_label_frequency_matches_boundary(self):
        spec = default_shift_spec(seed=5, n_source=10000, n_target=1)
        source, _ = generate_gaussian_shift(spec)
        p = expit(source.X @ spec.boundary_weights + spec.boundary_bias)
        freq = source.y.mean()
        tol = 4 * np.sqrt(p.mean() * (1 - p.mean()) / len(source))
        assert abs(freq - p.mean()) < tol

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(ConfigError):
            GaussianShiftSpec(
                source_mean=[0, 0], target_mean=[0, 0],
                source_cov=[[1, 2], [2, 1]], target_cov=np.eye(2),
                boundary_weights=[1, 0], boundary_bias=0.0,
                n_source=5, n_target=5, seed=0,
            )

    def test_datasets_are_labeled_and_tagged(self):
        source, target = generate_gaussian_shift(default_shift_spec(seed=1, n_source=20, n_target=30))
        assert source.labeled and target.labeled
        assert len(source) == 20 and len(target) == 30
        assert source.is_source.all() and not target.is_source.any()


class TestDiscreteSpec:
    def test_rejects_off_simplex(self):
        pts = np.zeros((2, 1))
        cond = np.full((2, 2), 0.5)
        with pytest.raises(ConfigError):
            DiscreteDomainSpec(pts, [0.5, 0.5 + 1e-6], [0.5, 0.5], cond)
        # within 1e-9 is accepted
        DiscreteDomainSpec(pts, [0.5, 0.5 + 1e-10], [0.5, 0.5], cond)

    def test_rejects_unsupported_ratio_denominator(self):
        pts = np.zeros((2, 1))
        cond = np.full((2, 2), 0.5)
        with pytest.raises(ConfigError):
            DiscreteDomainSpec(pts, [0.5, 0.5], [1.0, 0.0], cond)


class TestOracle:
    def test_zero_theta_dual_is_log_class_count(self):
        rng = np.random.default_rng(0)
        spec, clf = random_discrete_instance(rng, class_count=3)
        clf.theta[:] = 0.0
        res = oracle_expectations(spec, clf)
        assert res.dual_value == pytest.approx(np.log(3), abs=1e-12)

    def test_two_point_hand_computed_dual(self):
        # Spreadsheet-style evaluation written out literally.
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        p_s = np.array([0.6, 0.4])
        p_t = np.array([0.3, 0.7])
        cond = np.array([[1.0, 0.0], [0.25, 0.75]])
        spec = DiscreteDomainSpec(pts, p_s, p_t, cond)
        theta = np.array([[0.5, -0.2], [0.1, 0.3]])
        clf = RobustClassifier(theta, identity_map(2), 0.0, (1e-8, 1e8))
        res = oracle_expectations(spec, clf)

        r1, r2 = 0.6 / 0.3, 0.4 / 0.7
        # point 1: phi=(1,0), scores (0.5, 0.1); point 2: phi=(0,1), scores (-0.2, 0.3)
        logz1 = np.log(np.exp(r1 * 0.5) + np.exp(r1 * 0.1))
        logz2 = np.log(np.exp(r2 * -0.2) + np.exp(r2 * 0.3))
        c0 = 0.6 * 1.0 * pts[0] + 0.4 * 0.25 * pts[1]
        c1 = 0.6 * 0.0 * pts[0] + 0.4 * 0.75 * pts[1]
        expected = 0.3 * logz1 + 0.7 * logz2 - (theta[0] @ c0 + theta[1] @ c1)
        assert res.dual_value == pytest.approx(expected, abs=1e-12)

    def test_oracle_accepts_domain_classifier(self):
        from scipy.special import logsumexp

        from drshift import default_domain_classifier
        from drshift.domain import domain_ratios
        from drshift.features import feature_forward_batch

        rng = np.random.default_rng(14)
        spec, clf = random_discrete_instance(rng)
        clf = replace(clf, ratio_bounds=(0.5, 2.0))
        dom = default_domain_classifier(2, seed=3)
        res = oracle_expectations(spec, clf, domain=dom)
        # independent evaluation with the classifier's clamped ratios
        ratios, clamped, _ = domain_ratios(dom, spec.points, clf.ratio_bounds)
        Phi = feature_forward_batch(clf.feature_map, spec.points)
        logZ = logsumexp(ratios[:, None] * (Phi @ clf.theta.T), axis=1)
        c_tilde = (spec.p_source[:, None] * spec.cond_label).T @ Phi
        expected = spec.p_target @ logZ - np.sum(clf.theta * c_tilde)
        assert res.dual_value == pytest.approx(expected, abs=1e-12)
        assert np.all(res.grad_ratio[clamped] == 0.0)

    def test_equal_densities_give_moment_matching_gradient(self):
        rng = np.random.default_rng(4)
        spec, clf = random_discrete_instance(rng)
        spec = DiscreteDomainSpec(spec.points, spec.p_source, spec.p_source, spec.cond_label)
        res = oracle_expectations(spec, clf)
        # independent softmax-gradient computation at unit ratio
        from drshift.features import feature_forward_batch

        Phi = feature_forward_batch(clf.feature_map, spec.points)
        Z = Phi @ clf.theta.T
        F = np.exp(Z - Z.max(axis=1, keepdims=True))
        F /= F.sum(axis=1, keepdims=True)
        grad = np.zeros_like(clf.theta)
        for y in range(spec.class_count):
            grad[y] = ((spec.p_source * (F[:, y] - spec.cond_label[:, y]))[:, None] * Phi).sum(0)
        np.testing.assert_allclose(res.grad_theta, grad, atol=1e-10)


class TestAugment:
    def test_weak_zero_noise_is_identity(self):
        x = np.array([[1.0, -2.0]])
        spec = AugmentationSpec(weak_noise_std=0.0, strong_noise_std=0.5)
        out = augment_batch(x, spec, "weak", np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_full_mask_zeroes_everything(self):
        x = np.array([[3.0, 4.0, 5.0]])
        spec = AugmentationSpec(strong_mask_fraction=1.0)
        out = augment_batch(x, spec, "strong", np.random.default_rng(1))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_deterministic_given_rng_state(self):
        x = np.array([[0.5, 0.5]])
        spec = AugmentationSpec(seed=3)
        a = augment_batch(x, spec, "strong", np.random.default_rng(42))
        b = augment_batch(x, spec, "strong", np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_unknown_strength_rejected(self):
        with pytest.raises(ContractError):
            augment_batch(np.zeros((1, 2)), AugmentationSpec(), "medium", np.random.default_rng(0))

    def test_strong_must_dominate_weak(self):
        with pytest.raises(ConfigError):
            AugmentationSpec(weak_noise_std=0.5, strong_noise_std=0.1)


class TestCsv:
    def test_labeled_load(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        ds = load_csv(p, has_label=True)
        assert len(ds) == 3 and ds.dim == 2 and ds.labeled
        assert ds.class_count == 2
        np.testing.assert_array_equal(ds.y, [0, 1, 1])

    def test_unlabeled_reinterprets_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        ds = load_csv(p, has_label=False)
        assert len(ds) == 3 and ds.dim == 3 and not ds.labeled

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,abc,0\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert err.value.row == 1 and err.value.column == 2

    def test_header_detected_by_non_numeric_first_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,label\n1.0,2.0,0\n")
        ds = load_csv(p, has_label=True)
        assert len(ds) == 1 and ds.dim == 2

    def test_header_detected_after_leading_blank_lines(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\nx0,x1,label\n1.0,2.0,0\n")
        ds = load_csv(p, has_label=True)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0]])
        np.testing.assert_array_equal(ds.y, [0])

    def test_headerless_file_with_leading_blank_lines_keeps_every_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n  \n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,nan\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert (err.value.row, err.value.column) == (5, 3)
        p.write_text("\n  \n1.0,2.0,0\n3.0,4.0,1\n5.0,x,1\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert (err.value.row, err.value.column) == (5, 2)
        p.write_text("\n  \n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
        ds = load_csv(p, has_label=True)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ds.y, [0, 1, 1])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(CsvParseError):
            load_csv(p, has_label=True)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_row_and_label_column(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert err.value.row == 2 and err.value.column == 3

    @pytest.mark.parametrize("has_label", [True, False])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, has_label):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,label\n1.0,2.0,0\n3.0,4.0,1\n1.0,inf,0\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=has_label)
        assert err.value.row == 4 and err.value.column == 2

    def test_fractional_label_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n1.0,2.0,1.5\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert err.value.row == 2 and err.value.column == 3

    def test_save_load_round_trip(self, tmp_path):
        source, _ = generate_gaussian_shift(default_shift_spec(seed=2, n_source=30, n_target=5))
        p = tmp_path / "d.csv"
        save_csv(p, source)
        back = load_csv(p, has_label=True)
        np.testing.assert_array_equal(back.X, source.X)
        np.testing.assert_array_equal(back.y, source.y)
        x0, x1 = source.X[0].tolist()
        assert p.read_text().splitlines()[0] == f"{x0!r},{x1!r},{source.y[0]}"

    @pytest.mark.parametrize("header", ["x1,x2,label\n", ""])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        p = tmp_path / "d.csv"
        p.write_text(header + "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n", encoding="utf-8-sig")
        ds = load_csv(p, has_label=True)
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ds.y, [0, 1, 1])

    @pytest.mark.parametrize("label", ["1e20", "9223372036854775808"])
    def test_label_beyond_int64_names_row_and_label_column(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
        with pytest.raises(CsvParseError, match="row 2, column 3: label") as err:
            load_csv(p, has_label=True)
        assert str(err.value).endswith(repr(float(label)))


def reference_parse(path):
    """The cell-by-cell parse load_csv had before its block parse, with the
    header looked for on the first non-blank line after a dropped byte-order
    mark: (rows, 1-based line numbers), or the CsvParseError of the first
    bad line."""
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    try:
        float(lines[start].split(",")[0])
    except (IndexError, ValueError):
        start += 1
    rows, linenos, width = [], [], None
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CsvParseError(path, lineno + 1, len(cells), f"expected {width} columns, got {len(cells)}")
        values = []
        for col, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(path, lineno + 1, col + 1, f"not a number: {cell!r}") from None
        rows.append(values)
        linenos.append(lineno + 1)
    return np.array(rows), linenos


def write_rows(path, n, seed=0, header="x0,x1,label"):
    """n rows of two features and a 0/1 label; returns the file's lines."""
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=10.0, size=(n, 2)) * rng.choice([1e-9, 1.0, 1e9], size=(n, 2))
    y = rng.integers(0, 2, size=n)
    lines = [header] + [f"{a!r},{b!r},{c}" for (a, b), c in zip(X.tolist(), y.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines


# The files below run to a few multiples of this many lines, with a partial
# remainder, so that they are large inputs.
_PARSE_BLOCK = 8_192


class TestCsvBlockParse:
    """Large files through load_csv's np.loadtxt parse, its cell check and
    its parse through float(), compared with the cell-by-cell reference above."""

    def test_large_file_matches_cell_by_cell_parse_bitwise(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, 20_000)
        # Cells float() accepts beyond plain decimals, and a partial last block.
        with p.open("a", encoding="utf-8") as fh:
            fh.write(" 1_0.5 ,-0.0,1\n+.5e-3,1E+2,0\n")
        rows, _ = reference_parse(p)
        ds = load_csv(p, has_label=True)
        assert len(ds) == 20_002 > 2 * _PARSE_BLOCK
        assert ds.X.tobytes() == rows[:, :2].tobytes()
        np.testing.assert_array_equal(ds.y, rows[:, 2].astype(int))
        unlabeled = load_csv(p, has_label=False)
        assert unlabeled.X.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("bad", [
        # A bad cell in the second block, then a later bad cell and ragged line:
        # the first error in file order wins.
        {9_000: "1.0,abc,0", 9_006: "x,y,z", 9_008: "1.0"},
        {2 * _PARSE_BLOCK + 100: "1.0,0", 2 * _PARSE_BLOCK + 104: "1.0,a,0"},
        # Ragged lines in the third block whose cells add up to whole rows.
        {2 * _PARSE_BLOCK + 100: "1.0,2.0,0,4.0", 2 * _PARSE_BLOCK + 101: "1.0,2.0"},
        {19_990: "1.0,2.0,"},
    ])
    def test_errors_match_cell_by_cell_parse(self, tmp_path, bad):
        p = tmp_path / "d.csv"
        lines = write_rows(p, 20_000)
        for lineno, text in bad.items():
            lines[lineno - 1] = text
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as expected:
            reference_parse(p)
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert str(err.value) == str(expected.value)
        assert err.value.row == min(bad)

    def test_hundred_thousand_rows_match_reference_in_under_10_mb(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, 100_000)
        rows, _ = reference_parse(p)
        tracemalloc.start()
        try:
            ds = load_csv(p, has_label=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.tobytes() == rows[:, :2].tobytes()
        np.testing.assert_array_equal(ds.y, rows[:, 2].astype(int))
        # Holding the file as 100,000 line strings would take about 20 MB.
        assert peak < 10e6

    def test_padded_blank_line_matches_reference_in_under_10_mb(self, tmp_path):
        p = tmp_path / "d.csv"
        lines = write_rows(p, 100_000)
        # numpy's reader would take a whitespace-only line as a one-cell row.
        lines.insert(2, "   ")
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows, _ = reference_parse(p)
        tracemalloc.start()
        try:
            ds = load_csv(p, has_label=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.tobytes() == rows[:, :2].tobytes()
        np.testing.assert_array_equal(ds.y, rows[:, 2].astype(int))
        assert peak < 10e6

    def test_non_finite_last_label_named_in_under_10_mb(self, tmp_path):
        # numpy parses every cell; only the fault's file line is looked up
        # again, after a blank line that shifts it past its row index.
        p = tmp_path / "d.csv"
        lines = write_rows(p, 100_000)
        lines.insert(2, "")
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, linenos = reference_parse(p)
        tracemalloc.start()
        try:
            with pytest.raises(CsvParseError) as err:
                load_csv(p, has_label=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.row == linenos[-1] == 100_002
        assert str(err.value).endswith("row 100002, column 3: not a finite number: nan")
        # Parsing the file again cell by cell would peak near 18 MB.
        assert peak < 10e6

    def test_bad_last_label_named_in_under_10_mb(self, tmp_path):
        # numpy raises on the last row; the cells are then only checked.
        p = tmp_path / "d.csv"
        lines = write_rows(p, 100_000)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",abc"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as expected:
            reference_parse(p)
        tracemalloc.start()
        try:
            with pytest.raises(CsvParseError) as err:
                load_csv(p, has_label=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == str(expected.value)
        assert str(err.value).endswith("row 100001, column 3: not a number: 'abc'")
        # Keeping the earlier rows' cells as Python floats would peak near 14 MB.
        assert peak < 10e6

    def test_float_only_cell_in_last_row_matches_reference_in_under_10_mb(self, tmp_path):
        # numpy raises on " 1_0.5 "; the file is parsed again through float().
        p = tmp_path / "d.csv"
        lines = write_rows(p, 100_000)
        lines[-1] = " 1_0.5 ," + lines[-1].split(",", 1)[1]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows, _ = reference_parse(p)
        tracemalloc.start()
        try:
            ds = load_csv(p, has_label=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X[-1, 0] == 10.5
        assert ds.X.tobytes() == rows[:, :2].tobytes()
        np.testing.assert_array_equal(ds.y, rows[:, 2].astype(int))
        # Keeping every cell as a Python float would peak near 17 MB.
        assert peak < 10e6

    @pytest.mark.parametrize("brk",["\x85", "\u2028", "\u2029"])
    def test_multi_byte_line_break_ends_the_line(self, tmp_path, brk):
        # str.splitlines() ends line 3 at brk, so its last cell is empty;
        # numpy's reader would take brk as whitespace and read the label 1.
        p = tmp_path / "d.csv"
        p.write_text(f"x0,x1,label\n1.0,2.0,0\n1.0,2.0,{brk}1\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 3, column 3: not a number: ''"):
            load_csv(p, has_label=True)

    def test_non_utf8_byte_late_in_file_is_config_error(self, tmp_path):
        p = tmp_path / "d.csv"
        lines = write_rows(p, 70_000)
        text = "\n".join(lines[:60_002]) + "\n"
        p.write_bytes(text.encode() + b"1.0,2.\xff0,0\n" + "\n".join(lines[60_002:]).encode() + b"\n")
        with pytest.raises(ConfigError, match="not UTF-8 text") as err:
            load_csv(p, has_label=True)
        assert str(p) in str(err.value)

    def test_blank_lines_and_header_keep_file_line_numbers(self, tmp_path):
        p = tmp_path / "d.csv"
        lines = write_rows(p, 10_000)
        for at in (5, 4_000, 9_000):
            lines.insert(at, "   " if at == 4_000 else "")
        lines[9_500] = "1.0,2.0,nan"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert (err.value.row, err.value.column) == (9_501, 3)
        lines[9_500] = "1.0,2.0,0.5"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="row 9501, column 3: label"):
            load_csv(p, has_label=True)
        lines[9_500] = "1.0,2.0,1"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows, linenos = reference_parse(p)
        assert len(linenos) == 10_000 and linenos[-1] == len(lines)
        assert load_csv(p, has_label=True).X.tobytes() == rows[:, :2].tobytes()


# At this _READ_HINT, a block of fh.readlines() closes on the line that takes
# its length past 30 characters, so lines of 11 to 15 characters, counting
# the "\n", come three to a block.
_HINT = 30
_ROW = "1.0,2.25,0"
_PAD = " " * 10


def _write_blocks(path, lines, ending):
    """lines, each ended by ending, as the file's UTF-8 bytes; returns the
    number of lines in each block of fh.readlines(_HINT)."""
    path.write_bytes("".join(line + ending for line in lines).encode())
    with path.open(encoding="utf-8-sig") as fh:
        return [len(block) for block in iter(lambda: fh.readlines(_HINT), [])]


class TestLineBlocks:
    """load_csv across the edges of _lines' blocks, with the block size cut
    to three lines, compared with the cell-by-cell reference."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("lines", [
        # The header after two blocks of blank lines: first, second or last
        # line of the third block.
        *([_PAD] * k + ["x0,x1,label"] + [_ROW] * 5 for k in (6, 7, 8)),
        # Line breaks str.splitlines() adds, on the first and last line of a
        # block and of the file.
        ["\u2028" + _ROW, _ROW, _ROW + "\x0c", "\x0c" + _ROW, _ROW, _ROW + "\u2028",
         _ROW, _ROW, _ROW + "\x0c"],
    ])
    def test_rows_match_reference(self, monkeypatch, tmp_path, lines, ending):
        monkeypatch.setattr(data, "_READ_HINT", _HINT)
        p = tmp_path / "d.csv"
        assert set(_write_blocks(p, lines, ending)[:-1]) == {3}
        rows, _ = reference_parse(p)
        ds = load_csv(p, has_label=True)
        assert ds.X.tobytes() == rows[:, :2].tobytes()
        np.testing.assert_array_equal(ds.y, rows[:, 2].astype(int))

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("bad", [
        {6: "1.0,abcd,0"},
        {6: "1.0,2.2500", 9: "1.0,abcd,0"},
        # The form feed ends line 3 after "1.0,": a ragged line.
        {3: "1.0,\x0c2.25,0", 6: "1.0,abcd,0"},
    ])
    def test_errors_on_a_blocks_last_line_match_reference(self, monkeypatch, tmp_path, bad, ending):
        monkeypatch.setattr(data, "_READ_HINT", _HINT)
        p = tmp_path / "d.csv"
        lines = [_ROW] * 12
        for lineno, text in bad.items():
            lines[lineno - 1] = text
        assert _write_blocks(p, lines, ending) == [3, 3, 3, 3]
        with pytest.raises(CsvParseError) as expected:
            reference_parse(p)
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert (str(err.value), err.value.row, err.value.column) == (
            str(expected.value), expected.value.row, expected.value.column
        )
        assert err.value.row == min(bad)


# Cells of three kinds: plain decimals, cells that float() takes and numpy's
# reader does not (underscores, non-ASCII digits, tab or no-break-space
# padding), and cells that both reject.
_PLAIN = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-99, 99).map(str)
_FLOAT_ONLY = st.sampled_from(["1_0.5", "\u0661\u0662", "\t2.5\t", "\xa0-3.0", "4.0\xa0", "1_000"])
_BAD = st.sampled_from(["abc", "", "1..2", "0x10", "1.0 2.0", "1.0#c", "0#", "#1"])


# str.splitlines() ends a line at each of these, where np.loadtxt's reader
# takes them as whitespace inside a cell.
_LINE_BREAKS = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])


def _put_line_break(draw, line):
    """line with a _LINE_BREAKS character at its start, at its end or after a comma."""
    commas = [i + 1 for i, ch in enumerate(line) if ch == ","]
    at = draw(st.sampled_from([0, len(line)] + commas))
    return line[:at] + draw(_LINE_BREAKS) + line[at:]


@st.composite
def csv_lines(draw):
    """A header or none, then up to a few hundred data lines of a common
    width, with up to three bad cells, blank lines, ragged lines or line
    breaks other than "\n" put in; then CRLF or lone-CR endings and a
    byte-order mark, or none. Zero data lines make a header-only or a
    blank-only file. Joined by "\n", the lines are the file's text."""
    width = draw(st.integers(2, 4))
    float_only = draw(st.booleans())
    cells = _PLAIN | _FLOAT_ONLY if float_only else _PLAIN
    labels = st.sampled_from(["0", "1", "2"] + (["1_0", "\u0661", "\t1"] if float_only else []))
    lines = [draw(st.sampled_from(["", "x0,x1,label"]))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 200))):
        lines.append(",".join([draw(cells) for _ in range(width - 1)] + [draw(labels)]))
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        damage = draw(st.sampled_from(["bad", "blank", "ragged", "line break"]))
        if damage == "bad":
            row = lines[at].split(",")
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD)
            lines[at] = ",".join(row)
        elif damage == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  "])))
        elif damage == "ragged":
            lines.insert(at, draw(st.sampled_from(["1.0", "1.0,2.0,3.0,4.0,0"])))
        else:
            lines[at] = _put_line_break(draw, lines[at])
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if ending == "\r\n":
        lines = [line + "\r" for line in lines]
    elif ending == "\r":
        lines = ["\r".join(lines)]
    if lines and draw(st.booleans()):
        lines[0] = "\ufeff" + lines[0]
    return lines


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_lines())
# numpy's default comments="#" would turn each of these bad files into a good one.
@example(["1.0,2.0,0", "1.0,2.0,1#c"])
@example(["1.0,2.0,0", "#1.0,2.0,1"])
@example(["1_0.5,\u0661\u0662,1", "\xa0-3.0,4.0\t,0"])
# The header is looked for on the first non-blank line.
@example(["", "x0,x1,label", "1.0,2.0,0"])
# numpy's reader would take the form feed as a cell's whitespace; the line is two lines.
@example(["1.0,\x0c2.0,0", "1.0,2.0,1"])
# Only a header, or only blank lines: no data rows.
@example(["\ufeffx0,x1,label\r"])
@example(["", "  "])
# A ragged line put in a header-only file is its one data row.
@example(["1.0", ""])
def test_load_csv_matches_cell_by_cell_reference(tmp_path, lines):
    p = tmp_path / "d.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        rows, linenos = reference_parse(p)
    except CsvParseError as expected:
        with pytest.raises(CsvParseError) as err:
            load_csv(p, has_label=True)
        assert (str(err.value), err.value.row, err.value.column) == (
            str(expected), expected.row, expected.column
        )
        return
    if not linenos:
        with pytest.raises(ConfigError, match="no data rows"):
            load_csv(p, has_label=True)
        return
    if rows.shape[1] < 2:
        # A lone column is a label without a feature.
        with pytest.raises(CsvParseError, match=f"row {linenos[0]}, column 1: need at least one feature"):
            load_csv(p, has_label=True)
        return
    ds = load_csv(p, has_label=True)
    assert ds.X.tobytes() == rows[:, :-1].tobytes()
    np.testing.assert_array_equal(ds.y, rows[:, -1].astype(int))


class TestDataset:
    def test_mixed_dims_rejected(self):
        with pytest.raises(ConfigError):
            Dataset([np.zeros(2), np.zeros(3)], class_count=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((1, 2)), [2], class_count=2)

    @pytest.mark.parametrize("label", [0.5, 1.9, np.nan, -np.inf, 1e20])
    @pytest.mark.parametrize("build", [
        lambda y: Dataset(np.zeros((3, 2)), y, class_count=2),
        lambda y: data.dataset_from_arrays(np.zeros((3, 2)), y),
        lambda y: data.dataset_from_arrays(np.zeros((3, 2)), y, class_count=2),
    ])
    def test_label_that_is_not_an_integer_rejected(self, build, label):
        with pytest.raises(ConfigError, match=re.escape(f"label {label!r} is not an integer")):
            build([0.0, label, 1.0])

    def test_whole_float_labels_are_read_as_integers(self):
        ds = data.dataset_from_arrays(np.zeros((3, 2)), [0.0, 1.0, 0.0])
        assert ds.y.dtype == np.int64 and ds.class_count == 2
        np.testing.assert_array_equal(ds.y, [0, 1, 0])

    def test_empty_and_non_matrix_rejected(self):
        for X in [np.zeros((0, 2)), np.zeros(3), np.zeros((2, 2, 2))]:
            with pytest.raises(ConfigError):
                Dataset(X)

    def test_non_finite_feature_names_first_bad_row(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.nan
        X[3, 0] = np.inf
        with pytest.raises(ConfigError, match="sample 2"):
            Dataset(X)

    def test_unlabeled_y_is_contract_error(self):
        with pytest.raises(ContractError):
            Dataset(np.zeros((2, 2))).y

    def test_scalar_domain_tag_broadcasts(self):
        ds = Dataset(np.zeros((3, 2)), is_source=False)
        assert ds.is_source.shape == (3,) and not ds.is_source.any()
        mixed = Dataset(np.zeros((2, 2)), is_source=[True, False])
        np.testing.assert_array_equal(mixed.is_source, [True, False])

    def test_arrays_are_read_only_copies(self):
        X = np.zeros((2, 2))
        ds = Dataset(X, [0, 1], class_count=2)
        X[0, 0] = 5.0
        assert ds.X[0, 0] == 0.0
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0


@pytest.mark.parametrize("frac", [0.0, 0.5, 0.8, 1.0])
def test_split_indices_leaves_both_parts_non_empty(frac):
    for n in range(2, 12):
        head, tail = split_indices(n, frac, np.random.default_rng(n))
        assert 1 <= len(head) <= n - 1 and len(head) == max(1, min(n - 1, round(frac * n)))
        assert sorted(head.tolist() + tail.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [0, 1])
def test_split_indices_needs_two_rows(n):
    with pytest.raises(ContractError):
        split_indices(n, 0.5, np.random.default_rng(0))
