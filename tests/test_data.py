import numpy as np
import pytest
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

from drshift.data import _PARSE_BLOCK, split_indices

from helpers import random_discrete_instance
from oracle import DiscreteDomainSpec, oracle_expectations


def one_d_spec(mu_s, mu_t, n=50, seed=0):
    return GaussianShiftSpec(
        source_mean=[mu_s], target_mean=[mu_t],
        source_cov=[[1.0]], target_cov=[[1.0]],
        boundary_weights=[1.0], boundary_bias=0.0,
        n_source=n, n_target=n, seed=seed,
    )


class TestGaussianShift:
    def test_identical_specs_give_unit_ratio(self):
        spec = one_d_spec(0.0, 0.0)
        _, _, ratio = generate_gaussian_shift(spec)
        for x in [-2.0, 0.0, 1.7]:
            assert ratio(np.array([x])) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_at_midpoint_of_means_is_one(self):
        _, _, ratio = generate_gaussian_shift(one_d_spec(0.0, 1.0))
        assert ratio(np.array([0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_closed_form_value(self):
        # N(0;0,1)/N(0;1,1) = exp(0.5), cross-checked against the direct
        # density formula evaluated by hand.
        _, _, ratio = generate_gaussian_shift(one_d_spec(0.0, 1.0))
        direct = np.exp(-0.0 / 2) / np.exp(-1.0 / 2)
        assert ratio(np.array([0.0])) == pytest.approx(direct, rel=1e-12)
        assert ratio(np.array([0.0])) == pytest.approx(1.6487212707, rel=1e-9)

    def test_swapped_spec_inverts_ratio(self):
        spec = default_shift_spec(seed=3)
        swapped = GaussianShiftSpec(
            source_mean=spec.target_mean, target_mean=spec.source_mean,
            source_cov=spec.target_cov, target_cov=spec.source_cov,
            boundary_weights=spec.boundary_weights, boundary_bias=spec.boundary_bias,
            n_source=spec.n_source, n_target=spec.n_target, seed=spec.seed,
        )
        _, _, r1 = generate_gaussian_shift(spec)
        _, _, r2 = generate_gaussian_shift(swapped)
        rng = np.random.default_rng(0)
        for x in rng.normal(size=(10, 2)):
            assert r1(x) * r2(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_ratio_matches_scipy_on_correlated_covariances(self, d):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(d)
        for _ in range(10):
            covs = []
            for _ in range(2):
                A = rng.normal(size=(d, d))
                covs.append(A @ A.T + 0.5 * np.eye(d))
            means = rng.normal(scale=1.5, size=(2, d))
            spec = GaussianShiftSpec(
                source_mean=means[0], target_mean=means[1],
                source_cov=covs[0], target_cov=covs[1],
                boundary_weights=rng.normal(size=d), boundary_bias=0.0,
                n_source=3, n_target=3, seed=0,
            )
            _, _, ratio = generate_gaussian_shift(spec)
            for x in rng.normal(scale=2.0, size=(5, d)):
                expected = np.exp(multivariate_normal(means[0], covs[0]).logpdf(x)
                                  - multivariate_normal(means[1], covs[1]).logpdf(x))
                value = ratio(x)
                assert type(value) is float
                assert value == pytest.approx(expected, rel=1e-10)

    def test_label_frequency_matches_boundary(self):
        spec = default_shift_spec(seed=5, n_source=10000, n_target=1)
        source, _, _ = generate_gaussian_shift(spec)
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
        source, target, _ = generate_gaussian_shift(default_shift_spec(seed=1, n_source=20, n_target=30))
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
        dom = default_domain_classifier(2, seed=3, ratio_bounds=(0.5, 2.0))
        res = oracle_expectations(spec, clf, domain=dom)
        # independent evaluation with the classifier's clamped ratios
        _, ratios, clamped, _ = domain_ratios(dom, spec.points)
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
        source, _, _ = generate_gaussian_shift(default_shift_spec(seed=2, n_source=30, n_target=5))
        p = tmp_path / "d.csv"
        save_csv(p, source)
        back = load_csv(p, has_label=True)
        np.testing.assert_array_equal(back.X, source.X)
        np.testing.assert_array_equal(back.y, source.y)
        x0, x1 = source.X[0].tolist()
        assert p.read_text().splitlines()[0] == f"{x0!r},{x1!r},{source.y[0]}"


def reference_parse(path):
    """The cell-by-cell parse load_csv had before its block parse: (rows,
    1-based line numbers), or the CsvParseError of the first bad line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = 0
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        start = 1
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


class TestCsvBlockParse:
    """load_csv parses blocks of _PARSE_BLOCK lines; these files span several
    blocks and compare with the cell-by-cell reference above."""

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


class TestDataset:
    def test_mixed_dims_rejected(self):
        with pytest.raises(ConfigError):
            Dataset([np.zeros(2), np.zeros(3)], class_count=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((1, 2)), [2], class_count=2)

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
