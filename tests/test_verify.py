"""Synthetic generator, population losses, and the optimum checker."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, spearmanr

from reference import (
    example_rows,
    phi_table,
    reference_population_loss,
    sample_events,
    sample_examples,
    stacked_population_values,
    user_sequences,
)
from twotower.data import DAYS_PER_MONTH, compute_marginals
from twotower.losses import LossConfig
from twotower.model import ModelParams, cosine_backward, score_matrix_backward, score_matrix_forward
from twotower.trainer import TrainConfig, train_incremental
from twotower.verify import (
    EQUAL_OPTIMA_GROUPS,
    SAMPLE_CHUNK,
    SWEEP,
    EmpiricalTables,
    OptimumReport,
    StackedLoss,
    SweepResult,
    SyntheticSpec,
    _center,
    _rank_corr,
    check_optimum,
    dense_forward,
    generate_synthetic,
    population_loss,
    random_joint,
    run_table_sweep,
    sample_counts,
    sweep_report_text,
    target_table,
    train_to_optimum,
)


class TestRandomJoint:
    def test_normalized_and_supported(self):
        for seed in range(5):
            joint = random_joint(8, 12, seed=seed)
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(joint >= 0)
            assert np.all(joint.sum(axis=1) > 0)
            assert np.all(joint.sum(axis=0) > 0)

    @pytest.mark.parametrize("sparsity", [-0.5, 1.5, math.nan])
    def test_sparsity_outside_unit_interval_rejected(self, sparsity):
        with pytest.raises(ValueError, match=r"sparsity must be in \[0, 1\]"):
            random_joint(3, 4, seed=1, sparsity=sparsity)

    @pytest.mark.parametrize("sparsity", [0.0, 1.0])
    def test_unit_interval_ends_accepted(self, sparsity):
        joint = random_joint(3, 4, seed=1, sparsity=sparsity)
        assert np.all(joint.sum(axis=1) > 0) and np.all(joint.sum(axis=0) > 0)


class TestSyntheticSpec:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticSpec(num_users=2, num_items=2, joint=np.full((2, 2), 0.3))

    def test_drift_length_must_match_months(self):
        joint = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="per month"):
            SyntheticSpec(num_users=2, num_items=2, drift=[joint], num_months=2)

    def test_negative_cell_rejected(self):
        joint = np.array([[1.2, -0.2], [0.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            SyntheticSpec(num_users=2, num_items=2, joint=joint)

    def test_empty_random_table_rejected(self):
        with pytest.raises(ValueError, match="num_users"):
            random_joint(0, 3, seed=1)

    def test_rank_zero_random_table_rejected(self):
        """A rank-0 product is all zeros, and normalizing it gives 0/0."""
        with pytest.raises(ValueError, match="table_rank"):
            random_joint(3, 4, seed=1, table_rank=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, bad):
        joint = np.array([[0.5, bad], [0.25, 0.25]])
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(num_users=2, num_items=2, joint=joint)


class TestGenerateSynthetic:
    def test_point_mass_yields_identical_samples(self):
        joint = np.zeros((3, 4))
        joint[1, 2] = 1.0
        spec = SyntheticSpec(num_users=3, num_items=4, joint=joint, num_samples=500)
        sample = generate_synthetic(spec, seed=0)
        assert all(u == 1 and i == 2 for u, i, _ in sample_events(sample))
        assert sample.counts[1, 2] == 500

    def test_counts_match_records(self):
        spec = SyntheticSpec(num_users=4, num_items=5, joint=random_joint(4, 5, seed=1), num_samples=2_000)
        sample = generate_synthetic(spec, seed=2)
        recount = Counter((u, i) for u, i, _ in sample_events(sample))
        for (u, i), c in recount.items():
            assert sample.counts[u, i] == c
        assert sample.counts.sum() == 2_000

    def test_cell_frequencies_chi_square(self):
        joint = random_joint(4, 5, seed=3, sparsity=0.0)
        spec = SyntheticSpec(num_users=4, num_items=5, joint=joint, num_samples=100_000)
        sample = generate_synthetic(spec, seed=4)
        observed = sample.counts.ravel()
        expected = joint.ravel() * spec.num_samples
        keep = expected > 0
        result = chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum())
        assert result.pvalue > 0.001

    def test_drift_months_draw_from_their_own_tables(self):
        a = np.zeros((2, 3))
        a[0, 0] = 1.0
        b = np.zeros((2, 3))
        b[1, 2] = 1.0
        spec = SyntheticSpec(num_users=2, num_items=3, drift=[a, b], num_months=2, num_samples=1_000)
        sample = generate_synthetic(spec, seed=5)
        months = Counter()
        for user, item, day in sample_events(sample):
            month = day // DAYS_PER_MONTH + 1
            months[month] += 1
            if month == 1:
                assert (user, item) == (0, 0)
            else:
                assert (user, item) == (1, 2)
        assert months[1] > 0 and months[2] > 0

    def test_examples_use_reserved_user_tokens(self):
        spec = SyntheticSpec(num_users=3, num_items=4, joint=random_joint(3, 4, seed=6), num_samples=50)
        sample = generate_synthetic(spec, seed=7)
        examples = sample_examples(sample)
        for user, seq, target, day in example_rows(examples):
            assert seq == (4 + user,)
            assert 0 <= target < 4
        assert examples.month.tolist() == (examples.day // DAYS_PER_MONTH + 1).tolist()

    def test_deterministic(self):
        spec = SyntheticSpec(num_users=3, num_items=4, joint=random_joint(3, 4, seed=8), num_samples=300)
        a = generate_synthetic(spec, seed=9)
        b = generate_synthetic(spec, seed=9)
        assert sample_events(a) == sample_events(b)


class TestSampleCounts:
    """``sample_counts`` streams ``generate_synthetic``'s draw into its counts."""

    @settings(derandomize=True, database=None, max_examples=24, deadline=None)
    @given(
        num_samples=st.sampled_from([1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 7]),
        num_months=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_samples=1, num_months=3, seed=0)  # two of the three months draw no event
    def test_equals_the_event_draw(self, num_samples, num_months, seed):
        tables = [random_joint(3, 5, seed=seed % 1000 + month) for month in range(num_months)]
        if num_months == 1:
            spec = SyntheticSpec(num_users=3, num_items=5, joint=tables[0], num_samples=num_samples)
        else:
            spec = SyntheticSpec(num_users=3, num_items=5, drift=tables, num_months=num_months, num_samples=num_samples)
        counts = sample_counts(spec, seed)
        assert counts.dtype == np.int64
        assert counts.tobytes() == generate_synthetic(spec, seed).counts.tobytes()

    def test_draw_memory_does_not_grow_with_the_sample(self):
        """At 2,000,000 samples the draw holds under 2 MiB; holding the events
        took about 39 bytes each, 78 MiB."""
        spec = SyntheticSpec(joint=random_joint(8, 12, seed=1), num_samples=2_000_000)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            counts = sample_counts(spec, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert counts.sum() == 2_000_000
        assert peak < 2 * 2**20


def dense_tables(counts: np.ndarray) -> EmpiricalTables:
    return EmpiricalTables(np.asarray(counts, dtype=np.int64))


class TestEmpiricalTables:
    def test_marginals_consistent(self):
        tables = dense_tables([[2, 1], [1, 4]])
        assert tables.total == 8
        np.testing.assert_allclose(tables.p_user, [3 / 8, 5 / 8])
        np.testing.assert_allclose(tables.p_item, [3 / 8, 5 / 8])
        assert tables.joint.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dense_tables([[0, 0]])


ROWS = {row.label: row for row in SWEEP}
SWEEP_CONFIGS = [row.config for row in SWEEP]
# The sweep's configurations plus the ssm loss with a uniform proposal.
STACK = SWEEP_CONFIGS + [LossConfig(family="ssm", ssm_proposal="uniform")]
STACK_IDS = list(ROWS) + ["ssm/uniform"]


def stacked_loss(phi, tables: EmpiricalTables, configs) -> tuple[np.ndarray, np.ndarray]:
    """Losses and gradients of ``configs`` stacked, at their score tables ``phi``."""
    phi = np.asarray(phi, dtype=float)
    loss = StackedLoss.build([tables], configs)
    return stacked_population_values(phi, loss, [tables], configs), population_loss(phi, loss)


class TestPopulationLoss:
    def _phi(self, shape, seed=0):
        return np.random.default_rng(seed).normal(size=shape) * 0.5

    def _check_finite_differences(self, index, seed):
        """Slice ``index`` of the stacked gradient matches central differences
        of its own loss, and moving its scores leaves every other loss as is."""
        tables = dense_tables([[5, 1, 0, 2], [0, 3, 4, 1], [2, 0, 1, 6]])
        loss = StackedLoss.build([tables], STACK)
        phi = self._phi((len(STACK), *tables.joint.shape), seed=seed)
        values, dphi = stacked_population_values(phi, loss, [tables], STACK), population_loss(phi, loss)
        others = np.arange(len(STACK)) != index
        step = 1e-6
        for u in range(phi.shape[1]):
            for i in range(phi.shape[2]):
                up = phi.copy()
                up[index, u, i] += step
                down = phi.copy()
                down[index, u, i] -= step
                values_up = stacked_population_values(up, loss, [tables], STACK)
                values_down = stacked_population_values(down, loss, [tables], STACK)
                numeric = (values_up[index] - values_down[index]) / (2 * step)
                assert dphi[index, u, i] == pytest.approx(numeric, abs=5e-7), (STACK_IDS[index], u, i)
                assert np.array_equal(values_up[others], values[others])

    @pytest.mark.parametrize("label", ROWS, ids=list(ROWS))
    def test_gradient_matches_finite_differences(self, label):
        self._check_finite_differences(STACK_IDS.index(label), seed=1)

    def test_ssm_uniform_proposal_gradient(self):
        """Uniform proposal spreads the partition over the whole vocabulary,
        including never-observed items."""
        self._check_finite_differences(STACK_IDS.index("ssm/uniform"), seed=2)

    @pytest.mark.parametrize("index", range(len(STACK)), ids=STACK_IDS)
    @pytest.mark.parametrize("table", ["small", "sampled"])
    def test_stacked_matches_reference_per_configuration(self, index, table):
        """Each slice of the stacked loss is the one-configuration reference:
        the gradient and the value within 1e-15.  The gradient builds each
        softmax with one exponential, where the reference subtracts a
        logsumexp, so the two differ in the last bits."""
        tables = self._tables(table)
        phi = np.random.default_rng(index).normal(size=(len(STACK), *tables.joint.shape)) * 3.0
        values, dphi = stacked_loss(phi, tables, STACK)
        value, grad = reference_population_loss(phi[index], tables, STACK[index])
        np.testing.assert_allclose(dphi[index], grad, rtol=0, atol=1e-15)
        assert abs(values[index] - value) <= 1e-15

    @staticmethod
    def _tables(table):
        if table == "small":
            return dense_tables([[5, 1, 0, 2], [0, 3, 4, 1], [2, 0, 1, 6]])
        spec = SyntheticSpec(num_users=8, num_items=12, joint=random_joint(8, 12, seed=7), num_samples=20_000)
        return generate_synthetic(spec, seed=3).tables

    # (largest |phi|, tolerance): the reference's ``w - lse`` is off by up to
    # the spacing of floats near ``|phi|`` (3.6e-15 at 20, 1.1e-13 at 1000),
    # which its ``exp`` passes on to each softmax weight; over 20 draws the
    # largest difference was 1.1e-15 at 20 and 2.0e-14 at 1000.
    @pytest.mark.parametrize("scale,tolerance", [(20.0, 4e-15), (1000.0, 4e-14)], ids=["20", "1000"])
    @pytest.mark.parametrize("table", ["small", "sampled"])
    def test_large_logits_stay_finite_and_exact(self, table, scale, tolerance):
        """Scores up to 1000 in magnitude (cosines at temperature 0.001): the
        gradient is finite, computed without a numpy warning, and within the
        tolerance of the reference for every configuration."""
        tables = self._tables(table)
        phi = np.random.default_rng(5).uniform(-scale, scale, size=(len(STACK), *tables.joint.shape))
        loss = StackedLoss.build([tables], STACK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dphi = population_loss(phi, loss)
        assert np.isfinite(dphi).all()
        for index, config in enumerate(STACK):
            with np.errstate(over="ignore"):  # the reference's sigmoid overflows to its exact 0
                _, grad = reference_population_loss(phi[index], tables, config)
            np.testing.assert_allclose(dphi[index], grad, rtol=0, atol=tolerance, err_msg=STACK_IDS[index])

    def test_bce_optimum_is_stationary(self):
        tables = dense_tables([[5, 1, 2], [3, 4, 1]])  # strictly positive support
        strategies = {
            "user-marginal": tables.p_user[:, None] / 3 * np.ones((2, 3)),
            "item-marginal": np.ones((2, 3)) * tables.p_item[None, :] / 2,
            "product-of-marginals": tables.p_user[:, None] * tables.p_item[None, :],
            "uniform": np.full((2, 3), 1 / 6),
        }
        configs = [LossConfig(family="bce", negative_strategy=strategy) for strategy in strategies]
        phi_star = [np.log(tables.joint / p_n) for p_n in strategies.values()]
        _, dphi = stacked_loss(phi_star, tables, configs)
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)

    def test_bbcnce_optimum_is_stationary(self):
        tables = dense_tables([[5, 1, 2], [3, 4, 1], [2, 2, 9]])
        phi_star = tables.log_joint + 0.7  # any global constant
        _, dphi = stacked_loss([phi_star], tables, [LossConfig.from_preset("bbcnce")])
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)

    def test_row_loss_optimum_has_per_user_freedom(self):
        tables = dense_tables([[5, 1, 2], [3, 4, 1], [2, 2, 9]])
        offsets = np.array([[0.3], [-1.2], [2.0]])
        phi_star = tables.log_joint - tables.log_p_user[:, None] + offsets
        configs = [LossConfig.from_preset("row_bcnce"), LossConfig(family="ssm")]
        _, dphi = stacked_loss([phi_star, phi_star], tables, configs)
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)

    def test_col_loss_optimum_has_per_item_freedom(self):
        tables = dense_tables([[5, 1, 2], [3, 4, 1], [2, 2, 9]])
        offsets = np.array([0.5, -0.4, 1.1])
        phi_star = tables.log_joint - tables.log_p_item[None, :] + offsets[None, :]
        _, dphi = stacked_loss([phi_star], tables, [LossConfig.from_preset("col_bcnce")])
        np.testing.assert_allclose(dphi, 0.0, atol=1e-12)


class TestTargets:
    def test_target_names(self):
        """Each row's target names the table ``target_table`` builds for it."""
        tables = dense_tables([[5, 1, 2], [3, 4, 1]])
        log_joint, log_pu, log_pi = tables.log_joint, tables.log_p_user[:, None], tables.log_p_item[None, :]
        formulas = {
            "log p(i|u)": log_joint - log_pu,
            "log p(u|i)": log_joint - log_pi,
            "pmi": log_joint - log_pu - log_pi,
            "log p(u,i)": log_joint,
        }
        assert ROWS["row_bcnce"].target == "log p(i|u)"
        assert ROWS["col_bcnce"].target == "log p(u|i)"
        assert ROWS["bbcnce"].target == "log p(u,i)"
        assert ROWS["infonce"].target == "pmi"
        assert ROWS["ssm"].target == "log p(i|u)"
        assert ROWS["bce/uniform"].target == "log p(u,i)"
        for row in SWEEP:
            assert target_table(row, tables).tobytes() == formulas[row.target].tobytes(), row.label

    def test_unobserved_cells_are_nan(self):
        tables = dense_tables([[3, 0], [1, 2]])
        target = target_table(ROWS["bbcnce"], tables)
        assert math.isnan(target[0, 1])
        assert np.isfinite(target[tables.observed]).all()

    def test_gauge_classification(self):
        assert {row.gauge for row in SWEEP if row.config.family == "bce"} == {"none"}
        assert ROWS["bbcnce"].gauge == "none"
        assert ROWS["simclr"].gauge == "none"
        assert ROWS["infonce"].gauge == "per-user"
        assert ROWS["row_bcnce"].gauge == "per-user"
        assert ROWS["ssm"].gauge == "per-user"
        assert ROWS["col_bcnce"].gauge == "per-item"


class TestRankCorrelation:
    @pytest.mark.parametrize("ties", [False, True])
    def test_bit_identical_to_spearmanr(self, ties):
        """Exact agreement with ``scipy.stats.spearmanr``, established against
        scipy 1.17.1, so ``sweep_report.tsv`` stays byte-identical."""
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(3, 60))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)
            if ties:
                a, b = np.round(2 * a), np.round(b)
            if np.ptp(a) > 0 and np.ptp(b) > 0:
                assert _rank_corr(a, b) == spearmanr(a, b).statistic

    def test_constant_or_nan_input_is_nan(self):
        assert math.isnan(_rank_corr(np.ones(4), np.arange(4.0)))
        assert math.isnan(_rank_corr(np.array([1.0, np.nan, 2.0]), np.arange(3.0)))


class TestUnobservedUsersAndItems:
    """A sample that never draws some user or item leaves whole rows and
    columns off the support; centering still matches the NaN-skipping means
    it stands for, bit for bit."""

    COUNTS = [[3, 0, 1, 0], [0, 0, 0, 0], [2, 5, 0, 0]]  # user 1 and item 3 never drawn

    def test_center_matches_nanmean(self):
        tables = dense_tables(self.COUNTS)
        mask = tables.observed
        table = np.random.default_rng(4).normal(size=mask.shape)
        masked = np.where(mask, table, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = {
                "per-user": masked - np.nanmean(masked, axis=1, keepdims=True),
                "per-item": masked - np.nanmean(masked, axis=0, keepdims=True),
                "none": masked - np.nanmean(masked),
            }
        for gauge, want in expected.items():
            assert _center(table, mask, gauge).tobytes() == want.tobytes(), gauge


def score_table(block: np.ndarray, spec: SyntheticSpec, temperature: float = 0.05) -> np.ndarray:
    """The ``(M, K)`` score table of a block that ``train_to_optimum`` trained."""
    return dense_forward(block, spec.num_items)[2] / temperature


class TestCheckOptimum:
    def test_uniform_counts_null_check(self):
        """Exactly uniform counts make every target constant: rank correlation
        is undefined and the residual gate alone decides."""
        spec = SyntheticSpec(num_users=3, num_items=4, joint=np.full((3, 4), 1 / 12), num_samples=120)
        tables = dense_tables(np.full((3, 4), 10))
        row = ROWS["bbcnce"]
        [[block]] = train_to_optimum([row.config], [(0, tables)], spec, dim=6, epochs=400, learning_rate=0.05)
        report = check_optimum(row, score_table(block, spec), tables, 0.05)
        assert math.isnan(report.rank_correlation)
        assert report.residual <= 0.05
        assert report.passed

    def test_small_structured_joint_converges(self):
        joint = random_joint(4, 5, seed=13, sparsity=0.2)
        spec = SyntheticSpec(num_users=4, num_items=5, joint=joint, num_samples=30_000)
        sample = generate_synthetic(spec, seed=1)
        row = ROWS["bbcnce"]
        [[block]] = train_to_optimum([row.config], [(1, sample.tables)], spec, dim=6, epochs=1_000, learning_rate=0.05)
        report = check_optimum(row, score_table(block, spec), sample.tables, 0.05, seed=1)
        assert report.rank_correlation >= 0.95
        assert report.residual <= 0.25
        assert report.range_ok
        assert report.passed

    def test_report_counts_unobserved_cells(self):
        tables = dense_tables([[3, 0], [1, 2]])
        spec = SyntheticSpec(num_users=2, num_items=2, joint=np.full((2, 2), 0.25), num_samples=6)
        row = ROWS["bbcnce"]
        [[block]] = train_to_optimum([row.config], [(0, tables)], spec, dim=4, epochs=50, learning_rate=0.05)
        report = check_optimum(row, score_table(block, spec), tables, 0.05)
        assert report.num_observed == 3
        assert report.num_excluded == 1


class TestMinibatchConvergence:
    def test_minibatch_training_approaches_the_joint_optimum(self):
        """The production path (shuffled minibatches through the trainer, not
        the aggregated full-batch harness) must also land near the predicted
        optimum.  The gate is looser than the full-batch one: finite batches
        and stochastic steps leave residual noise around the target."""
        spec = SyntheticSpec(
            num_users=8, num_items=12, joint=random_joint(8, 12, seed=7), num_samples=20_000, num_months=1
        )
        sample = generate_synthetic(spec, seed=2)
        marginals = compute_marginals(sample_examples(sample), spec.num_items + spec.num_users)
        params = ModelParams.initialize(20, 10, 0.05, seed=3)
        config = TrainConfig(epochs_per_month=25, batch_size=128, learning_rate=0.02, seed=4)
        loss = LossConfig.from_preset("bbcnce")
        train_incremental(sample_examples(sample), params, loss, config, marginals=marginals)

        tables = sample.tables
        phi = phi_table(params, spec)
        target = target_table(ROWS["bbcnce"], tables)
        mask = tables.observed
        rho = spearmanr(phi[mask], target[mask]).statistic
        assert rho >= 0.85

    # preset: (gauge, own target, the targets that gauge tells apart from it).
    # Under a per-user gauge row equals joint and col equals pmi; under a
    # per-item gauge col equals joint and row equals pmi.
    BIAS_TARGETS = {
        "infonce": ("per-user", "pmi", ("joint",)),
        "row_bcnce": ("per-user", "row", ("pmi",)),
        "col_bcnce": ("per-item", "col", ("pmi",)),
        "bbcnce": ("none", "joint", ("col", "row", "pmi")),
    }

    @pytest.mark.parametrize("sample_seed", [2, 3])
    def test_each_in_batch_preset_learns_its_own_target(self, sample_seed):
        """The paper's bias claim through the minibatch trainer: each in-batch
        preset's gauged rank correlation with its own target beats every
        target its gauge can tell apart by at least 0.1.  With 6,000 samples
        and 20 epochs (about 3 s a seed on 2 vCPUs) the smallest margins
        measured over sample seeds 2, 3 and 5 were 0.21 to 0.24."""
        spec = SyntheticSpec(num_users=8, num_items=12, joint=random_joint(8, 12, seed=7), num_samples=6_000)
        sample = generate_synthetic(spec, seed=sample_seed)
        examples = sample_examples(sample)
        marginals = compute_marginals(examples, spec.num_items + spec.num_users)
        tables = sample.tables
        log_joint, mask = tables.log_joint, tables.observed
        targets = {
            "joint": log_joint,
            "row": log_joint - tables.log_p_user[:, None],
            "col": log_joint - tables.log_p_item[None, :],
            "pmi": log_joint - tables.log_p_user[:, None] - tables.log_p_item[None, :],
        }
        config = TrainConfig(epochs_per_month=20, batch_size=128, learning_rate=0.02, seed=4)
        for preset, (gauge, own, others) in self.BIAS_TARGETS.items():
            params = ModelParams.initialize(20, 10, 0.05, seed=3)
            train_incremental(examples, params, LossConfig.from_preset(preset), config, marginals=marginals)
            phi = _center(phi_table(params, spec), mask, gauge)[mask]
            rho = {name: _rank_corr(phi, _center(target, mask, gauge)[mask]) for name, target in targets.items()}
            for other in others:
                assert rho[own] >= rho[other] + 0.1, (preset, own, other, rho)


class TestSweep:
    def test_grid_covers_all_strategies_and_presets(self):
        assert list(ROWS) == [
            "bce/user-marginal",
            "bce/item-marginal",
            "bce/product-of-marginals",
            "bce/uniform",
            "ssm",
            "infonce",
            "simclr",
            "row_bcnce",
            "col_bcnce",
            "bbcnce",
        ]

    def test_groups_agree_with_the_table(self):
        """Each row of the table sits in exactly one group, the group named by
        its target, and a group mixes at most one gauge other than ``none``
        (the gauge its agreement rows compare under)."""
        rows = {row.label: row for row in SWEEP}
        grouped = [label for labels in EQUAL_OPTIMA_GROUPS.values() for label in labels]
        assert sorted(grouped) == sorted(rows)
        for group, labels in EQUAL_OPTIMA_GROUPS.items():
            assert {rows[label].target for label in labels} == {group}
            assert len({rows[label].gauge for label in labels} - {"none"}) <= 1, group

    def test_sweep_cardinality_and_report_shape(self):
        spec = SyntheticSpec(num_users=4, num_items=5, joint=random_joint(4, 5, seed=21), num_samples=8_000)
        result = run_table_sweep(spec, seeds=(1, 2), dim=6, epochs=300, learning_rate=0.05)
        assert len(result.reports) == 20  # 10 configs x 2 seeds
        pair_count = sum(len(m) * (len(m) - 1) // 2 for m in EQUAL_OPTIMA_GROUPS.values())
        assert len(result.agreements) == pair_count * 2
        text = sweep_report_text(result)
        assert text.splitlines()[0].startswith("label\tseed\ttarget\tgauge")
        row = [line for line in text.splitlines() if line.startswith("row_bcnce\t1")][0]
        assert "log p(i|u)" in row


class TestDenseKernel:
    """The sweep's dense kernels: :func:`dense_forward` and
    ``model.cosine_backward`` over a stack of blocks compute each block as
    it would be computed alone, and on one block they compute what the
    production kernels compute for one-token users scored against shared
    item columns."""

    M, K, D = 4, 5, 6
    TAU = 0.05

    def _blocks(self, shape):
        return np.random.default_rng(len(shape)).normal(size=(*shape, self.K + self.M, self.D))

    def _backward(self, hat, norms, cos, dphi):
        """``cosine_backward`` over blocks: the gradient of every block row."""
        k = self.K
        grad = np.empty_like(hat)
        scale = self.TAU * norms[..., None]
        cosine_backward(
            dphi, cos, hat[..., k:, :], scale[..., k:, :], hat[..., :k, :], scale[..., :k, :],
            grad[..., :k, :], grad[..., k:, :],
        )
        return grad

    @pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=["C", "S-C"])
    def test_stack_equals_separate_blocks(self, shape):
        """A stack's cosines and gradients equal, byte for byte, those of
        each block scored and differentiated alone by 2-d calls."""
        blocks = self._blocks(shape)
        hat, norms, cos = dense_forward(blocks, self.K)
        dphi = np.random.default_rng(7).normal(size=cos.shape)
        alone = {}
        for index in np.ndindex(shape):
            one_hat, one_norms, one_cos = dense_forward(blocks[index], self.K)
            assert one_cos.tobytes() == cos[index].tobytes()
            alone[index] = self._backward(one_hat, one_norms, one_cos, dphi[index])
        grad = self._backward(hat, norms, cos, dphi)
        for index, expected in alone.items():
            assert grad[index].tobytes() == expected.tobytes(), index

    def test_shared_column_rows_equal_score_matrix_kernel(self):
        """One block's users as one-token sequences under mean pooling:
        ``score_matrix_forward`` over the shared item columns gives the dense
        cosines over the temperature, and ``score_matrix_backward`` the item
        and user rows of ``cosine_backward``, byte for byte."""
        block = self._blocks(())
        params = ModelParams(np.vstack([block, np.zeros((1, self.D))]), self.TAU)
        spec = SyntheticSpec(num_users=self.M, num_items=self.K, joint=np.full((self.M, self.K), 1 / (self.M * self.K)))
        phi, cache = score_matrix_forward(user_sequences(spec), np.arange(self.K), params)
        hat, norms, cos = dense_forward(block, self.K)
        assert phi.tobytes() == (cos / self.TAU).tobytes()

        dphi = np.random.default_rng(7).normal(size=cos.shape)
        expected = score_matrix_backward(cache, dphi, params)
        assert expected.rows.tolist() == list(range(self.K + self.M))
        assert expected.values.tobytes() == self._backward(hat, norms, cos, dphi).tobytes()

    def test_zero_user_row_rejected(self):
        blocks = self._blocks((3,))
        blocks[1, self.K + 2] = 0.0
        with pytest.raises(ValueError, match="zero-norm vector encountered during scoring"):
            dense_forward(blocks, self.K)


class TestStackedTraining:
    SPEC = SyntheticSpec(num_users=4, num_items=5, joint=random_joint(4, 5, seed=21), num_samples=8_000)
    SETTINGS = dict(dim=6, epochs=300, learning_rate=0.05)

    @pytest.fixture(scope="class")
    def stack(self):
        tables = generate_synthetic(self.SPEC, seed=1).tables
        [trained] = train_to_optimum(SWEEP_CONFIGS, [(1, tables)], self.SPEC, **self.SETTINGS)
        return tables, trained

    @pytest.mark.parametrize("index", range(len(SWEEP)), ids=list(ROWS))
    def test_configuration_trains_as_alone(self, stack, index):
        """A configuration trained alone and inside the ten-configuration
        stack reaches the same table, bit for bit: no block leaks into another."""
        tables, trained = stack
        [[alone]] = train_to_optimum([SWEEP[index].config], [(1, tables)], self.SPEC, **self.SETTINGS)
        assert alone.tobytes() == trained[index].tobytes()

    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
        epochs=st.integers(1, 300),
    )
    @example(seeds=[1, 2, 3, 4], epochs=300)
    def test_seeds_train_as_alone(self, seeds, epochs):
        """Every seed's blocks trained in one stack with the other seeds' equal,
        bit for bit, that seed trained alone, and so does the sweep report."""
        kwargs = dict(dim=6, epochs=epochs, learning_rate=0.05)
        seeded_tables = [(seed, generate_synthetic(self.SPEC, seed).tables) for seed in seeds]
        stacked = train_to_optimum(SWEEP_CONFIGS, seeded_tables, self.SPEC, **kwargs)
        for pair, blocks in zip(seeded_tables, stacked):
            [alone] = train_to_optimum(SWEEP_CONFIGS, [pair], self.SPEC, **kwargs)
            assert [block.tobytes() for block in blocks] == [block.tobytes() for block in alone]

        singles = [run_table_sweep(self.SPEC, [seed], **kwargs) for seed in seeds]
        joined = SweepResult(
            [row for single in singles for row in single.reports],
            [row for single in singles for row in single.agreements],
        )
        assert sweep_report_text(run_table_sweep(self.SPEC, seeds, **kwargs)) == sweep_report_text(joined)
