"""Loss values against independent scalar oracles, plus the preset algebra."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from reference import (
    encode_user,
    example_rows,
    examples_of,
    identity_cells,
    logsumexp,
    reference_bidirectional_nce_loss,
    reference_full_softmax_value,
    reference_logsumexp,
    reference_shared_column_loss,
    score,
)
from twotower import losses as losses_mod
from twotower.data import EmpiricalMarginals, Examples, Sequences, compute_marginals
from twotower.losses import (
    IN_BATCH_PEAK_ARRAYS,
    MIN_TEMPERATURE,
    PRESETS,
    LossConfig,
    _ssm_candidates,
    bce_value,
    bidirectional_nce_loss,
    check_temperature,
    full_softmax_value,
    loss_with_gradients,
    proposal_distribution,
)
from twotower.model import AGGREGATORS, ModelParams

BCE = LossConfig(family="bce")
FULL_ROW = LossConfig(family="full_softmax_row")


def make_params(num_items=6, dim=4, temperature=0.25, seed=0) -> ModelParams:
    return ModelParams.initialize(num_items, dim, temperature, seed)


def uniform_marginals(num_items: int) -> EmpiricalMarginals:
    """Every item seen once; of the key ids 0-3 only key 0 is seen."""
    return EmpiricalMarginals(count_user=np.array([num_items, 0, 0, 0]), count_item=np.ones(num_items, dtype=np.int64))


class TestLossConfig:
    def test_preset_flag_table(self):
        assert PRESETS["infonce"] == (1, 0, 0, 0)
        assert PRESETS["simclr"] == (1, 0, 1, 0)
        assert PRESETS["row_bcnce"] == (1, 1, 0, 0)
        assert PRESETS["col_bcnce"] == (0, 0, 1, 1)
        assert PRESETS["bbcnce"] == (1, 1, 1, 1)

    def test_both_sides_off_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            LossConfig(family="bidirectional", alpha=0, beta=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            LossConfig(family="hinge")

    def test_nonbinary_flag_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=2)

    def test_ssm_without_samples_rejected(self):
        with pytest.raises(ValueError, match="num_sampled"):
            LossConfig(family="ssm", num_sampled=0)
        LossConfig(family="bidirectional", num_sampled=0)  # not read outside ssm


class TestLogsumexp:
    """Exact agreement of the references' ``logsumexp`` with
    ``scipy.special.logsumexp``, established against scipy 1.17.1, so the
    references that the loss kernels and ``verify`` are checked against
    compute scipy's values."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_bit_identical_to_scipy(self, axis):
        rng = np.random.default_rng(5)
        for trial in range(200):
            shape = tuple(rng.integers(1, 30, size=2))
            a = rng.normal(scale=[0.1, 1.0, 10.0, 100.0][trial % 4], size=shape)
            if trial % 3 == 0:  # -inf entries, every line keeps one finite entry
                a[rng.random(shape) < 0.4] = -np.inf
                a[0, :] = a[:, 0] = rng.normal(size=1)
            if trial % 5 == 1:  # ties, tied maxima among them
                a = np.round(a)
            assert np.array_equal(logsumexp(a, axis=axis), scipy.special.logsumexp(a, axis=axis))

    def test_tied_maxima_and_infinite_entries(self):
        a = np.array([[2.0, 2.0, 1.0], [-np.inf, 0.5, -np.inf], [3.0, 3.0, 3.0]])
        for axis in (0, 1):
            assert np.array_equal(logsumexp(a, axis=axis), scipy.special.logsumexp(a, axis=axis))


class TestBceValue:
    def test_single_positive_at_zero_logit(self):
        value, dphi = bce_value(np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)
        assert dphi[0] == pytest.approx(-0.5, abs=1e-12)

    def test_saturated_pair_is_near_zero(self):
        value, _ = bce_value(np.array([40.0, -40.0]), np.array([1.0, 0.0]))
        assert 0.0 <= value < 1e-12

    def test_mixed_batch_matches_scalar_arithmetic(self):
        logits = [0.5, -0.3, 2.0, 1.2]
        labels = [1.0, 0.0, 1.0, 0.0]
        expected = sum(
            math.log(1.0 + math.exp(-phi)) if s == 1.0 else math.log(1.0 + math.exp(phi))
            for phi, s in zip(logits, labels)
        ) / len(logits)
        value, _ = bce_value(np.array(logits), np.array(labels))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_is_sigmoid_minus_label_over_batch(self):
        logits = np.array([0.7, -1.1])
        labels = np.array([0.0, 1.0])
        _, dphi = bce_value(logits, labels)
        sig = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(dphi, (sig - labels) / 2.0, atol=1e-12)


class TestBceLoss:
    def test_orthogonal_positive_gives_log_two(self):
        params = make_params(num_items=2, dim=2)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = examples_of([(0, (0,), 1, 0)], labels=[1])
        out = loss_with_gradients(batch, params, BCE)
        assert out.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_extremes(self):
        params = make_params(num_items=3, dim=2, temperature=0.05)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        # cosine 1 -> logit +20 (positive); cosine -1 -> logit -20 (negative)
        batch = examples_of([(0, (0,), 1, 0), (0, (0,), 2, 0)], labels=[1, 0])
        out = loss_with_gradients(batch, params, BCE)
        assert out.value == pytest.approx(0.0, abs=1e-8)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_with_gradients(examples_of([], labels=[]), make_params(), BCE)


def bidirectional_oracle(phi, log_p_u, log_p_i, alpha, beta, d_alpha, d_beta):
    """Plain-python triple-loop evaluation of the in-batch loss."""
    size = len(phi)
    total = 0.0
    row_sum = 0.0
    col_sum = 0.0
    for r in range(size):
        num = math.exp(phi[r][r] - d_alpha * log_p_i[r])
        den = sum(math.exp(phi[r][c] - d_alpha * log_p_i[c]) for c in range(size))
        row_sum += -math.log(num / den)
        num = math.exp(phi[r][r] - d_beta * log_p_u[r])
        den = sum(math.exp(phi[q][r] - d_beta * log_p_u[q]) for q in range(size))
        col_sum += -math.log(num / den)
    return alpha * (row_sum / size) + beta * (col_sum / size)


class TestBidirectionalLoss:
    def test_uniform_two_by_two_gives_two_log_two(self):
        phi = np.zeros((2, 2))
        eye = identity_cells(phi)
        biases = np.full(2, math.log(0.5))
        value, _ = bidirectional_nce_loss(phi, *eye, biases, biases, LossConfig.from_preset("bbcnce"))
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_infonce_is_the_row_term_alone(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(4, 4))
        eye = identity_cells(phi)
        log_p_u = np.log(rng.uniform(0.05, 0.5, size=4))
        log_p_i = np.log(rng.uniform(0.05, 0.5, size=4))
        infonce, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("infonce"))
        expected = bidirectional_oracle(phi, log_p_u, log_p_i, alpha=1, beta=0, d_alpha=0, d_beta=0)
        assert infonce == pytest.approx(expected, abs=1e-12)

    def test_three_by_three_hand_computation(self):
        phi = np.array([[1.2, -0.4, 0.3], [0.0, 2.1, -1.0], [0.5, 0.6, 0.7]])
        eye = identity_cells(phi)
        log_p_u = np.log(np.array([0.5, 0.3, 0.2]))
        log_p_i = np.log(np.array([0.25, 0.5, 0.25]))
        for preset in PRESETS:
            config = LossConfig.from_preset(preset)
            value, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, config)
            expected = bidirectional_oracle(
                phi, log_p_u, log_p_i, config.alpha, config.beta, config.delta_alpha, config.delta_beta
            )
            assert value == pytest.approx(expected, abs=1e-12), preset

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            bidirectional_nce_loss(np.zeros((1, 1)), [0], [0], np.zeros(1), np.zeros(1), LossConfig.from_preset("bbcnce"))

    def test_simclr_decomposes_exactly(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=(5, 5))
        eye = identity_cells(phi)
        log_p_u = np.log(rng.uniform(0.05, 0.5, size=5))
        log_p_i = np.log(rng.uniform(0.05, 0.5, size=5))
        simclr, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("simclr"))
        row_only, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("infonce"))
        col_only, _ = bidirectional_nce_loss(
            phi, *eye, log_p_u, log_p_i, LossConfig(family="bidirectional", alpha=0, beta=1, delta_alpha=0, delta_beta=0)
        )
        assert simclr == row_only + col_only  # identical accumulation order: exact

    def test_bbcnce_decomposes_exactly(self):
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(4, 4))
        eye = identity_cells(phi)
        log_p_u = np.log(rng.uniform(0.05, 0.5, size=4))
        log_p_i = np.log(rng.uniform(0.05, 0.5, size=4))
        bbc, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("bbcnce"))
        row, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("row_bcnce"))
        col, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("col_bcnce"))
        assert bbc == row + col

    def test_delta_flags_cancel_under_uniform_marginals(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(6, 6))
        eye = identity_cells(phi)
        uniform = np.full(6, math.log(1.0 / 6.0))
        with_bias, _ = bidirectional_nce_loss(phi, *eye, uniform, uniform, LossConfig.from_preset("bbcnce"))
        without, _ = bidirectional_nce_loss(phi, *eye, uniform, uniform, LossConfig.from_preset("simclr"))
        assert abs(with_bias - without) < 1e-9

    def test_row_softmax_distributions_sum_to_one(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(5, 5))
        eye = identity_cells(phi)
        log_p = np.log(rng.uniform(0.05, 0.5, size=5))
        _, dscore = bidirectional_nce_loss(phi, *eye, log_p, log_p, LossConfig.from_preset("infonce"))
        p_row = 5.0 * dscore + np.eye(5)
        np.testing.assert_allclose(p_row.sum(axis=1), 1.0, atol=1e-9)
        _, dscore_col = bidirectional_nce_loss(
            phi, *eye, log_p, log_p, LossConfig(family="bidirectional", alpha=0, beta=1, delta_alpha=0, delta_beta=1)
        )
        p_col = 5.0 * dscore_col + np.eye(5)
        np.testing.assert_allclose(p_col.sum(axis=0), 1.0, atol=1e-9)

    def test_per_row_shift_invariance(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(4, 4))
        eye = identity_cells(phi)
        log_p = np.log(rng.uniform(0.1, 0.4, size=4))
        shifts = rng.normal(size=(4, 1)) * 10.0
        config = LossConfig.from_preset("infonce")
        a, _ = bidirectional_nce_loss(phi, *eye, log_p, log_p, config)
        b, _ = bidirectional_nce_loss(phi + shifts, *eye, log_p, log_p, config)
        assert a == pytest.approx(b, abs=1e-9)

    def test_values_nonnegative_and_finite(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            size = int(rng.integers(2, 7))
            phi = rng.normal(size=(size, size)) * rng.uniform(0.5, 4.0)
            eye = identity_cells(phi)
            log_p = np.log(rng.dirichlet(np.ones(size)))
            for preset in PRESETS:
                value, _ = bidirectional_nce_loss(phi, *eye, log_p, log_p, LossConfig.from_preset(preset))
                assert value >= 0.0 and np.isfinite(value)


class TestFullSoftmax:
    def test_single_item_vocabulary(self):
        value, _ = full_softmax_value(np.zeros((3, 1)), np.arange(3), np.zeros(3, dtype=int))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_three_way_hand_computation(self):
        phi = np.array([[1.0, 0.0, -1.0]])
        expected = -math.log(math.exp(1.0) / (math.exp(1.0) + 1.0 + math.exp(-1.0)))
        value, _ = full_softmax_value(phi, np.array([0]), np.array([0]))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_matches_bidirectional_row_term_when_batch_covers_vocab(self):
        params = make_params(num_items=4, dim=3, seed=2)
        batch = examples_of([(0, (t,), (t + 1) % 4, 0) for t in range(4)])
        marginals = compute_marginals(batch, 4)  # every user and item at probability 1/4
        full = loss_with_gradients(batch, params, FULL_ROW)
        in_batch = loss_with_gradients(batch, params, LossConfig.from_preset("row_bcnce"), marginals=marginals)
        assert in_batch.value == pytest.approx(full.value, abs=1e-12)

    def test_gradient_rows_cover_vocabulary(self):
        params = make_params(num_items=5, dim=3, seed=3)
        batch = examples_of([(0, (0,), 1, 0), (0, (2,), 3, 0)])
        out = loss_with_gradients(batch, params, FULL_ROW)
        assert set(out.gradients.rows) == {0, 1, 2, 3, 4}


def _scores(size: int, seed: int) -> np.ndarray:
    """A score matrix with tied row and column maxima and ``-inf`` cells;
    the diagonal stays finite, so every line keeps a finite entry."""
    rng = np.random.default_rng(seed)
    phi = np.round(rng.normal(scale=3.0, size=(size, size)), 1)  # rounding ties values, maxima among them
    phi[rng.random(phi.shape) < 0.2] = -np.inf
    phi[0, :2] = phi[:2, 0] = phi.max() + 1.0  # a tie for the top of row 0 and of column 0
    phi[np.diag_indices(size)] = rng.normal(size=size)
    return phi


def _peak_arrays(fn, size: int) -> float:
    """Peak memory that the call ``fn()`` allocates, in ``(size, size)`` float64 arrays."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (8 * size * size)


def _tolerance(phi: np.ndarray, *biases: np.ndarray) -> float:
    """One ulp of ``1 + max |finite score| + max |bias|``: both the one-exponential
    kernels and the logsumexp references round each exponent's argument at
    that scale, so they differ by a few such ulps (at most 2.1 in the value and
    0.11 in the gradient over 300 seeded trials of the property inputs)."""
    scale = 1.0 + np.abs(phi[np.isfinite(phi)]).max() + max((np.abs(b).max() for b in biases), default=0.0)
    return float(np.finfo(float).eps * scale)


def _assert_close(ours: tuple[float, np.ndarray], theirs: tuple[float, np.ndarray], ulp: float) -> None:
    """The value within 8 ``ulp`` (or the same infinity: a positive on a
    ``-inf`` cell) and the gradient within 2, the gradient in the same
    memory layout."""
    assert ours[0] == theirs[0] or abs(ours[0] - theirs[0]) <= 8 * ulp, (ours[0], theirs[0])
    assert np.abs(ours[1] - theirs[1]).max() <= 2 * ulp
    assert ours[1].strides == theirs[1].strides


class TestInPlaceKernels:
    """The softmax kernels against the logsumexp code they replaced
    (``tests/reference.py``): value and gradient within :func:`_tolerance`,
    the gradient in the same memory layout, the input never written, and a
    bounded peak of temporaries."""

    @pytest.mark.parametrize("size", [2, 3, 257])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_bidirectional_matches_the_out_of_place_loss(self, preset, size):
        config = LossConfig.from_preset(preset)
        rng = np.random.default_rng(size)
        log_p_u, log_p_i = np.log(rng.dirichlet(np.ones(size), size=2))
        log_p_i[:2] = log_p_i[0]  # tied biases
        for seed in range(3):
            phi = _scores(size, seed)
            eye = identity_cells(phi)
            before = phi.copy()
            ours = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, config)
            assert phi.tobytes() == before.tobytes()
            theirs = reference_bidirectional_nce_loss(phi, log_p_u, log_p_i, config)
            _assert_close(ours, theirs, _tolerance(phi, log_p_u, log_p_i))

    @pytest.mark.parametrize("size", [2, 3, 257])
    def test_full_softmax_matches_the_out_of_place_loss(self, size):
        """Row-major scores (``full_softmax_row``, ``ssm``) and their
        transpose (``full_softmax_col``)."""
        positives = np.random.default_rng(size).integers(0, size, size=size)
        for seed in range(3):
            for phi in (_scores(size, seed), _scores(size, seed).T):
                before = phi.copy()
                ours = full_softmax_value(phi, np.arange(len(phi)), positives)
                assert phi.tobytes() == before.tobytes()
                _assert_close(ours, reference_full_softmax_value(phi, positives), _tolerance(phi))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_logsumexp_matches_the_out_of_place_code(self, axis):
        for phi in (_scores(257, 0), _scores(3, 1).T, np.full((2, 3), -np.inf)):
            before = phi.copy()
            with np.errstate(invalid="ignore"):  # an all -inf line subtracts -inf from -inf
                ours = logsumexp(phi, axis=axis)
                theirs = reference_logsumexp(phi, axis=axis)
            assert phi.tobytes() == before.tobytes()
            assert ours.tobytes() == theirs.tobytes()

    def test_peak_memory_of_the_kernels(self):
        """At B = 256 the out-of-place code peaked at 6.15 ``(B, B)`` arrays
        in the bbcNCE kernel and 2.13 in ``logsumexp``; the in-place
        logsumexp kernel at 3.27.  The one-exponential kernel holds its
        exponential and the rank-2 factor that scales it (2.05)."""
        size = 256
        phi = _scores(size, 0)
        log_p = np.full(size, -math.log(size))
        bbcnce = LossConfig.from_preset("bbcnce")
        rows, cols = identity_cells(phi)
        assert _peak_arrays(lambda: bidirectional_nce_loss(phi, rows, cols, log_p, log_p, bbcnce), size) <= 2.5
        assert _peak_arrays(lambda: full_softmax_value(phi, rows, np.zeros(size, dtype=np.int64)), size) <= 1.5
        assert _peak_arrays(lambda: logsumexp(phi, axis=1), size) <= 1.5

    def test_peak_memory_of_an_in_batch_step(self):
        """A whole bbcNCE step, forward to sparse gradient, peaks at the
        ``IN_BATCH_PEAK_ARRAYS`` that ``train`` budgets for a batch, rounded
        up to a half array; one-item histories and a 4-d table keep the other
        arrays small."""
        size, num_items = 512, 600
        params = make_params(num_items=num_items, dim=4, seed=1)
        batch = examples_of([(u, (u,), u + 1, 0) for u in range(size)])
        marginals = compute_marginals(batch, num_items)
        config = LossConfig.from_preset("bbcnce")
        step = _peak_arrays(lambda: loss_with_gradients(batch, params, config, marginals=marginals), size)
        assert IN_BATCH_PEAK_ARRAYS == math.ceil(2 * step) / 2


def _cosine_scores(size: int, seed: int, temperature: float) -> np.ndarray:
    """Cosines of seeded random 8-d user and item vectors over ``temperature``."""
    rng = np.random.default_rng(seed)
    users, items = rng.normal(size=(2, size, 8))
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    items /= np.linalg.norm(items, axis=1, keepdims=True)
    return (users @ items.T) / temperature


def _log_biases(size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``log p(u)`` and ``log p(i)`` of the batch from seeded counts 0-3:
    ties everywhere, and a zero count gets ``floor_log()``."""
    counts = np.random.default_rng(seed).integers(0, 4, size=(2, size))
    counts[1, 0] = max(counts[1, 0], 1)  # a training set holds at least one event
    marginals = EmpiricalMarginals(count_user=counts[0], count_item=counts[1])
    return marginals.log_p_user, marginals.log_p_item


class TestOneExponentialKernels:
    """Seeded property tests of the one-exponential kernels against the
    logsumexp references, within :func:`_tolerance`: cosine scores over any
    temperature the in-batch losses accept, and ``_scores`` matrices with
    ``-inf`` cells and tied maxima."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 300),
        seed=st.integers(0, 2**16),
        preset=st.sampled_from(sorted(PRESETS)),
        temperature=st.one_of(st.floats(MIN_TEMPERATURE, 1.0), st.none()),
    )
    def test_bidirectional_matches_the_reference(self, size, seed, preset, temperature):
        phi = _scores(size, seed) if temperature is None else _cosine_scores(size, seed, temperature)
        eye = identity_cells(phi)
        log_p_u, log_p_i = _log_biases(size, seed)
        config = LossConfig.from_preset(preset)
        ours = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, config)
        theirs = reference_bidirectional_nce_loss(phi, log_p_u, log_p_i, config)
        _assert_close(ours, theirs, _tolerance(phi, log_p_u, log_p_i))

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        size=st.integers(2, 300),
        seed=st.integers(0, 2**16),
        temperature=st.one_of(st.floats(MIN_TEMPERATURE, 1.0), st.none()),
        transpose=st.booleans(),
    )
    def test_full_softmax_matches_the_reference(self, size, seed, temperature, transpose):
        phi = _scores(size, seed) if temperature is None else _cosine_scores(size, seed, temperature)
        phi = phi.T if transpose else phi
        positives = np.random.default_rng(seed).integers(0, size, size=size)
        ours = full_softmax_value(phi, np.arange(len(phi)), positives)
        _assert_close(ours, reference_full_softmax_value(phi, positives), _tolerance(phi))

    def test_an_underflowing_line_sum_is_refused(self):
        """Cosine scores at a temperature below the floor span more than
        the exponential's range: a row far below the matrix maximum sums to
        zero, and the kernel names it instead of returning NaN."""
        phi = np.array([[1.0, 1.0], [-1.0, -1.0]]) / 0.001
        eye = identity_cells(phi)
        with pytest.raises(ValueError, match="line sum is zero, subnormal or not finite"):
            bidirectional_nce_loss(phi, *eye, np.zeros(2), np.zeros(2), LossConfig.from_preset("bbcnce"))

    def test_temperature_floor(self):
        check_temperature(MIN_TEMPERATURE)
        check_temperature(0.003)
        for temperature in (0.0028, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be >= 1/350"):
                check_temperature(temperature)


CELL_SHAPES = ("repeats", "one_cell", "one_key", "one_target", "distinct")
SHARED_COLUMN_LOSSES = (*sorted(PRESETS), "full_softmax_row", "full_softmax_col")


def _cells(shape: str, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The cells ``(rows, cols)`` of ``size`` examples over R distinct
    pseudo-users and C distinct items, every one of them used: a random
    batch with repeats, all examples on one cell (R = C = 1), one key with
    many targets, one target with many keys, or every key and target
    distinct."""
    num_rows, num_cols = {
        "one_cell": (1, 1),
        "one_key": (1, size),
        "one_target": (size, 1),
        "distinct": (size, size),
    }.get(shape) or tuple(int(n) for n in rng.integers(1, size + 1, size=2))

    def cover(count: int) -> np.ndarray:
        return rng.permutation(np.r_[np.arange(count), rng.integers(0, count, size=size - count)])

    return cover(num_rows), cover(num_cols), num_rows, num_cols


class TestDistinctCells:
    """Scoring each distinct pseudo-user and item once equals scoring the
    expanded batch, where every example has a line of its own.  The kernels
    match the logsumexp references on ``phi[rows][:, cols]`` with identity
    cells, their gradient summed into the distinct cells; a repeated line
    sums its examples' terms, so rounding grows with the batch size B, and
    they stay within B times :func:`_tolerance` (over 300 seeded trials of
    cosine scores at most 10.8 ulps of it in the value and 0.42 B in the
    gradient).
    ``loss_with_gradients`` matches ``reference_shared_column_loss``, the
    square kernels on the expanded batch: the value within ``4 B eps / tau``
    and the parameter gradient within that times ``max(1, max |gradient|)``
    (at most 0.95 and 1.63 of one such unit over 600 seeded trials of every
    shared-column loss)."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 300),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(CELL_SHAPES),
        preset=st.sampled_from(sorted(PRESETS)),
        temperature=st.one_of(st.floats(MIN_TEMPERATURE, 1.0), st.none()),
    )
    @example(size=2, seed=0, shape="one_cell", preset="bbcnce", temperature=0.05)
    def test_bidirectional_kernel_matches_the_expanded_batch(self, size, seed, shape, preset, temperature):
        rng = np.random.default_rng(seed)
        rows, cols, num_rows, num_cols = _cells(shape, size, rng)
        if temperature is None:
            phi = np.round(rng.normal(scale=3.0, size=(num_rows, num_cols)), 1)  # tied scores
        else:
            phi = _cosine_scores(max(num_rows, num_cols), seed, temperature)[:num_rows, :num_cols]
        log_p_u, log_p_i = _log_biases(max(num_rows, num_cols), seed)
        log_p_u, log_p_i = log_p_u[:num_rows], log_p_i[:num_cols]
        config = LossConfig.from_preset(preset)
        ours = bidirectional_nce_loss(phi, rows, cols, log_p_u, log_p_i, config)
        value, expanded = reference_bidirectional_nce_loss(phi[rows][:, cols], log_p_u[rows], log_p_i[cols], config)
        folded = np.zeros_like(phi)
        np.add.at(folded, (rows[:, None], cols[None, :]), expanded)
        _assert_close(ours, (value, folded), size * _tolerance(phi, log_p_u, log_p_i))

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        size=st.integers(2, 300),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(CELL_SHAPES),
        temperature=st.one_of(st.floats(MIN_TEMPERATURE, 1.0), st.none()),
        transpose=st.booleans(),
    )
    @example(size=2, seed=0, shape="one_cell", temperature=0.05, transpose=False)
    def test_full_softmax_kernel_matches_the_expanded_batch(self, size, seed, shape, temperature, transpose):
        """Distinct rows, each example's positive a column of its row: the
        users against the vocabulary, or (transposed) the items against
        the universe."""
        rng = np.random.default_rng(seed)
        rows, _, num_rows, _ = _cells(shape, size, rng)
        width = int(rng.integers(1, 50))
        if temperature is None:
            phi = np.round(rng.normal(scale=3.0, size=(num_rows, width)), 1)
        else:
            phi = _cosine_scores(max(num_rows, width), seed, temperature)[:num_rows, :width]
        phi = np.asfortranarray(phi) if transpose else phi  # the layout of ``full_softmax_col``'s transpose
        positives = rng.integers(0, width, size=size)
        value, expanded = reference_full_softmax_value(phi[rows], positives)
        folded = np.zeros_like(phi)
        np.add.at(folded, rows, expanded)
        _assert_close(full_softmax_value(phi, rows, positives), (value, folded), size * _tolerance(phi))

    def test_cells_must_cover_the_matrix(self):
        """Each row and column of the distinct matrix holds an example's
        cell, and no cell lies outside it: a line without an example has no
        multiplicity to weigh it by."""
        phi, bias, bbcnce = np.zeros((2, 3)), np.zeros(3), LossConfig.from_preset("bbcnce")
        for rows, cols in (([0, 1], [0, 1]), ([0, 0, 1], [0, 1, 3]), ([0, 2, 1], [0, 1, 2])):
            with pytest.raises(ValueError, match="cells must cover every row and column"):
                bidirectional_nce_loss(phi, rows, cols, bias[:2], bias, bbcnce)
        with pytest.raises(ValueError, match="bias vectors must align"):
            bidirectional_nce_loss(phi, [0, 1, 1], [0, 1, 2], bias, bias, bbcnce)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        size=st.integers(2, 300),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(CELL_SHAPES),
        loss=st.sampled_from(SHARED_COLUMN_LOSSES),
        aggregator=st.sampled_from(AGGREGATORS),
        temperature=st.floats(MIN_TEMPERATURE, 1.0),
    )
    @example(size=2, seed=0, shape="one_cell", loss="bbcnce", aggregator="mean", temperature=0.05)
    def test_loss_matches_the_expanded_batch(self, size, seed, shape, loss, aggregator, temperature):
        """Keys are rows of a larger table in no particular order, targets
        items of a larger vocabulary, and the marginals count every key, so
        the universe of ``full_softmax_col`` holds keys outside the batch."""
        rng = np.random.default_rng(seed)
        rows, cols, num_rows, num_cols = _cells(shape, size, rng)
        num_items, num_keys = num_cols + int(rng.integers(0, 5)), num_rows + int(rng.integers(0, 4))
        params = ModelParams.initialize(num_items, 4, temperature, seed, aggregator)
        params.attention_vector[:] = rng.normal(size=4)
        lengths = rng.integers(1, 6, size=num_keys)
        table = Sequences(np.r_[0, np.cumsum(lengths)], rng.integers(0, num_items, size=lengths.sum()))
        key = rng.permutation(num_keys)[:num_rows][rows]
        target = rng.permutation(num_items)[:num_cols][cols]
        zeros = np.zeros(size, dtype=np.int64)
        batch = Examples(table, zeros, key, target, zeros, zeros + 1)
        item_counts = np.r_[1, rng.integers(0, 4, size=num_items - 1)]
        marginals = EmpiricalMarginals(rng.integers(1, 4, size=num_keys), item_counts)
        config = LossConfig.from_preset(loss) if loss in PRESETS else LossConfig(family=loss)
        ours = loss_with_gradients(batch, params, config, marginals=marginals)
        value, gradients = reference_shared_column_loss(batch, params, config, marginals)
        tolerance = 4 * size * np.finfo(float).eps / temperature
        assert abs(ours.value - value) <= tolerance
        assert ours.gradients.rows.tolist() == gradients.rows.tolist()
        scale = max(1.0, np.abs(gradients.values).max())
        assert np.abs(ours.gradients.values - gradients.values).max() <= tolerance * scale
        distinct = {"full_softmax_row": (num_rows, num_items), "full_softmax_col": (num_keys, num_cols)}
        assert ours.dscore.shape == distinct.get(config.family, (num_rows, num_cols))


class TestSampledSoftmax:
    def test_exhaustive_sampling_equals_full_softmax(self):
        num_items = 5
        params = make_params(num_items=num_items, dim=3, seed=4)
        marginals = uniform_marginals(num_items)
        batch = examples_of([(0, (0,), 2, 0), (0, (1, 3), 4, 0)])
        rng = np.random.default_rng(0)
        exhaustive = LossConfig(family="ssm", num_sampled=num_items - 1)
        sampled = loss_with_gradients(batch, params, exhaustive, marginals=marginals, rng=rng)
        full = loss_with_gradients(batch, params, FULL_ROW)
        assert sampled.value == pytest.approx(full.value, abs=1e-9)

    def test_single_negative_hand_computation(self):
        num_items = 3
        params = make_params(num_items=num_items, dim=2, seed=5)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        marginals = uniform_marginals(num_items)
        batch = examples_of([(0, (0,), 1, 0)])
        rng = np.random.default_rng(1)
        config = LossConfig(family="ssm", num_sampled=1)
        out = loss_with_gradients(batch, params, config, marginals=marginals, rng=rng)
        # positive logit: cos((1,0),(0,1))/tau = 0; the drawn negative is item 0 or 2
        # with cosine +1 or -1; uniform proposal corrections cancel.
        phi_pos = 0.0
        possible = {
            0: math.log(1.0 + math.exp(4.0 - phi_pos)),   # negative item 0: +1/0.25
            2: math.log(1.0 + math.exp(-4.0 - phi_pos)),  # negative item 2: -1/0.25
        }
        assert any(out.value == pytest.approx(v, abs=1e-12) for v in possible.values())

    def test_monte_carlo_mean_matches_enumerated_expectation(self):
        """Drawing 8 of the 9 non-positives leaves exactly one item out, and
        all nine leave-one-out subsets are equiprobable under the uniform
        proposal, so the exact expectation is enumerable.  The Monte-Carlo
        mean must land inside its 3-sigma band around that value (which sits
        strictly below the full-softmax loss: one partition term is always
        missing)."""
        num_items = 10
        params = make_params(num_items=num_items, dim=4, seed=6)
        marginals = uniform_marginals(num_items)
        batch = examples_of([(0, (0, 3), 7, 0)])
        full = loss_with_gradients(batch, params, FULL_ROW).value

        user = encode_user((0, 3), params)
        logits = [score(user, params.item_embeddings[i], params.temperature) for i in range(num_items)]
        negatives = [i for i in range(num_items) if i != 7]
        loo_losses = []
        for missing in negatives:
            cand = [7] + [i for i in negatives if i != missing]
            den = sum(math.exp(logits[i]) for i in cand)
            loo_losses.append(-math.log(math.exp(logits[7]) / den))
        exact_expectation = sum(loo_losses) / len(loo_losses)
        assert exact_expectation < full  # one term always missing

        rng = np.random.default_rng(2)
        config = LossConfig(family="ssm", num_sampled=8)
        draws = np.array(
            [loss_with_gradients(batch, params, config, marginals=marginals, rng=rng).value for _ in range(10_000)]
        )
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact_expectation) <= 3.0 * stderr
        # and the estimate stays a faithful proxy of the full-vocabulary loss
        assert abs(exact_expectation - full) < 0.25

    def test_positive_never_among_negatives(self):
        num_items = 6
        params = make_params(num_items=num_items, dim=3, seed=7)
        marginals = uniform_marginals(num_items)
        batch = examples_of([(0, (0,), 3, 0)])
        rng = np.random.default_rng(3)
        config = LossConfig(family="ssm", num_sampled=4)
        for _ in range(200):
            out = loss_with_gradients(batch, params, config, marginals=marginals, rng=rng)
            # value is finite and positive; collision would double-count the target
            assert np.isfinite(out.value)

    def test_candidates_follow_successive_sampling(self):
        """On a 6-item vocabulary with one zero-probability item, how often
        each item is among a row's 3 negatives matches its exact inclusion
        probability under successive weighted draws without replacement,
        enumerated over every ordered draw."""
        q = np.array([0.1, 0.3, 0.25, 0.0, 0.2, 0.15])
        positive, num_sampled, rows = 1, 3, 20_000
        eligible = [0, 2, 4, 5]
        inclusion = dict.fromkeys(eligible, 0.0)
        for order in itertools.permutations(eligible, num_sampled):
            p, left = 1.0, sum(q[eligible])
            for item in order:
                p *= q[item] / left
                left -= q[item]
            for item in order:
                inclusion[item] += p
        candidates = _ssm_candidates(np.full(rows, positive), q, num_sampled, np.random.default_rng(8))
        assert candidates.shape == (rows, 1 + num_sampled)
        assert np.all(candidates[:, 0] == positive)
        negatives = candidates[:, 1:]
        assert np.isin(negatives, eligible).all()  # never the positive nor the zero-probability item
        assert np.all(np.diff(np.sort(negatives, axis=1), axis=1) > 0)  # no repeat within a row
        observed = np.bincount(negatives.ravel(), minlength=q.size)[eligible]
        expected = rows * np.array([inclusion[item] for item in eligible])
        assert chisquare(observed, expected * observed.sum() / expected.sum()).pvalue > 0.001

    def test_num_sampled_must_be_below_vocab(self):
        params = make_params(num_items=4)
        with pytest.raises(ValueError, match="vocabulary"):
            loss_with_gradients(
                examples_of([(0, (0,), 1, 0)]),
                params,
                LossConfig(family="ssm", num_sampled=4),
                marginals=uniform_marginals(4),
                rng=np.random.default_rng(0),
            )
        # the marginal proposal covers only the items seen in training
        seen_two = EmpiricalMarginals(np.array([2]), np.array([1, 1, 0, 0]))
        batch = examples_of([(0, (0,), 1, 0)])
        two = LossConfig(family="ssm", num_sampled=2)
        with pytest.raises(ValueError, match="covers 2 items"):
            loss_with_gradients(batch, params, two, marginals=seen_two, rng=np.random.default_rng(0))
        uniform_two = LossConfig(family="ssm", num_sampled=2, ssm_proposal="uniform")
        loss_with_gradients(batch, params, uniform_two, marginals=seen_two, rng=np.random.default_rng(0))
        one = LossConfig(family="ssm", num_sampled=1)
        out = loss_with_gradients(batch, params, one, marginals=seen_two, rng=np.random.default_rng(0))
        assert out.gradients.rows.size

    def test_marginal_proposal_over_a_larger_table(self):
        """Item counts over the first 4 ids of a 6-row table leave the other
        two rows at zero proposal probability."""
        marginals = EmpiricalMarginals(np.array([4]), np.ones(4, dtype=np.int64))
        assert proposal_distribution(marginals, 6, "marginal", 2).tolist() == [0.25] * 4 + [0.0] * 2
        batch = examples_of([(0, (0,), 1, 0)])
        params = make_params(num_items=6)
        config = LossConfig(family="ssm", num_sampled=3)
        out = loss_with_gradients(batch, params, config, marginals=marginals, rng=np.random.default_rng(0))
        assert set(out.gradients.rows.tolist()) == {0, 1, 2, 3}

    def test_a_given_proposal_draws_as_the_built_one(self, monkeypatch):
        """A run builds the proposal once and passes it to every step, which
        then builds none and draws exactly as from its own."""
        params = make_params(num_items=6, dim=3, seed=4)
        marginals = EmpiricalMarginals(np.array([4]), np.array([1, 2, 0, 1, 3, 1]))
        batch = examples_of([(0, (0,), 1, 0), (0, (2, 3), 4, 0)])
        config = LossConfig(family="ssm", num_sampled=3)
        built = loss_with_gradients(batch, params, config, marginals=marginals, rng=np.random.default_rng(5))
        proposal = proposal_distribution(marginals, 6, "marginal", 3)
        monkeypatch.setattr(losses_mod, "proposal_distribution", None)  # a call would fail
        given = loss_with_gradients(
            batch, params, config, marginals=marginals, rng=np.random.default_rng(5), proposal=proposal
        )
        assert given.value == built.value
        assert given.dscore.tobytes() == built.dscore.tobytes()
        assert given.gradients.rows.tolist() == built.gradients.rows.tolist()
        assert given.gradients.values.tobytes() == built.gradients.values.tobytes()

    def test_zero_probability_positive_rejected(self):
        params = make_params(num_items=4)
        # items 0 and 1 seen in training, so one negative can be drawn; the positive 2 was never seen
        marginals = EmpiricalMarginals(np.array([2]), np.array([1, 1, 0, 0]))
        with pytest.raises(ValueError, match="zero proposal"):
            loss_with_gradients(
                examples_of([(0, (0,), 2, 0)]),
                params,
                LossConfig(family="ssm", num_sampled=1),
                marginals=marginals,
                rng=np.random.default_rng(0),
            )


class TestDispatcher:
    def test_every_family_returns_gradients(self):
        params = make_params(num_items=6, dim=3, seed=8)
        marginals = uniform_marginals(6)
        rng = np.random.default_rng(4)
        examples = examples_of([(0, (0, 1), 2, 0), (1, (3,), 4, 0)])
        labeled = examples_of([(0, (0,), 1, 0), (1, (2,), 3, 0)], labels=[1, 0])
        cases = [
            (labeled, LossConfig(family="bce")),
            (examples, LossConfig.from_preset("bbcnce")),
            (examples, LossConfig(family="full_softmax_row")),
            (examples, LossConfig(family="ssm", num_sampled=3)),
        ]
        for batch, config in cases:
            out = loss_with_gradients(batch, params, config, marginals=marginals, rng=rng)
            assert out.gradients is not None and out.gradients.rows.size, config.family
            assert np.isfinite(out.value)

    def test_bidirectional_needs_marginals(self):
        batch = examples_of([(0, (0,), 1, 0), (1, (2,), 3, 0)])
        with pytest.raises(ValueError, match="marginals"):
            loss_with_gradients(batch, make_params(), LossConfig.from_preset("bbcnce"))

    def test_full_softmax_col_needs_marginals(self):
        params = make_params()
        batch = examples_of([(0, (0,), 1, 0)])
        with pytest.raises(ValueError, match="full_softmax_col loss needs the training marginals"):
            loss_with_gradients(batch, params, LossConfig(family="full_softmax_col"))

    def test_full_softmax_col_rejects_an_uncounted_key(self):
        """The universe is the keys the marginals count; a batch key outside it has no softmax row."""
        batch = examples_of([(0, (0,), 1, 0), (1, (2,), 3, 0)])
        only_first = EmpiricalMarginals(np.array([1, 0]), np.ones(6, dtype=np.int64))
        with pytest.raises(ValueError, match="not counted by the training marginals"):
            loss_with_gradients(batch, make_params(), LossConfig(family="full_softmax_col"), marginals=only_first)

    def test_full_softmax_col_value(self):
        params = make_params(num_items=5, dim=3, seed=9)
        universe = [(0,), (1,), (2, 3)]
        # the batch's pseudo-users are keys 1 and 2 of a table holding the universe
        ids = np.array([0, 1])
        batch = Examples(Sequences.of(universe), ids, np.array([1, 2]), np.array([4, 0]), ids * 0, ids * 0 + 1)
        config = LossConfig(family="full_softmax_col")
        universe_counted = EmpiricalMarginals(np.ones(3, dtype=np.int64), np.ones(5, dtype=np.int64))
        out = loss_with_gradients(batch, params, config, marginals=universe_counted)
        # scalar oracle: softmax over the user universe per batch item
        expected = 0.0
        for _, seq, target, _ in example_rows(batch):
            logits = [score(encode_user(key, params), params.item_embeddings[target], 0.25) for key in universe]
            own = universe.index(seq)
            expected += -(logits[own] - math.log(sum(math.exp(l) for l in logits)))
        assert out.value == pytest.approx(expected / 2.0, abs=1e-12)
