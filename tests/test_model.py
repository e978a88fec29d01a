"""Encoders, scoring, and the analytic backward passes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import row_gradient
from reference import (
    encode_user,
    example_rows,
    examples_of,
    reference_accumulate,
    reference_attention_backward,
    score,
)
from twotower.data import Sequences
from twotower.model import (
    DegenerateNormError,
    AGGREGATORS,
    GradientTable,
    ModelParams,
    VocabularyError,
    encode_user_batch,
    finite_norms,
    normalize_rows,
    score_matrix_backward,
    score_matrix_forward,
)


# How far the attention gradient, summed per distinct history item through
# one matrix product, may move from the in-order sum over positions, as a
# share of each entry's sum of absolute terms (``reference_attention_backward``).
# Either order takes at most a few dozen rounding steps per entry on these
# batches (a dot product of d <= 5 terms for each q, a history of <= 6
# positions for each ds, <= 8 sequences and <= 8 columns for each row), each
# worth at most machine epsilon of the bound; over 3,000 random batches the
# largest move was 2 epsilons.
ATTENTION_TOLERANCE = 64 * np.finfo(float).eps


def make_params(num_items=6, dim=4, temperature=0.25, seed=0, aggregator="mean") -> ModelParams:
    return ModelParams.initialize(num_items, dim, temperature, seed, aggregator)


def pair_score(u: np.ndarray, v: np.ndarray, temperature: float) -> float:
    """The kernel's score of a user whose one row is ``u`` against the item row ``v``."""
    params = ModelParams(np.stack([v, u, np.zeros(u.size)]), temperature)
    return float(score_matrix_forward(Sequences.of([(1,)]), [0], params)[0][0, 0])


class TestParams:
    def test_initialization_range(self):
        params = make_params(num_items=100, dim=16)
        bound = 1.0 / 4.0
        assert np.all(np.abs(params.item_embeddings) <= bound)
        assert np.all(params.attention_vector == 0.0)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim"):
            make_params(dim=0)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros((3, 2)), temperature=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("temperature", math.nan, "temperature must be finite"),
            ("temperature", math.inf, "temperature must be finite"),
            ("item_embeddings", math.inf, "item_embeddings must be finite"),
            ("item_embeddings", math.nan, "item_embeddings must be finite"),
            ("attention_vector", -math.inf, "attention_vector must be finite"),
            ("item_embeddings", 1e200, "item_embeddings must be finite"),
            ("attention_vector", 1e200, "attention_vector must be finite"),
        ],
    )
    def test_non_finite_parameters_rejected(self, field, value, message):
        """One NaN or infinite entry anywhere, or one whose square
        overflows the row's norm, and the parameters never exist."""
        table, temperature = np.zeros((4, 2)), 0.25
        if field == "temperature":
            temperature = value
        else:
            {"item_embeddings": table[:-1], "attention_vector": table[-1]}[field].flat[-1] = value
        with pytest.raises(ValueError, match=message):
            ModelParams(table, temperature)

    def test_clone_is_independent(self):
        params = make_params(aggregator="attention")
        other = params.clone()
        other.item_embeddings[0, 0] += 1.0
        assert params.item_embeddings[0, 0] != other.item_embeddings[0, 0]
        assert other.aggregator == "attention"

    @pytest.mark.parametrize("aggregator", ["max", "", "Mean", None])
    def test_unknown_aggregator_rejected(self, aggregator):
        with pytest.raises(ValueError, match="aggregator must be one of"):
            ModelParams(np.zeros((3, 2)), 0.25, aggregator)
        with pytest.raises(ValueError, match="aggregator must be one of"):
            make_params(aggregator=aggregator)


class TestEncodeUser:
    def test_singleton_equals_row_for_every_aggregator(self):
        for aggregator in AGGREGATORS:
            params = make_params(aggregator=aggregator)
            np.testing.assert_allclose(encode_user([3], params), params.item_embeddings[3])

    def test_mean_of_two_rows(self):
        params = make_params()
        out = encode_user([1, 4], params)
        np.testing.assert_allclose(out, (params.item_embeddings[1] + params.item_embeddings[4]) / 2)

    def test_last_picks_final_row(self):
        params = make_params(aggregator="last")
        np.testing.assert_allclose(encode_user([1, 4, 2], params), params.item_embeddings[2])

    def test_attention_with_zero_query_equals_mean(self):
        params = make_params(seed=3, aggregator="attention")
        params.attention_vector[:] = 0.0
        seq = [0, 2, 5, 2]
        np.testing.assert_allclose(encode_user(seq, params), encode_user(seq, dataclasses.replace(params, aggregator="mean")), atol=1e-12)

    def test_attention_weights_follow_query(self):
        params = make_params(seed=1, aggregator="attention")
        params.attention_vector[:] = 10.0 * params.item_embeddings[5]
        out = encode_user([0, 5], params)
        # strong query along row 5 pushes the weight there
        dist_5 = np.linalg.norm(out - params.item_embeddings[5])
        dist_0 = np.linalg.norm(out - params.item_embeddings[0])
        assert dist_5 < dist_0

    def test_oov_raises(self):
        params = make_params()
        with pytest.raises(VocabularyError):
            encode_user([0, 99], params)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            encode_user([], make_params())

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_batch_matches_one_at_a_time(self, aggregator):
        """A pooled vector reads its own rows only: batched with sequences of
        other lengths, it keeps every bit."""
        params = make_params(num_items=9, seed=4, aggregator=aggregator)
        params.attention_vector[:] = np.random.default_rng(2).normal(size=params.dim)
        rng = np.random.default_rng(3)
        sequences = [tuple(rng.integers(0, 9, size=rng.integers(1, 51)).tolist()) for _ in range(12)]
        batch = encode_user_batch(Sequences.of(sequences), params).vectors
        for seq, vector in zip(sequences, batch):
            np.testing.assert_array_equal(vector, encode_user(seq, params))


class TestEncodeItem:
    def test_shared_table_between_towers(self):
        """The item tower is the row lookup ``params.item_embeddings[i]``."""
        params = make_params()
        params.item_embeddings[2] = np.arange(4, dtype=float)
        np.testing.assert_allclose(encode_user([2], params), np.arange(4))


class TestScore:
    """The pair score of ``score_matrix_forward``: a temperature-scaled cosine."""

    def test_identical_vectors(self):
        v = np.array([0.3, -0.2, 0.9])
        assert pair_score(v, v, temperature=0.25) == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert pair_score(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 4.0])
        assert pair_score(u, v, 0.5) == pytest.approx(1.96774, abs=1e-5)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            pair_score(np.zeros(3), np.ones(3), 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            c = rng.uniform(0.01, 100.0)
            assert pair_score(c * u, v, 0.1) == pytest.approx(pair_score(u, v, 0.1), rel=1e-12)

    def test_bounded_by_inverse_temperature(self):
        rng = np.random.default_rng(1)
        for tau in (0.05, 0.25, 1.0):
            for _ in range(100):
                u = rng.normal(size=4)
                v = rng.normal(size=4)
                assert abs(pair_score(u, v, tau)) <= 1.0 / tau + 1e-12


def _batch(params, rng, size):
    rows = []
    for _ in range(size):
        length = int(rng.integers(1, 4))
        seq = tuple(int(x) for x in rng.integers(0, params.num_items, size=length))
        rows.append((0, seq, int(rng.integers(params.num_items)), 0))
    return examples_of(rows)


def score_matrix(batch, params):
    """Entry (r, c) scores the user of example r against the target of example c."""
    return score_matrix_forward(batch.pseudo_users(), batch.target, params)[0]


class TestScoreMatrix:
    def test_single_example_matrix(self):
        params = make_params()
        batch = examples_of([(0, (1, 2), 4, 0)])
        mat = score_matrix(batch, params)
        assert mat.shape == (1, 1)
        u = encode_user((1, 2), params)
        assert mat[0, 0] == pytest.approx(score(u, params.item_embeddings[4], params.temperature), abs=1e-12)

    def test_entries_match_independent_scores(self):
        params = make_params(seed=5)
        rng = np.random.default_rng(2)
        batch = _batch(params, rng, 4)
        mat = score_matrix(batch, params)
        for r, (_, seq, _, _) in enumerate(example_rows(batch)):
            u = encode_user(seq, params)
            for c, (_, _, target, _) in enumerate(example_rows(batch)):
                expected = score(u, params.item_embeddings[target], params.temperature)
                assert mat[r, c] == pytest.approx(expected, abs=1e-12)

    def test_permutation_consistency(self):
        params = make_params(seed=6)
        rng = np.random.default_rng(3)
        batch = _batch(params, rng, 5)
        mat = score_matrix(batch, params)
        perm = [3, 0, 4, 1, 2]
        permuted = score_matrix(batch.take(perm), params)
        np.testing.assert_allclose(permuted, mat[np.ix_(perm, perm)], atol=1e-14)

    def test_diagonal_is_positive_pair_scores(self):
        params = make_params(seed=7, aggregator="attention")
        rng = np.random.default_rng(4)
        batch = _batch(params, rng, 6)
        mat = score_matrix(batch, params)
        for r, (_, seq, target, _) in enumerate(example_rows(batch)):
            u = encode_user(seq, params)
            assert mat[r, r] == pytest.approx(score(u, params.item_embeddings[target], params.temperature))

    def test_scores_bounded(self):
        params = make_params(seed=8, temperature=0.1)
        batch = _batch(params, np.random.default_rng(5), 8)
        mat = score_matrix(batch, params)
        assert np.all(np.abs(mat) <= 10.0 + 1e-9)


class TestSharedRowGradients:
    def test_gradient_touches_only_batch_rows(self):
        params = make_params(num_items=10, seed=9)
        sequences = Sequences.of([(0, 1), (2,)])
        targets = [3, 4]
        phi, cache = score_matrix_forward(sequences, targets, params)
        grads = score_matrix_backward(cache, np.ones_like(phi), params)
        assert set(grads.rows) == {0, 1, 2, 3, 4}

    def test_step_changes_touched_row_only(self):
        params = make_params(num_items=8, seed=10)
        phi, cache = score_matrix_forward(Sequences.of([(0,)]), [1], params)
        grads = score_matrix_backward(cache, np.ones_like(phi), params)
        before = params.item_embeddings.copy()
        for row, g in zip(grads.rows, grads.values):
            params.item_embeddings[row] -= 0.1 * g
        changed = np.where(np.any(params.item_embeddings != before, axis=1))[0]
        assert set(changed.tolist()) == {0, 1}

    def test_repeated_item_in_sequence_accumulates(self):
        params = make_params(num_items=5, seed=11)
        phi_a, cache_a = score_matrix_forward(Sequences.of([(0, 0)]), [1], params)
        grads_a = score_matrix_backward(cache_a, np.ones_like(phi_a), params)
        phi_b, cache_b = score_matrix_forward(Sequences.of([(0,)]), [1], params)
        grads_b = score_matrix_backward(cache_b, np.ones_like(phi_b), params)
        np.testing.assert_allclose(row_gradient(grads_a, 0), row_gradient(grads_b, 0), atol=1e-12)
        assert np.any(row_gradient(grads_b, 0) != 0.0)

    @pytest.mark.parametrize("aggregator", ["mean", "last", "attention"])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_shared_row_sums_its_occurrences(self, aggregator, per_row):
        """Item 2 is a duplicate target and repeats inside one history.  Its
        gradient must equal the sum over an untied table in which every
        occurrence reads its own copy of row 2 (the chain rule for a shared
        parameter), under both kernel branches.  The sum is exact when taken
        in the kernel's order: target columns first, then history positions
        in batch order, which is the order the copies are numbered in.
        Attention pooling sums a shared row's history positions per item,
        not in that order, so there the two agree to ``ATTENTION_TOLERANCE``."""
        params = make_params(num_items=6, seed=12, aggregator=aggregator)
        params.attention_vector[:] = np.random.default_rng(0).normal(size=params.dim)
        sequences = [(2, 0, 2), (1,), (3, 2)]
        targets = np.array([[2, 4], [2, 5], [0, 2]]) if per_row else np.array([2, 4, 2])
        dphi = np.random.default_rng(1).normal(size=targets.shape if per_row else (3, 3))

        # Give every occurrence of item 2 its own row: a copy appended to the table.
        copies = iter(range(params.num_items, params.num_items + 7))

        def untie(ids):
            return [next(copies) if i == 2 else i for i in ids]

        untied_targets = np.array([untie(row) for row in targets]) if per_row else np.array(untie(targets))
        untied_sequences = [tuple(untie(seq)) for seq in sequences]
        extra = np.repeat(params.item_embeddings[2:3], 7, axis=0)
        untied = ModelParams(
            np.vstack([params.item_embeddings, extra, params.attention_vector]), params.temperature, aggregator
        )

        phi, cache = score_matrix_forward(Sequences.of(sequences), targets, params)
        phi_u, cache_u = score_matrix_forward(Sequences.of(untied_sequences), untied_targets, untied)
        np.testing.assert_array_equal(phi_u, phi)
        bound = None  # under attention, each entry's bound on the rows of the in-order sum
        if aggregator == "attention":
            in_order, magnitude = reference_attention_backward(cache, dphi, params)
            bound = GradientTable(in_order.rows, magnitude)
        tied = score_matrix_backward(cache, dphi, params)
        split = score_matrix_backward(cache_u, dphi, untied)
        reference = np.zeros(params.dim)
        for r in range(params.num_items, params.num_items + 7):
            reference = reference + row_gradient(split, r)
        assert np.any(reference != 0.0)
        expected = {2: reference} | {r: row_gradient(split, r) for r in (0, 1, 3, 4, 5)}
        if aggregator == "attention":
            expected[params.num_items] = row_gradient(split, untied.num_items)
        for r, row in expected.items():
            if bound is None:
                np.testing.assert_array_equal(row_gradient(tied, r), row)
            else:
                assert np.all(np.abs(row_gradient(tied, r) - row) <= ATTENTION_TOLERANCE * row_gradient(bound, r))


class TestAttentionBackward:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        vocabulary=st.integers(1, 12),
        all_distinct=st.booleans(),
        per_row=st.booleans(),
        width=st.integers(1, 8),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[3, 1], vocabulary=2, all_distinct=False, per_row=False, width=3, dim=3, seed=1)
    @example(lengths=[4, 2, 3], vocabulary=9, all_distinct=True, per_row=True, width=2, dim=4, seed=2)
    def test_matches_the_in_order_sum(self, lengths, vocabulary, all_distinct, per_row, width, dim, seed):
        """The per-item sum through ``(R, B)`` has the rows of the in-order
        sum and values within the tolerance.  Histories repeat items (a
        small vocabulary) or hold ``R = N`` distinct ones, columns repeat
        targets and are shared or per row."""
        rng = np.random.default_rng(seed)
        size = sum(lengths)
        num_items = size if all_distinct else vocabulary
        items = rng.permutation(num_items) if all_distinct else rng.integers(0, num_items, size=size)
        sequences = Sequences(np.r_[0, np.cumsum(lengths)], items.astype(np.int64))
        params = ModelParams.initialize(num_items, dim, 0.1, seed, "attention")
        params.attention_vector[:] = rng.normal(size=dim)
        shape = (len(lengths), width) if per_row else (width,)
        phi, cache = score_matrix_forward(sequences, rng.integers(0, num_items, size=shape), params)
        dphi = rng.normal(size=phi.shape)
        expected, bound = reference_attention_backward(cache, dphi, params)
        table = score_matrix_backward(cache, dphi, params)
        assert table.rows.dtype == expected.rows.dtype and np.array_equal(table.rows, expected.rows)
        assert np.all(np.abs(table.values - expected.values) <= ATTENTION_TOLERANCE * bound)


class TestGradientTable:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        ids=st.one_of(
            st.lists(st.integers(0, 40), max_size=30),  # repeats and gaps
            st.lists(st.sampled_from([0, 7, 1_199]), max_size=12),  # wide gaps
            st.integers(0, 40).map(lambda i: [i]),  # a single id
            st.just([]),  # an empty batch
        ),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accumulate_matches_the_sort_based_reference(self, ids, dim, seed):
        """Rows and summed gradients, bit for bit, equal those of the
        ``np.unique`` version it replaced."""
        ids = np.array(ids, dtype=np.int64)
        grads = np.random.default_rng(seed).normal(size=(ids.size, dim))
        table = GradientTable.accumulate(ids, grads)
        rows, values = reference_accumulate(ids, grads)
        assert table.rows.dtype == rows.dtype
        assert np.array_equal(table.rows, rows)
        assert table.values.shape == values.shape
        assert table.values.tobytes() == values.tobytes()


class TestNormalizeRows:
    @pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 3)])
    def test_norms_match_linalg_norm_bit_for_bit(self, shape):
        x = np.random.default_rng(len(shape)).normal(size=shape) * 10.0 ** np.arange(shape[-1])
        unit, norms = normalize_rows(x)
        expected = np.linalg.norm(x, axis=-1)
        assert norms.tobytes() == expected.tobytes()
        assert unit.tobytes() == (x / expected[..., None]).tobytes()

    def test_zero_row_rejected(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(ValueError, match="zero-norm"):
            normalize_rows(x)

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_non_finite_norm_rejected(self, entry):
        """A row whose square overflows would score as a zero vector
        (``x / inf``); it is refused, as are infinite and NaN rows."""
        x = np.ones((3, 4))
        x[2, 1] = entry
        assert not finite_norms(x)
        with np.errstate(over="ignore"), pytest.raises(DegenerateNormError, match="non-finite norm"):
            normalize_rows(x)

    def test_finite_norms(self):
        assert finite_norms(np.zeros((2, 3))) and finite_norms(np.full((2, 3), 1e150))
        assert finite_norms(np.empty((0, 3)))
        assert not finite_norms(np.full((2, 3), 1e155))
