"""Analytic gradients against the finite-difference oracle."""

import math

import numpy as np
import pytest

from gradcheck import max_relative_error, numeric_gradient
from reference import examples_of
from twotower.data import EmpiricalMarginals, Examples
from twotower.losses import LossConfig, loss_with_gradients
from twotower.model import ModelParams

NUM_ITEMS = 6
DIM = 4
BATCH = 3


def small_params(rng: np.random.Generator, scale: float = 1e-2, aggregator: str = "mean") -> ModelParams:
    params = ModelParams.initialize(NUM_ITEMS, DIM, temperature=0.25, seed=0, aggregator=aggregator)
    params.item_embeddings[:] = rng.uniform(-1.0, 1.0, size=(NUM_ITEMS, DIM)) * scale
    params.attention_vector[:] = rng.uniform(-1.0, 1.0, size=DIM) * scale
    return params


def bias_marginals(batch: Examples, log_p_user: dict, log_p_item: dict) -> EmpiricalMarginals:
    """Marginals that hold just the given bias terms of pseudo-users and
    items (their counts are not read); any other key or item gets a floor."""
    floor = -math.log(BATCH + 1)
    marginals = EmpiricalMarginals(np.ones(len(batch.table), dtype=np.int64), np.ones(NUM_ITEMS, dtype=np.int64))
    marginals.log_p_user = np.array([log_p_user.get(key, floor) for key in batch.table])
    marginals.log_p_item = np.array([log_p_item.get(item, floor) for item in range(NUM_ITEMS)])
    return marginals


def random_batch(rng: np.random.Generator, extra_keys=()) -> tuple[Examples, EmpiricalMarginals]:
    """A batch and marginals with arbitrary (valid) log-probabilities for its
    keys; the batch's key table also holds ``extra_keys``."""
    rows, log_p_user, log_p_item = [], {}, {}
    for _ in range(BATCH):
        length = int(rng.integers(1, 4))
        seq = tuple(int(x) for x in rng.integers(0, NUM_ITEMS, size=length))
        target = int(rng.integers(NUM_ITEMS))
        log_p_user[seq] = float(np.log(rng.uniform(0.05, 0.8)))
        log_p_item[target] = float(np.log(rng.uniform(0.05, 0.8)))
        rows.append((0, seq, target, 0))
    batch = examples_of(rows, extra_keys=extra_keys)
    return batch, bias_marginals(batch, log_p_user, log_p_item)


def random_labeled(rng: np.random.Generator) -> Examples:
    rows = []
    for _ in range(BATCH):
        length = int(rng.integers(1, 4))
        seq = tuple(int(x) for x in rng.integers(0, NUM_ITEMS, size=length))
        rows.append((0, seq, int(rng.integers(NUM_ITEMS)), 0))
    return examples_of(rows, labels=[k % 2 for k in range(BATCH)])


def uniform_marginals() -> EmpiricalMarginals:
    return EmpiricalMarginals(np.array([NUM_ITEMS]), np.ones(NUM_ITEMS, dtype=np.int64))


def family_case(family: str, rng: np.random.Generator):
    """(batch, config, extra kwargs builder) for one loss family."""
    if family == "bce":
        return random_labeled(rng), LossConfig(family="bce"), {}
    if family == "bidirectional":
        batch, marginals = random_batch(rng)
        return batch, LossConfig.from_preset("bbcnce"), {"marginals": marginals}
    if family == "full_softmax_row":
        return random_batch(rng)[0], LossConfig(family="full_softmax_row"), {}
    if family == "full_softmax_col":
        batch, marginals = random_batch(rng, extra_keys=[(0,), (1, 2)])  # counts every key of the table
        return batch, LossConfig(family="full_softmax_col"), {"marginals": marginals}
    if family == "ssm":
        seed = int(rng.integers(2**31))
        batch = random_batch(rng)[0]
        config = LossConfig(family="ssm", num_sampled=2)
        return batch, config, {"marginals": uniform_marginals(), "ssm_seed": seed}
    raise AssertionError(family)


def check_family(family: str, aggregator: str, instance_seed: int) -> float:
    rng = np.random.default_rng(instance_seed)
    params = small_params(rng, aggregator=aggregator)
    batch, config, extra = family_case(family, rng)
    ssm_seed = extra.pop("ssm_seed", None)

    def evaluate():
        kwargs = dict(extra)
        if ssm_seed is not None:
            kwargs["rng"] = np.random.default_rng(ssm_seed)
        return loss_with_gradients(batch, params, config, **kwargs)

    analytic = evaluate().gradients
    rows = sorted({*analytic.rows.tolist(), params.num_items})  # the attention row, whether or not pooling reads it
    numeric = numeric_gradient(lambda: evaluate().value, params, rows)
    return max_relative_error(analytic, numeric)


FAMILIES = ("bce", "bidirectional", "full_softmax_row", "full_softmax_col", "ssm")


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_with_attention_aggregator(self, family):
        for seed in (1, 2, 3):
            err = check_family(family, "attention", seed)
            assert err <= 1e-4, f"{family} seed {seed}: max rel err {err:.2e}"

    @pytest.mark.parametrize("aggregator", ["mean", "last"])
    def test_other_aggregators(self, aggregator):
        for family in FAMILIES:
            err = check_family(family, aggregator, 7)
            assert err <= 1e-4, f"{family}/{aggregator}: max rel err {err:.2e}"


class TestSharingEdgeCases:
    def test_duplicate_targets_in_batch(self):
        """Two positives sharing one target accumulate into a single row."""
        rng = np.random.default_rng(99)
        params = small_params(rng)
        batch = examples_of([(0, (0, 1), 5, 0), (1, (2,), 5, 0), (2, (3, 5), 4, 0)])
        marginals = bias_marginals(
            batch,
            {(0, 1): math.log(0.4), (2,): math.log(0.6), (3, 5): math.log(0.2)}, {5: math.log(0.3), 4: math.log(0.4)}
        )
        config = LossConfig.from_preset("bbcnce")

        def evaluate():
            return loss_with_gradients(batch, params, config, marginals=marginals)

        analytic = evaluate().gradients
        numeric = numeric_gradient(lambda: evaluate().value, params, sorted(analytic.rows))
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_repeated_item_under_attention(self):
        """An item repeated inside one sequence gets both position gradients."""
        rng = np.random.default_rng(98)
        params = small_params(rng, aggregator="attention")
        batch = examples_of([(0, (4, 4, 1), 2, 0), (1, (0, 4), 3, 0)])
        half = math.log(0.5)
        marginals = bias_marginals(batch, {(4, 4, 1): half, (0, 4): half}, {2: half, 3: half})
        config = LossConfig.from_preset("simclr")

        def evaluate():
            return loss_with_gradients(batch, params, config, marginals=marginals)

        analytic = evaluate().gradients
        numeric = numeric_gradient(lambda: evaluate().value, params, sorted({*analytic.rows.tolist(), params.num_items}))
        assert max_relative_error(analytic, numeric) <= 1e-4


class TestCriticalPoint:
    def test_symmetric_batch_under_simclr_is_stationary(self):
        """All-equal embeddings: every score is 1/tau, the softmax terms are
        uniform, the score gradient sums to zero, and the parameter gradient
        vanishes (normalized identical vectors have no tangential pull)."""
        params = ModelParams.initialize(4, 3, temperature=0.5, seed=0)
        params.item_embeddings[:] = np.ones((4, 3)) * 0.2
        batch = examples_of([(0, (0,), 1, 0), (1, (2,), 3, 0)])
        quarter = math.log(0.25)
        marginals = bias_marginals(batch, {(0,): quarter, (2,): quarter}, {1: quarter, 3: quarter})
        out = loss_with_gradients(batch, params, LossConfig.from_preset("simclr"), marginals=marginals)
        assert abs(np.asarray(out.dscore).sum()) < 1e-12
        for grad in out.gradients.values:
            np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_bce_logit_slope_at_zero(self):
        params = ModelParams.initialize(2, 2, temperature=1.0, seed=0)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = loss_with_gradients(examples_of([(0, (0,), 1, 0)], labels=[1]), params, LossConfig(family="bce"))
        assert out.dscore[0] == pytest.approx(-0.5, abs=1e-12)
