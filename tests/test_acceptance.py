"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The synthetic optimum sweep (criteria 3-4) trains
every loss configuration on the default 8x12 synthetic setup over sample
seeds 1-13 in one stack, and is shared between the two tests.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from reference import events_of, examples_of, identity_cells, sample_events, sample_examples
from test_gradients import FAMILIES, check_family
from twotower.cli import main
from twotower.config import VerifySection
from twotower.data import DAYS_PER_MONTH, compute_marginals
from twotower.evaluation import (
    EvalCases,
    EvalPool,
    evaluate,
    popularity_counts,
    popularity_stats,
    rank_metrics,
)
from twotower.losses import LossConfig, bidirectional_nce_loss, loss_with_gradients
from twotower.model import ModelParams
from twotower.trainer import TrainConfig, load_checkpoint, train_incremental
from twotower.verify import (
    SyntheticSpec,
    dense_forward,
    generate_synthetic,
    random_joint,
    run_table_sweep,
    train_to_optimum,
)


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {criterion}: {name} {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for family in FAMILIES:
        for instance in range(20):
            err = check_family(family, "attention", instance_seed=1000 + instance)
            worst = max(worst, err)
    elapsed = time.time() - start
    report(
        1,
        "gradients match finite differences on 20 toys per family",
        worst <= 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: Recall@N / NDCG@N against an independent brute force
# ---------------------------------------------------------------------------


def brute_recall(ranking, positives, cutoff):
    hits = 0
    for candidate in list(ranking)[:cutoff]:
        if candidate in positives:
            hits += 1
    return hits / (1.0 * min(len(positives), cutoff))


def brute_ndcg(ranking, positives, cutoff):
    dcg = 0.0
    rank = 0
    for candidate in list(ranking)[:cutoff]:
        rank += 1
        if candidate in positives:
            dcg += math.log(2.0) / math.log(rank + 1.0)
    ideal = 0.0
    for rank in range(1, min(len(positives), cutoff) + 1):
        ideal += math.log(2.0) / math.log(rank + 1.0)
    return dcg / ideal


def test_criterion_2_metric_oracles():
    """1000 random one-positive cases; the metrics of each cutoff's cases
    come from one columnar ``rank_metrics`` call."""
    start = time.time()
    rng = np.random.default_rng(20)
    cases = []
    for _ in range(1000):
        pool = int(rng.integers(3, 40))
        cutoff = int(rng.integers(1, pool + 4))
        positive = int(rng.integers(pool))
        ranking = [int(x) for x in rng.permutation(pool)]
        cases.append((cutoff, positive, ranking))
    worst = 0.0
    for cutoff in sorted({case[0] for case in cases}):
        chosen = [(positive, ranking) for n, positive, ranking in cases if n == cutoff]
        recall, ndcg = rank_metrics(np.array([ranking.index(positive) for positive, ranking in chosen]), cutoff)
        for (positive, ranking), r, n in zip(chosen, recall.tolist(), ndcg.tolist()):
            worst = max(worst, abs(r - brute_recall(ranking, {positive}, cutoff)))
            worst = max(worst, abs(n - brute_ndcg(ranking, {positive}, cutoff)))
    elapsed = time.time() - start
    report(
        2,
        "Recall@N and NDCG@N agree with brute force on 1000 cases",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criteria 3-4: the optimum sweep on the default synthetic setup
# ---------------------------------------------------------------------------


SWEEP_SEEDS = tuple(range(1, 14))


@pytest.fixture(scope="module")
def sweep():
    defaults = VerifySection()
    spec = SyntheticSpec(
        num_users=defaults.num_users,
        num_items=defaults.num_items,
        joint=random_joint(
            defaults.num_users,
            defaults.num_items,
            seed=defaults.table_seed,
            table_rank=defaults.table_rank,
            sparsity=defaults.sparsity,
        ),
        num_samples=defaults.num_samples,
    )
    start = time.time()
    result = run_table_sweep(
        spec,
        seeds=SWEEP_SEEDS,
        dim=defaults.dim,
        temperature=defaults.temperature,
        epochs=defaults.epochs,
        learning_rate=defaults.learning_rate,
    )
    return result, time.time() - start


MULTINOMIAL_TARGETS = {
    "bbcnce": "log p(u,i)",
    "row_bcnce": "log p(i|u)",
    "col_bcnce": "log p(u|i)",
    "infonce": "pmi",
    "simclr": "pmi",
    "ssm": "log p(i|u)",
}


def test_criterion_3_multinomial_optima(sweep):
    result, elapsed = sweep
    ok = elapsed < 600.0
    ok &= len(result.reports) == len(SWEEP_SEEDS) * 10  # ten gated configurations per seed
    details = []
    for row in result.reports:
        if row.label not in MULTINOMIAL_TARGETS:
            continue
        ok &= row.target_name == MULTINOMIAL_TARGETS[row.label]
        ok &= row.rank_correlation_gauged >= 0.95 and row.residual_gauged <= 0.25
        ok &= row.range_ok
        if row.gauge == "none":  # two-sided losses pin a single constant
            ok &= row.rank_correlation >= 0.95 and row.residual <= 0.25
        details.append(f"{row.label}/s{row.seed}:rho={row.rank_correlation_gauged:.3f},res={row.residual_gauged:.3f}")
    report(3, "every multinomial configuration reaches its predicted optimum", ok, f"{elapsed:.0f}s sweep")


def test_criterion_4_bce_optima(sweep):
    result, _ = sweep
    ok = True
    for row in result.reports:
        if not row.label.startswith("bce/"):
            continue
        # binary-label losses pin the table absolutely: literal single-constant gates
        ok &= row.rank_correlation >= 0.95 and row.residual <= 0.25
    joint_agreements = [
        a for a in result.agreements if {a.label_a, a.label_b} == {"bce/uniform", "bbcnce"}
    ]
    ok &= len(joint_agreements) == len(SWEEP_SEEDS)  # one per seed
    ok &= all(a.rank_correlation >= 0.9 for a in joint_agreements)
    # every equal-optimum group agrees pairwise
    ok &= all(a.rank_correlation >= 0.9 for a in result.agreements)
    worst_group = min(a.rank_correlation for a in result.agreements)
    report(
        4,
        "BCE strategies reach their optima; uniform-BCE ranks agree with bbcNCE",
        ok,
        f"min group agreement {worst_group:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: preset identities
# ---------------------------------------------------------------------------


def test_criterion_5_preset_identities():
    rng = np.random.default_rng(5)
    exact = True
    cancel = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 9))
        phi = rng.normal(size=(size, size)) * rng.uniform(0.5, 3.0)
        eye = identity_cells(phi)
        log_p_u = np.log(rng.dirichlet(np.ones(size)))
        log_p_i = np.log(rng.dirichlet(np.ones(size)))
        simclr, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("simclr"))
        row, _ = bidirectional_nce_loss(phi, *eye, log_p_u, log_p_i, LossConfig.from_preset("infonce"))
        col, _ = bidirectional_nce_loss(
            phi, *eye, log_p_u, log_p_i, LossConfig(family="bidirectional", alpha=0, beta=1, delta_alpha=0, delta_beta=0)
        )
        exact &= simclr == row + col
        uniform = np.full(size, -math.log(size))
        with_bias, _ = bidirectional_nce_loss(phi, *eye, uniform, uniform, LossConfig.from_preset("bbcnce"))
        without, _ = bidirectional_nce_loss(phi, *eye, uniform, uniform, LossConfig.from_preset("simclr"))
        cancel = max(cancel, abs(with_bias - without))
    report(
        5,
        "SimCLR = row + column exactly; delta toggles cancel under uniform marginals",
        exact and cancel < 1e-9,
        f"max bias-shift effect {cancel:.1e}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: sampled softmax exactness limit
# ---------------------------------------------------------------------------


def test_criterion_6_ssm_exactness():
    from twotower.data import EmpiricalMarginals

    num_items = 5
    params = ModelParams.initialize(num_items, 4, temperature=0.2, seed=6)
    marginals = EmpiricalMarginals(np.array([num_items]), np.ones(num_items, dtype=np.int64))
    exhaustive = LossConfig(family="ssm", num_sampled=num_items - 1)
    worst = 0.0
    rng = np.random.default_rng(0)
    for seed in range(10):
        batch = examples_of(
            [
                (0, tuple(int(x) for x in rng.integers(0, num_items, size=rng.integers(1, 4))), int(rng.integers(num_items)), 0)
                for _ in range(3)
            ]
        )
        sampler = np.random.default_rng(seed)
        sampled = loss_with_gradients(batch, params, exhaustive, marginals=marginals, rng=sampler)
        full = loss_with_gradients(batch, params, LossConfig(family="full_softmax_row"))
        worst = max(worst, abs(sampled.value - full.value))
    report(6, "SSM with num_sampled = K-1 equals the full softmax", worst <= 1e-9, f"max gap {worst:.1e}")


# ---------------------------------------------------------------------------
# Criterion 7: incremental training beats shuffled under drift
# ---------------------------------------------------------------------------


def drifting_spec(num_months=6):
    """Monotone drift: the joint interpolates between two contrasting tables."""
    start = random_joint(8, 12, seed=77, table_rank=1, sparsity=0.5)
    end = random_joint(8, 12, seed=178, table_rank=1, sparsity=0.5)
    drift = []
    for m in range(num_months):
        lam = m / (num_months - 1)
        table = (1.0 - lam) * start + lam * end
        drift.append(table / table.sum())
    return SyntheticSpec(num_users=8, num_items=12, drift=drift, num_months=num_months, num_samples=30_000)


def final_month_cases(spec: SyntheticSpec, seed: int, cutoff: int = 5):
    """Held-out draws from the final month's joint, all items as candidates."""
    final = SyntheticSpec(num_users=8, num_items=12, joint=spec.drift[-1], num_samples=400, num_months=1)
    examples = sample_examples(generate_synthetic(final, seed=seed + 9000))
    candidates = np.tile(np.arange(12), (len(examples), 1))
    return EvalCases("ir", cutoff, examples.key, examples.target, candidates), EvalPool(examples.table)


def run_drift_experiment(seed: int):
    spec = drifting_spec()
    sample = generate_synthetic(spec, seed=seed)
    examples = sample_examples(sample)
    marginals = compute_marginals(examples, spec.num_items + spec.num_users)
    cases, pool = final_month_cases(spec, seed)

    def eval_fn(params, month):
        rep = evaluate(cases, pool, params)
        return {"ndcg": rep.ndcg_at_n}

    config = TrainConfig(epochs_per_month=2, batch_size=128, learning_rate=0.01, optimizer="adam", seed=seed)
    loss = LossConfig.from_preset("bbcnce")

    params_inc = ModelParams.initialize(spec.num_items + spec.num_users, 8, 0.1, seed)
    inc = train_incremental(
        examples, params_inc, loss, config, marginals=marginals, eval_fn=eval_fn
    )
    trace = [row["ndcg"] for row in inc.trace]

    params_shuf = ModelParams.initialize(spec.num_items + spec.num_users, 8, 0.1, seed)
    shuffled = dataclasses.replace(config, mode="shuffled")
    train_incremental(examples, params_shuf, loss, shuffled, marginals=marginals)
    shuf_ndcg = evaluate(cases, pool, params_shuf).ndcg_at_n
    return trace, shuf_ndcg


def test_criterion_7_incremental_benefit():
    start = time.time()
    seeds = (1, 2, 3, 4, 5)
    traces = []
    finals_inc = []
    finals_shuf = []
    for seed in seeds:
        trace, shuf = run_drift_experiment(seed)
        traces.append(trace)
        finals_inc.append(trace[-1])
        finals_shuf.append(shuf)
    mean_trace = np.mean(np.array(traces), axis=0)
    transitions = np.diff(mean_trace)
    non_decreasing = int(np.sum(transitions >= 0))
    mean_inc = float(np.mean(finals_inc))
    mean_shuf = float(np.mean(finals_shuf))
    elapsed = time.time() - start
    report(
        7,
        "incremental beats shuffled on drifting data and the trace rises",
        mean_inc >= mean_shuf and non_decreasing >= 4 and elapsed < 600.0,
        f"incremental {mean_inc:.3f} vs shuffled {mean_shuf:.3f}; "
        f"{non_decreasing}/5 transitions non-decreasing; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: popularity suppression direction
# ---------------------------------------------------------------------------


def skewed_spec(seed: int) -> SyntheticSpec:
    base = random_joint(8, 12, seed=seed, table_rank=2, sparsity=0.2)
    zipf = 1.0 / np.arange(1, 13) ** 1.2
    joint = base * zipf[None, :]
    return SyntheticSpec(num_users=8, num_items=12, joint=joint / joint.sum(), num_samples=60_000, num_months=2)


def test_criterion_8_popularity_direction():
    medians = {"infonce": [], "bbcnce": []}
    for seed in (1, 2, 3):
        spec = skewed_spec(100 + seed)
        sample = generate_synthetic(spec, seed=seed)
        tables = sample.tables
        item_counts, _ = popularity_counts(events_of(sample_events(sample)), anchor_day=spec.num_months * DAYS_PER_MONTH, window_days=365)
        presets = ("infonce", "bbcnce")
        [trained] = train_to_optimum([LossConfig.from_preset(preset) for preset in presets], [(seed, tables)], spec)
        _, _, cos = dense_forward(trained, spec.num_items)
        for preset, phi in zip(presets, cos):
            top_lists = []
            for u in range(spec.num_users):
                order = sorted(range(spec.num_items), key=lambda i: (-phi[u, i], i))[:5]
                top_lists.append(order)
            median, _ = popularity_stats(np.array(top_lists), item_counts)
            medians[preset].append(median)
    mean_infonce = float(np.mean(medians["infonce"]))
    mean_bbc = float(np.mean(medians["bbcnce"]))
    report(
        8,
        "InfoNCE retrieves less popular items than bbcNCE on skewed data",
        mean_infonce <= mean_bbc,
        f"median popularity {mean_infonce:.0f} (infonce) vs {mean_bbc:.0f} (bbcnce)",
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism and checkpoint round-trip
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    spec = SyntheticSpec(
        num_users=5, num_items=12, joint=random_joint(5, 12, seed=9, table_rank=2, sparsity=0.6),
        num_samples=2_000, num_months=3,
    )
    sample = generate_synthetic(spec, seed=5)
    examples = sample_examples(sample)
    marginals = compute_marginals(examples, spec.num_items + spec.num_users)
    months = sorted(set(examples.month.tolist()))
    config = TrainConfig(epochs_per_month=2, batch_size=64, learning_rate=1e-3, seed=17)
    loss = LossConfig.from_preset("bbcnce")

    def init():
        return ModelParams.initialize(spec.num_items + spec.num_users, 4, 0.2, 11)

    full_dir = str(tmp_path / "full")
    params_full = init()
    train_incremental(
        examples, params_full, loss, config,
        marginals=marginals, checkpoint_dir=full_dir, fingerprint=1,
    )

    # resume a fresh model from the first month's checkpoint of the full run
    part_dir = str(tmp_path / "part")
    params_part = init()
    resume = load_checkpoint(os.path.join(full_dir, f"month_{months[0]:04d}.ckpt"), expected_fingerprint=1)
    train_incremental(
        examples, params_part, loss, config,
        marginals=marginals, checkpoint_dir=part_dir, fingerprint=1, resume=resume,
    )
    bit_identical = bool(
        np.array_equal(params_part.item_embeddings, params_full.item_embeddings)
        and np.array_equal(params_part.attention_vector, params_full.attention_vector)
    )
    final = f"month_{months[-1]:04d}.ckpt"
    same_bytes = open(os.path.join(part_dir, final), "rb").read() == open(os.path.join(full_dir, final), "rb").read()

    # repeated CLI runs produce byte-identical artifacts
    events = tmp_path / "events.csv"
    with open(events, "w", encoding="utf-8") as out:
        for user, item, day in sample_events(sample):
            out.write(f"u{user},i{item},{day}\n")
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / f"cli_{run}"
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "seed = 3",
                    f"data.input = {events}",
                    "data.min_degree = 1",
                    "model.dim = 6",
                    "train.epochs_per_month = 1",
                    "eval.num_negatives = 2",
                    "eval.top_n = 3",
                    f"paths.output_dir = {out_dir}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoints" / "final.ckpt")]) == 0
        outputs.append((out_dir / "eval_report.json").read_bytes())
    reports_identical = outputs[0] == outputs[1]

    report(
        9,
        "interrupted+resumed training is bit-identical; repeated reports byte-identical",
        bit_identical and same_bytes and reports_identical,
    )


# ---------------------------------------------------------------------------
# Criterion 10 (optional, not gating): Amazon 5-core end to end
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "TWOTOWER_AMAZON_PATH" not in os.environ,
    reason="optional: set TWOTOWER_AMAZON_PATH to an Amazon 5-core ratings CSV to run",
)
def test_criterion_10_amazon_reduced_scale(tmp_path):
    source = os.environ["TWOTOWER_AMAZON_PATH"]
    out_dir = tmp_path / "amazon"
    cfg = tmp_path / "amazon.cfg"
    cfg.write_text(
        "\n".join(
            [
                "seed = 1",
                f"data.input = {source}",
                "train.epochs_per_month = 1",
                f"paths.output_dir = {out_dir}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoints" / "final.ckpt")]) == 0
    payload = (out_dir / "eval_report.json").read_text()
    assert "recall_at_n" in payload
    report(10, "public-data pipeline runs end to end", True)
