"""Optimizers, checkpoint format, and the incremental training loop."""

import dataclasses
import os
import struct
import zlib

import numpy as np
import pytest

from reference import example_rows, examples_of, sample_examples
from twotower import container
from twotower import trainer as trainer_mod
from twotower.data import EmpiricalMarginals, compute_marginals
from twotower.losses import LossConfig, loss_with_gradients
from twotower.model import GradientTable, ModelParams
from twotower.trainer import (
    Checkpoint,
    CheckpointError,
    NonFiniteGradientError,
    NonFiniteLossError,
    OptimizerState,
    TrainConfig,
    apply_optimizer_step,
    load_checkpoint,
    save_checkpoint,
    train_incremental,
)
from twotower.verify import SyntheticSpec, generate_synthetic, random_joint



def grads_of(rows: dict[int, list[float]]) -> GradientTable:
    ids = sorted(rows)
    return GradientTable(np.array(ids, dtype=np.int64), np.array([rows[r] for r in ids], dtype=float))


def resealed(blob: bytes) -> bytes:
    """``blob`` with its CRC-32 trailer recomputed over the bytes before it."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def rewritten(source: str, path: str, **fields) -> str:
    """The checkpoint at ``source`` written to ``path`` through
    ``container.write``, under its own tag, with ``fields`` set in its
    metadata: a file whose checksum is valid."""
    magic, version = trainer_mod.CHECKPOINT_MAGIC, trainer_mod.CHECKPOINT_VERSION
    tag, meta, arrays = container.read(source, magic, version, "checkpoint")
    container.write(path, magic, version, tag, meta | fields, list(arrays.items()))
    return path


class TestOptimizerStep:
    def test_sgd_decrements_along_gradient(self):
        params = ModelParams(np.zeros((3, 3)), 1.0)
        state = OptimizerState(kind="sgd", learning_rate=0.1)
        apply_optimizer_step(params, grads_of({0: [1.0, 0.0, 0.0]}), state)
        np.testing.assert_allclose(params.item_embeddings[0], [-0.1, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(params.item_embeddings[1], 0.0)

    def test_adam_first_step_magnitude_is_learning_rate(self):
        for scale in (1e-4, 1.0, 1e4):
            params = ModelParams(np.zeros((2, 2)), 1.0)
            state = OptimizerState(kind="adam", learning_rate=0.01)
            apply_optimizer_step(params, grads_of({0: [scale, -scale]}), state)
            np.testing.assert_allclose(np.abs(params.item_embeddings[0]), 0.01, rtol=1e-3)

    def test_lazy_adam_matches_dense_oracle_on_disjoint_rows(self):
        """Textbook dense Adam with per-row step counters, rows touched once
        each in two separate steps."""
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        g0 = np.array([0.3, -0.7])
        g1 = np.array([-1.2, 0.4])

        params = ModelParams(np.zeros((3, 2)), 1.0)
        state = OptimizerState(kind="adam", learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        apply_optimizer_step(params, grads_of({0: g0}), state)
        apply_optimizer_step(params, grads_of({1: g1}), state)

        dense = np.zeros((2, 2))
        for row, grad in ((0, g0), (1, g1)):
            m = (1 - b1) * grad
            v = (1 - b2) * grad * grad
            t = 1  # per-row step count
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            dense[row] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params.item_embeddings, dense, atol=1e-15)

    def test_adam_moments_persist_across_steps(self):
        params = ModelParams(np.zeros((2, 1)), 1.0)
        state = OptimizerState(kind="adam", learning_rate=0.1)
        apply_optimizer_step(params, grads_of({0: [1.0]}), state)
        apply_optimizer_step(params, grads_of({0: [1.0]}), state)
        assert state.t[0] == 2
        # constant gradient: both steps move by ~lr
        np.testing.assert_allclose(params.item_embeddings[0, 0], -0.2, rtol=1e-3)

    def test_lazy_adam_equals_scalar_formula_bit_for_bit(self):
        """Rows at different step counts in one step; the dense update must
        equal the per-row scalar Adam formula exactly, bias corrections
        included, over thousands of steps."""
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(4)
        params = ModelParams(np.zeros((4, 2)), 1.0)
        state = OptimizerState(kind="adam", learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        ref = np.zeros((3, 2))
        ref_m, ref_v, ref_t = np.zeros((3, 2)), np.zeros((3, 2)), [0, 0, 0, 0]  # row 3, the attention row, never steps
        for step in range(3000):
            touched = [0, 1] if step % 3 else [0, 2]
            grads = {row: rng.normal(size=2) for row in touched}
            apply_optimizer_step(params, grads_of(grads), state)
            for row, g in grads.items():
                ref_t[row] += 1
                ref_m[row] = b1 * ref_m[row] + (1.0 - b1) * g
                ref_v[row] = b2 * ref_v[row] + (1.0 - b2) * g * g
                m_hat = ref_m[row] / (1.0 - b1 ** ref_t[row])
                v_hat = ref_v[row] / (1.0 - b2 ** ref_t[row])
                ref[row] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_array_equal(state.t, ref_t)
        np.testing.assert_array_equal(params.item_embeddings, ref)

    def test_non_finite_gradient_aborts(self):
        params = ModelParams(np.zeros((2, 2)), 1.0)
        state = OptimizerState(kind="sgd", learning_rate=0.1)
        with pytest.raises(NonFiniteGradientError, match="rows \\[0\\]"):
            apply_optimizer_step(params, grads_of({0: [float("nan"), 0.0]}), state)

    # Row sets of a 7-row table (row 6 is the attention row).
    ROW_SETS = {
        "run-from-0": [0, 1, 2, 3],
        "run-in-middle": [2, 3, 4, 5],
        "one-row": [4],
        "not-contiguous": [0, 2, 3, 6],
        "attention-row": [6],
    }

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    @pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
    def test_sliced_step_equals_gathered_step(self, monkeypatch, kind, rows):
        """A contiguous run of rows is indexed by a slice; over 50 steps the
        table and the Adam state equal, byte for byte, those of the gathered
        path, forced here by indexing every row set by its id array."""

        def run():
            rng = np.random.default_rng(8)
            params = ModelParams(rng.normal(size=(7, 3)), 1.0)
            state = OptimizerState(kind=kind, learning_rate=0.05)
            for _ in range(50):
                apply_optimizer_step(params, GradientTable(np.array(rows), rng.normal(size=(len(rows), 3))), state)
            return [params.table] + ([] if kind == "sgd" else [state.m, state.v, state.t])

        sliced = run()
        monkeypatch.setattr(trainer_mod, "_row_index", lambda rows: rows)
        gathered = run()
        assert [a.tobytes() for a in sliced] == [a.tobytes() for a in gathered]

    def test_contiguous_rows_index_by_a_slice(self):
        assert trainer_mod._row_index(np.array([2, 3, 4])) == slice(2, 5)
        assert trainer_mod._row_index(np.array([6])) == slice(6, 7)
        assert isinstance(trainer_mod._row_index(np.array([0, 2, 3])), np.ndarray)

    def test_non_finite_gradient_in_a_run_names_its_rows(self):
        params = ModelParams(np.zeros((6, 2)), 1.0)
        state = OptimizerState(kind="adam", learning_rate=0.1)
        values = np.zeros((4, 2))
        values[1, 0], values[3, 1] = np.nan, np.inf
        with pytest.raises(NonFiniteGradientError, match=r"rows \[2, 4\]"):
            apply_optimizer_step(params, GradientTable(np.arange(1, 5), values), state)
        assert not params.table.any() and state.t is None  # the check runs before anything moves

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4, 5], [1, 3, 4, 6]], ids=["slice", "gathered"])
    def test_shared_count_step_equals_per_row_correction(self, monkeypatch, rows):
        """Rows at one shared count divide by the scalar bias correction; over
        2,000 steps the table and the Adam state equal, byte for byte, those
        of the per-row path, forced here by reporting no shared count."""

        def run():
            rng = np.random.default_rng(5)
            params = ModelParams(rng.normal(size=(7, 3)), 1.0)
            state = OptimizerState(kind="adam", learning_rate=0.05)
            for _ in range(2000):
                apply_optimizer_step(params, GradientTable(np.array(rows), rng.normal(size=(len(rows), 3))), state)
            return [params.table, state.m, state.v, state.t]

        shared = run()
        monkeypatch.setattr(trainer_mod, "_shared_count", lambda t: None)
        per_row = run()
        assert [a.tobytes() for a in shared] == [a.tobytes() for a in per_row]

    def test_mixed_counts_take_the_per_row_path(self, monkeypatch, tmp_path):
        """A step over rows at mixed counts, after a partial step or from a
        resumed state, corrects each row by its own count; a step whose rows
        share a count takes the scalar path."""
        corrected = []
        per_row = OptimizerState._bias_correction
        monkeypatch.setattr(
            OptimizerState, "_bias_correction", lambda self, beta, t: corrected.append(t.tolist()) or per_row(self, beta, t)
        )
        params = ModelParams(np.zeros((4, 2)), 1.0)
        state = OptimizerState(kind="adam", learning_rate=0.1)
        apply_optimizer_step(params, grads_of({0: [1.0, 2.0], 1: [3.0, 4.0]}), state)
        assert corrected == []
        apply_optimizer_step(params, grads_of({0: [1.0, 2.0], 1: [3.0, 4.0], 2: [5.0, 6.0]}), state)  # counts 2, 2, 1
        assert corrected == [[2, 2, 1], [2, 2, 1]]

        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, Checkpoint(params, state, 0, 0, (1,), 0, 0))
        resumed = load_checkpoint(path)
        corrected.clear()
        apply_optimizer_step(resumed.params, grads_of({r: [1.0, -1.0] for r in range(3)}), resumed.optimizer)
        assert corrected == [[3, 3, 2], [3, 3, 2]]
        corrected.clear()
        apply_optimizer_step(resumed.params, grads_of({0: [1.0, -1.0], 1: [2.0, 0.5]}), resumed.optimizer)  # both at 4
        assert corrected == []
        np.testing.assert_array_equal(resumed.optimizer.t, [4, 4, 2, 0])


class TestCheckpointFile:
    def _checkpoint(self, seed=3):
        params = ModelParams.initialize(5, 3, 0.25, seed, "attention")
        state = OptimizerState(kind="adam", learning_rate=0.01)
        apply_optimizer_step(params, grads_of({2: [0.1, 0.2, 0.3], 5: [1.0, 0.0, 0.0]}), state)  # row 5: attention
        trace = [{"month": 1, "ndcg": 0.1 + seed, "recall": 0.3}]
        return Checkpoint(params, state, 1, 0, months=(1, 2, 3), seed=seed, fingerprint=0xDEADBEEF, trace=trace)

    def test_round_trip(self, tmp_path):
        original = self._checkpoint()
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.item_embeddings, original.params.item_embeddings)
        np.testing.assert_array_equal(loaded.params.attention_vector, original.params.attention_vector)
        assert loaded.params.temperature == original.params.temperature
        assert loaded.params.aggregator == "attention"
        assert loaded.months == (1, 2, 3)
        assert loaded.month_cursor == 1 and loaded.epoch_cursor == 0
        assert loaded.fingerprint == 0xDEADBEEF
        assert loaded.trace == [{"month": 1, "ndcg": 3.1, "recall": 0.3}]
        np.testing.assert_array_equal(loaded.optimizer.m, original.optimizer.m)
        np.testing.assert_array_equal(loaded.optimizer.v, original.optimizer.v)
        np.testing.assert_array_equal(loaded.optimizer.t, [0, 0, 1, 0, 0, 1])

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, self._checkpoint())
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, expected_fingerprint=1)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint())
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(str(path))
        path.write_bytes(resealed(blob[:-4] + b"\x00" + blob[-4:]))  # a byte after the payload, checksum valid
        with pytest.raises(CheckpointError, match="after the payload"):
            load_checkpoint(str(path))

    def test_every_single_bit_flip_rejected(self, tmp_path):
        """The CRC-32 trailer catches every single-bit error, so a flip in any
        field (header, metadata, payload or the trailer itself) never loads."""
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint())
        blob = path.read_bytes()
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(damaged)
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))

    def test_seeded_corruptions_rejected(self, tmp_path):
        """Seeded damage of several kinds after the magic: scattered bit
        flips, a burst of flipped bits, an overwritten byte, two unequal
        bytes swapped and a run of 8 bytes overwritten; none of them loads."""
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint())
        blob = path.read_bytes()
        rng = np.random.default_rng(18)
        for trial in range(500):
            damaged = bytearray(blob)
            kind = trial % 5
            if kind == 0:
                for bit in rng.choice(np.arange(32, 8 * len(blob)), size=int(rng.integers(2, 9)), replace=False):
                    damaged[bit // 8] ^= 1 << (bit % 8)
            elif kind == 1:
                start = int(rng.integers(4, len(blob) - 4))
                damaged[start : start + 4] = bytes(b ^ int(x) for b, x in zip(damaged[start : start + 4], rng.integers(1, 256, size=4)))
            elif kind == 2:
                at = int(rng.integers(4, len(blob)))
                damaged[at] = (damaged[at] + int(rng.integers(1, 256))) % 256
            elif kind == 3:
                i, j = rng.choice(np.arange(4, len(blob)), size=2, replace=False)
                if damaged[i] == damaged[j]:
                    damaged[i] ^= 0xFF
                damaged[i], damaged[j] = damaged[j], damaged[i]
            else:
                start = int(rng.integers(4, len(blob) - 8))
                fill = 0 if any(damaged[start : start + 8]) else 0xFF
                damaged[start : start + 8] = bytes([fill]) * 8
            assert damaged != blob
            path.write_bytes(damaged)
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))

    def test_missing_array_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint())
        blob = path.read_bytes()
        path.write_bytes(resealed(blob.replace(b'"table"', b'"tablX"')))
        with pytest.raises(CheckpointError, match="table"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "field, damaged",
        [
            (b'"beta1"', b'"betaX"'),
            (b'"optimizer": {', b'"optimizer": 5, "x": {'),
            (b'"trace": [', b'"trace": 5, "x": ['),
            (b'"month": 1', b'"month": "x"'),
            (b'"recall": 0.3', b'"recall": [0.3]'),
        ],
        ids=["optimizer-field", "optimizer-scalar", "trace-scalar", "trace-month", "trace-metric"],
    )
    def test_malformed_metadata_rejected(self, tmp_path, field, damaged):
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint())
        blob = path.read_bytes()
        assert blob.count(field) == 1
        path.write_bytes(resealed(blob.replace(field, damaged)))
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize(
        "fields",
        [
            {"month_cursor": "1"},
            {"month_cursor": True},
            {"epoch_cursor": 0.0},
            {"seed": None},
            {"months": "123"},
            {"months": [1, "2", 3]},
            {"months": [1, False, 3]},
        ],
        ids=str,
    )
    def test_cursor_field_that_is_no_int_rejected(self, tmp_path, fields):
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, self._checkpoint())
        rewritten(path, path, **fields)
        with pytest.raises(CheckpointError, match="corrupt checkpoint .month_cursor, epoch_cursor and seed must be ints"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that raises after the header started leaves the previous
        file loadable and no temporary file behind."""
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), self._checkpoint(seed=3))
        before = path.read_bytes()
        real_pack = struct.pack
        calls = []

        def failing_pack(fmt, *values):
            calls.append(fmt)
            if len(calls) == 2:  # magic and version are already written
                raise OSError("disk full")
            return real_pack(fmt, *values)

        monkeypatch.setattr(struct, "pack", failing_pack)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), self._checkpoint(seed=4))
        monkeypatch.undo()
        assert len(calls) == 2
        assert path.read_bytes() == before
        load_checkpoint(str(path))
        assert os.listdir(tmp_path) == ["c.ckpt"]

    def test_save_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(a, self._checkpoint())
        save_checkpoint(b, self._checkpoint())
        assert open(a, "rb").read() == open(b, "rb").read()


def synthetic_training_set(num_months=3, num_samples=1_500, seed=5):
    spec = SyntheticSpec(
        num_users=4,
        num_items=6,
        joint=random_joint(4, 6, seed=9, table_rank=2, sparsity=0.2),
        num_samples=num_samples,
        num_months=num_months,
    )
    sample = generate_synthetic(spec, seed)
    examples = sample_examples(sample)
    return spec, examples, compute_marginals(examples, spec.num_items + spec.num_users)


def fresh_params(spec, seed=11, aggregator="mean"):
    return ModelParams.initialize(spec.num_items + spec.num_users, 4, 0.2, seed, aggregator)


def pooled_training_set(aggregator):
    """The three-month synthetic set for ``aggregator``.  Under attention
    pooling each pseudo-user also holds the next example's token, so the
    attention weights vary and the attention row takes non-zero steps."""
    spec, examples, marginals = synthetic_training_set(num_months=3)
    if aggregator == "attention":
        rows = example_rows(examples)
        nexts = rows[1:] + rows[:1]
        examples = examples_of([(user, (seq[0], nxt[1][0]), target, day) for (user, seq, target, day), nxt in zip(rows, nexts)])
        marginals = compute_marginals(examples, spec.num_items + spec.num_users)
    return spec, examples, marginals


def train_config(**kwargs) -> TrainConfig:
    defaults = dict(epochs_per_month=2, batch_size=64, learning_rate=1e-3, optimizer="adam", seed=17)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


LOSS = LossConfig.from_preset("bbcnce")


class TestTrainingLoop:
    def test_one_month_one_epoch_one_batch_is_one_step(self):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        month1 = examples.take(examples.month == 1)
        params = fresh_params(spec)
        config = train_config(epochs_per_month=1, batch_size=len(month1) + 10)
        result = train_incremental(month1, params, LOSS, config, marginals=marginals)
        assert result.months == (1,)
        assert result.steps == 1

    def test_step_count_formula(self):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        months = sorted(set(examples.month.tolist()))
        config = train_config(epochs_per_month=2, batch_size=50)
        params = fresh_params(spec)
        result = train_incremental(examples, params, LOSS, config, marginals=marginals)
        expected = 0
        for month in months:
            n = int(np.sum(examples.month == month))
            full, rem = divmod(n, 50)
            batches = full + (1 if rem >= 2 else 0)  # trailing singleton dropped for in-batch loss
            expected += 2 * batches
        assert result.steps == expected

    def test_each_month_batches_hold_only_that_months_examples(self, monkeypatch):
        """Every epoch of a month's phase batches exactly that month's
        examples, each once, and the months run in ascending order."""
        spec, examples, marginals = synthetic_training_set(num_months=3)
        batched: list = []
        months_fed: set = set()
        per_month: dict = {}
        real_make_batches = trainer_mod.make_batches
        real_loss = trainer_mod.loss_with_gradients

        def recording_make_batches(*args):
            for rows in real_make_batches(*args):
                batched.extend(rows.tolist())
                yield rows

        def recording_loss(batch, *args, **kwargs):
            months_fed.update(batch.month.tolist())
            return real_loss(batch, *args, **kwargs)

        def eval_fn(params, month):
            per_month[month] = (list(batched), set(months_fed))
            batched.clear()
            months_fed.clear()
            return {}

        monkeypatch.setattr(trainer_mod, "make_batches", recording_make_batches)
        monkeypatch.setattr(trainer_mod, "loss_with_gradients", recording_loss)
        config = train_config(epochs_per_month=2, batch_size=16)
        params = fresh_params(spec)
        result = train_incremental(examples, params, LOSS, config, marginals=marginals, eval_fn=eval_fn)
        assert result.months == (1, 2, 3)
        assert list(per_month) == [1, 2, 3]
        for month, (fed, months) in per_month.items():
            # the batches index the month's pool, each example once per epoch
            assert sorted(fed) == sorted(list(range(int(np.sum(examples.month == month)))) * 2)
            assert months == {month}

    def test_eval_snapshot_recorded_per_month(self):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        months = sorted(set(examples.month.tolist()))
        seen = []

        def eval_fn(params, month):
            seen.append(month)
            params.item_embeddings[:] = 0.0  # must not corrupt training (clone)
            return {"ndcg": float(month)}

        params = fresh_params(spec)
        config = train_config(epochs_per_month=1)
        result = train_incremental(
            examples, params, LOSS, config, marginals=marginals, eval_fn=eval_fn
        )
        assert seen == months
        assert [row["month"] for row in result.trace] == months
        assert np.any(params.item_embeddings != 0.0)

    @pytest.mark.parametrize("mode", ["incremental", "shuffled"])
    def test_each_checkpoint_holds_the_rows_of_the_phases_it_finished(self, tmp_path, mode):
        """A phase is validated before its last checkpoint is written, so every
        checkpoint carries the rows of the phases it finished."""
        spec, examples, marginals = synthetic_training_set(num_months=3)
        result = train_incremental(
            examples, fresh_params(spec), LOSS, train_config(epochs_per_month=2, mode=mode), marginals=marginals,
            eval_fn=lambda params, month: {"ndcg": float(month)}, checkpoint_dir=str(tmp_path),
        )
        assert len(result.trace) == (1 if mode == "shuffled" else 3)
        for path in result.checkpoints:
            checkpoint = load_checkpoint(path)
            finished = checkpoint.month_cursor + (checkpoint.epoch_cursor == 2)  # a shuffled run's last epoch
            assert checkpoint.trace == result.trace[:finished], os.path.basename(path)

    @pytest.mark.parametrize("aggregator", ["mean", "attention"])
    def test_resume_from_month_checkpoint_is_bit_identical(self, tmp_path, aggregator):
        spec, examples, marginals = pooled_training_set(aggregator)
        months = sorted(set(examples.month.tolist()))
        config = train_config()

        full_dir = str(tmp_path / "full")
        params_full = fresh_params(spec, aggregator=aggregator)
        full = train_incremental(
            examples, params_full, LOSS, config,
            marginals=marginals, checkpoint_dir=full_dir, fingerprint=7,
        )

        part_dir = str(tmp_path / "part")
        params_part = fresh_params(spec, aggregator=aggregator)
        resume_ckpt = load_checkpoint(os.path.join(full_dir, f"month_{months[0]:04d}.ckpt"), expected_fingerprint=7)
        resumed = train_incremental(
            examples, params_part, LOSS, config,
            marginals=marginals, checkpoint_dir=part_dir, fingerprint=7, resume=resume_ckpt,
        )
        written = [os.path.basename(p) for p in resumed.checkpoints]
        assert written == [name for m in months[1:] for name in (f"month_{m:04d}_epoch_00.ckpt", f"month_{m:04d}.ckpt")]
        np.testing.assert_array_equal(params_part.item_embeddings, params_full.item_embeddings)
        np.testing.assert_array_equal(params_part.attention_vector, params_full.attention_vector)
        assert np.any(params_full.attention_vector != 0.0) == (aggregator == "attention")
        final = f"month_{months[-1]:04d}.ckpt"
        assert open(os.path.join(part_dir, final), "rb").read() == open(os.path.join(full_dir, final), "rb").read()

    @pytest.mark.parametrize("aggregator", ["mean", "attention"])
    def test_resume_from_epoch_checkpoint_is_bit_identical(self, tmp_path, aggregator):
        spec, examples, marginals = pooled_training_set(aggregator)
        months = sorted(set(examples.month.tolist()))
        config = train_config(epochs_per_month=2)

        full_dir = str(tmp_path / "full")
        params_full = fresh_params(spec, aggregator=aggregator)
        train_incremental(
            examples, params_full, LOSS, config,
            marginals=marginals, checkpoint_dir=full_dir, fingerprint=3,
        )

        epoch_ckpt = load_checkpoint(os.path.join(full_dir, f"month_{months[1]:04d}_epoch_00.ckpt"), expected_fingerprint=3)
        params_resumed = fresh_params(spec, aggregator=aggregator)
        train_incremental(
            examples, params_resumed, LOSS, config,
            marginals=marginals, checkpoint_dir=str(tmp_path / "resume"), fingerprint=3, resume=epoch_ckpt,
        )
        np.testing.assert_array_equal(params_resumed.item_embeddings, params_full.item_embeddings)
        np.testing.assert_array_equal(params_resumed.attention_vector, params_full.attention_vector)
        assert np.any(params_full.attention_vector != 0.0) == (aggregator == "attention")

    def test_repeat_runs_are_identical(self):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        outs = []
        for _ in range(2):
            params = fresh_params(spec)
            train_incremental(examples, params, LOSS, train_config(), marginals=marginals)
            outs.append(params.item_embeddings.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_shuffled_equals_incremental_on_single_month(self):
        spec, examples, marginals = synthetic_training_set(num_months=1)
        config = train_config(epochs_per_month=2)
        params_inc = fresh_params(spec)
        inc = train_incremental(examples, params_inc, LOSS, config, marginals=marginals)
        params_shuf = fresh_params(spec)
        shuffled = dataclasses.replace(config, mode="shuffled")
        shuf = train_incremental(examples, params_shuf, LOSS, shuffled, marginals=marginals)
        assert inc.steps == shuf.steps
        np.testing.assert_array_equal(params_inc.item_embeddings, params_shuf.item_embeddings)

    def test_shuffled_resume_trains_only_the_remaining_epochs(self, tmp_path):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        config = train_config(epochs_per_month=3, mode="shuffled")

        def eval_fn(params, month):
            return {"ndcg": float(month)}

        full_dir = str(tmp_path / "full")
        full = train_incremental(
            examples, fresh_params(spec), LOSS, config,
            marginals=marginals, eval_fn=eval_fn, checkpoint_dir=full_dir, fingerprint=5,
        )
        assert [os.path.basename(p) for p in full.checkpoints] == [f"shuffled_epoch_{e:02d}.ckpt" for e in range(3)]
        assert full.steps % 3 == 0

        resume_ckpt = load_checkpoint(os.path.join(full_dir, "shuffled_epoch_00.ckpt"), expected_fingerprint=5)
        resume_dir = str(tmp_path / "resume")
        resumed = train_incremental(
            examples, fresh_params(spec), LOSS, config,
            marginals=marginals, eval_fn=eval_fn, checkpoint_dir=resume_dir, fingerprint=5, resume=resume_ckpt,
        )
        assert resumed.steps == full.steps * 2 // 3
        assert [os.path.basename(p) for p in resumed.checkpoints] == ["shuffled_epoch_01.ckpt", "shuffled_epoch_02.ckpt"]
        assert resumed.trace == full.trace == [{"month": -1, "ndcg": -1.0}]
        last = "shuffled_epoch_02.ckpt"
        assert open(os.path.join(resume_dir, last), "rb").read() == open(os.path.join(full_dir, last), "rb").read()

    def test_full_batch_sgd_descends(self):
        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=120)
        params = fresh_params(spec)
        values = []
        for _ in range(6):
            out = loss_with_gradients(examples, params, LOSS, marginals=marginals)
            values.append(out.value)
            state = OptimizerState(kind="sgd", learning_rate=0.02)
            apply_optimizer_step(params, out.gradients, state)
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-12

    def test_every_loss_family_trains(self):
        """One month of steps under each family moves the touched rows."""
        from twotower.data import sample_negatives_bce

        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=400)
        labeled = sample_negatives_bce(examples, "uniform", num_items=spec.num_items + spec.num_users, rng_seed=0)
        cases = [
            (LossConfig(family="bce"), labeled),
            (LossConfig(family="ssm", num_sampled=3), examples),
            (LossConfig(family="full_softmax_row"), examples),
            (LossConfig(family="full_softmax_col"), examples),
            (LossConfig.from_preset("bbcnce"), examples),
        ]
        for loss_config, data in cases:
            params = fresh_params(spec)
            before = params.item_embeddings.copy()
            result = train_incremental(
                data,
                params,
                loss_config,
                train_config(epochs_per_month=1, batch_size=64),
                marginals=marginals,
            )
            assert result.steps > 0, loss_config.family
            assert np.any(params.item_embeddings != before), loss_config.family
            assert np.all(np.isfinite(params.item_embeddings)), loss_config.family

    def test_attention_aggregator_trains_its_query_vector(self):
        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=400)
        params = dataclasses.replace(fresh_params(spec), aggregator="attention")
        # singleton pseudo-users make attention weights constant but the
        # query gradient flows through multi-item sequences; build some
        rows = example_rows(examples)
        nexts = rows[1:] + rows[:1]
        merged = examples_of([(user, (seq[0], nxt[1][0]), target, day) for (user, seq, target, day), nxt in zip(rows, nexts)])
        unseen_keys = EmpiricalMarginals(np.zeros(len(merged.table), dtype=np.int64), marginals.count_item)
        train_incremental(
            merged, params, LOSS, train_config(epochs_per_month=1, batch_size=32),
            marginals=unseen_keys,
        )
        assert np.any(params.attention_vector != 0.0)

    def test_months_must_be_configured(self):
        """The months come from the examples; with none there is nothing to train."""
        spec, examples, _ = synthetic_training_set()
        with pytest.raises(ValueError, match="months"):
            train_incremental(examples.take(examples.month < 0), fresh_params(spec), LOSS, train_config())

    def test_mismatched_resume_months_rejected(self, tmp_path):
        spec, examples, marginals = synthetic_training_set(num_months=3)
        params = fresh_params(spec)
        first_two = examples.take(examples.month <= 2)
        result = train_incremental(
            first_two, params, LOSS, train_config(),
            marginals=marginals, checkpoint_dir=str(tmp_path), fingerprint=0,
        )
        assert result.months == (1, 2)
        checkpoint = load_checkpoint(result.checkpoints[0])
        with pytest.raises(CheckpointError, match="months"):
            train_incremental(examples, params, LOSS, train_config(), resume=checkpoint)

    def test_non_finite_loss_aborts(self, monkeypatch):
        """A loss value of NaN or infinity stops training before the step,
        even when the gradients are finite."""
        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=120)
        real_loss = trainer_mod.loss_with_gradients

        def infinite_loss(*args, **kwargs):
            out = real_loss(*args, **kwargs)
            out.value = float("inf")
            return out

        monkeypatch.setattr(trainer_mod, "loss_with_gradients", infinite_loss)
        params = fresh_params(spec)
        before = params.item_embeddings.copy()
        with pytest.raises(NonFiniteLossError, match="inf"):
            train_incremental(examples, params, LOSS, train_config(), marginals=marginals)
        np.testing.assert_array_equal(params.item_embeddings, before)

    def test_overflowing_norm_on_the_last_step_aborts_before_the_checkpoint(self, tmp_path):
        """A last step that leaves finite parameters whose squares overflow
        stops training as well: such a row has no cosine to rank by."""
        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=120)
        config = train_config(epochs_per_month=1, batch_size=len(examples), optimizer="sgd", learning_rate=1e200)
        params = fresh_params(spec)
        with pytest.raises(NonFiniteGradientError, match="non-finite parameters after month 1, epoch 0"):
            train_incremental(examples, params, LOSS, config, marginals=marginals, checkpoint_dir=str(tmp_path))
        assert np.isfinite(params.table).all() and os.listdir(tmp_path) == []

    def test_overflowing_last_step_aborts_before_the_checkpoint(self, tmp_path):
        """A finite gradient that overflows a parameter on the last step of an
        epoch stops training before a checkpoint or validation snapshot holds it."""
        spec, examples, marginals = synthetic_training_set(num_months=1, num_samples=120)
        config = train_config(epochs_per_month=1, batch_size=len(examples), optimizer="sgd", learning_rate=1e308)
        calls = []
        with pytest.raises(NonFiniteGradientError, match="non-finite parameters after month 1, epoch 0"):
            train_incremental(
                examples, fresh_params(spec), LOSS, config, marginals=marginals,
                eval_fn=lambda params, month: calls.append(month) or {}, checkpoint_dir=str(tmp_path),
            )
        assert calls == [] and os.listdir(tmp_path) == []
