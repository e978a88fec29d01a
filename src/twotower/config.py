"""Run configuration: flat dotted keys, ``key = value``, UTF-8.

One document configures every stage (data, model, loss, train, eval,
verify, paths) plus the global seed.  Unknown keys are rejected.  Every
command writes the resolved configuration next to its outputs, and the
checkpoint fingerprint is a 64-bit hash over the identity-relevant keys
(seed, data.*, model.*, loss.*, train.*), so evaluation-time knobs can vary
without invalidating a checkpoint.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .losses import LossConfig, preset_flags


class ConfigError(ValueError):
    """Unparseable line, unknown key, or bad value in a config document."""


@dataclass
class DataSection:
    input: str = ""
    delimiter: str = ","
    horizon_days: int = 30
    max_seq_len: int = 20
    min_degree: int = 3
    months_total: int = 0  # 0 = use the data's full month span


@dataclass
class ModelSection:
    dim: int = 16
    temperature: float = 0.25
    aggregator: str = "mean"


@dataclass
class LossSection:
    family: str = "bidirectional"
    preset: str = "bbcnce"  # empty string = use the explicit flags
    alpha: int = 1
    beta: int = 1
    delta_alpha: int = 1
    delta_beta: int = 1
    negative_strategy: str = "uniform"
    negative_ratio: int = 1
    num_sampled: int = 10
    ssm_proposal: str = "marginal"


@dataclass
class TrainSection:
    mode: str = "incremental"
    epochs_per_month: int = 2
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8


@dataclass
class EvalSection:
    task: str = "ir"
    top_n: int = 10
    num_negatives: int = 99
    popularity_window_days: int = 365


@dataclass
class VerifySection:
    num_users: int = 8
    num_items: int = 12
    num_samples: int = 200_000
    table_seed: int = 7
    table_rank: int = 3
    sparsity: float = 0.3
    dim: int = 10
    temperature: float = 0.05
    epochs: int = 2000
    learning_rate: float = 0.05
    seeds: str = "1,2,3"


@dataclass
class PathsSection:
    output_dir: str = "out"


@dataclass
class RunConfig:
    seed: int = 0
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossSection = field(default_factory=LossSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    verify: VerifySection = field(default_factory=VerifySection)
    paths: PathsSection = field(default_factory=PathsSection)


def _field_map() -> dict[str, tuple[str | None, str, type]]:
    """dotted key -> (section, field, python type)."""
    mapping: dict[str, tuple[str | None, str, type]] = {"seed": (None, "seed", int)}
    defaults = RunConfig()
    for section_field in fields(RunConfig):
        if section_field.name == "seed":
            continue
        section = getattr(defaults, section_field.name)
        for f in fields(section):
            mapping[f"{section_field.name}.{f.name}"] = (section_field.name, f.name, type(getattr(section, f.name)))
    return mapping


FIELD_MAP = _field_map()


def _coerce(key: str, raw: str, target: type):
    try:
        value = target(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {target.__name__}") from exc
    if target is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not finite")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines; ``#`` starts a comment; unknown keys fail."""
    config = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in FIELD_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, target = FIELD_MAP[key]
        value = _coerce(key, raw, target)
        if section is None:
            config.seed = value
        else:
            setattr(getattr(config, section), name, value)
    return config


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as src:  # utf-8, a leading byte-order mark dropped
        try:
            text = src.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    return parse_config(text)


def render_config(config: RunConfig) -> str:
    """Canonical resolved form: every key, sorted, one per line."""
    lines = []
    for key, (section, name, _) in sorted(FIELD_MAP.items()):
        value = config.seed if section is None else getattr(getattr(config, section), name)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


IDENTITY_PREFIXES = ("seed", "data.", "model.", "loss.", "train.")


def fingerprint(config: RunConfig) -> int:
    """64-bit hash over the keys that define a trained model's identity."""
    lines = [
        line
        for line in render_config(config).splitlines()
        if line.startswith(IDENTITY_PREFIXES)
    ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def loss_config_from(config: RunConfig) -> LossConfig:
    """Build the loss configuration from the ``loss`` section's fields of the
    same names; a preset wins for the bidirectional family.  An unknown
    preset is refused under any family; the empty one means the flags."""
    section = config.loss
    values = {f.name: getattr(section, f.name) for f in fields(LossConfig)}
    if section.preset:
        flags = preset_flags(section.preset)
        if section.family == "bidirectional":
            values.update(flags)
    return LossConfig(**values)


def verify_seeds(config: RunConfig) -> tuple[int, ...]:
    """The sweep seeds: distinct non-negative integers, in the order given.
    An empty list gives no seeds; an empty field within a list is refused."""
    text = config.verify.seeds
    parts = text.split(",") if text.strip() else []
    if any(not part.strip() for part in parts):
        raise ConfigError(f"verify.seeds: empty field in {text!r}")
    try:
        seeds = tuple(int(s) for s in parts)
    except ValueError as exc:
        raise ConfigError(f"verify.seeds: cannot parse {text!r}") from exc
    if any(seed < 0 for seed in seeds) or len(set(seeds)) < len(seeds):
        raise ConfigError(f"verify.seeds: seeds must be distinct and >= 0, got {text!r}")
    return seeds
