"""Two-tower user-item matching.

One embedding model, trained on purchase logs, serves two retrieval tasks:
item recommendation (rank items for a user) and user targeting (rank users
for an item).  The package covers the full pipeline: log ingestion and
next-n-day windowing, the shared-table two-tower encoder, the family of
Bernoulli and in-batch multinomial matching losses with bias correction,
month-by-month incremental training with checkpoint resume, ranking
evaluation, and a synthetic-data harness that verifies which probability
each loss configuration converges to.
"""

__version__ = "0.1.0"

from .data import DatasetSplit, EmpiricalMarginals, Events, Examples, Sequences  # noqa: F401
from .losses import LossConfig, LossOutput  # noqa: F401
from .model import ModelParams  # noqa: F401
from .trainer import Checkpoint, TrainConfig  # noqa: F401
