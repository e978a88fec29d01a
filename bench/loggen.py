"""Seeded synthetic purchase logs for the benchmark.

Writes ``user,item,day`` CSV lines that ``twotower`` ingests unchanged:
integer days, months as 30-day buckets.  Item popularity follows a Zipf law,
user activity is lognormal, and users and items fall into taste groups so
that a trained model has real structure to learn (a quality guard for speed
changes that break learning).

    python3 bench/loggen.py --seed 7 --users 800 --items 400 --events 9000 --months 4 out.csv
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

ZIPF_A = 1.1  # item popularity exponent
GROUPS = 8  # latent taste groups
AFFINITY = 0.7  # share of a user's events drawn from their own group


@dataclass(frozen=True)
class LogShape:
    users: int
    items: int
    events: int
    months: int
    activity_sigma: float = 1.0  # lognormal sigma of per-user activity


def _event_counts(shape: LogShape) -> np.ndarray:
    """Events per user following lognormal quantiles, summing to ``events``.

    Using quantiles rather than draws keeps the activity profile, and with
    it the amount of work a log makes, the same for every seed; the seed
    decides the items and the days.
    """
    normal = NormalDist()
    z = [normal.inv_cdf((u + 0.5) / shape.users) for u in range(shape.users)]
    share = np.exp(shape.activity_sigma * np.array(z))
    exact = shape.events * share / share.sum()
    counts = np.floor(exact).astype(np.int64)
    remainder = np.argsort(counts - exact, kind="stable")[: shape.events - counts.sum()]
    counts[remainder] += 1
    return counts


def generate(shape: LogShape, seed: int) -> np.ndarray:
    """Events as an ``(events, 3)`` int array of (user, item, day), sorted by day."""
    rng = np.random.default_rng(seed)
    users = rng.permutation(np.repeat(np.arange(shape.users), _event_counts(shape)))

    # Groups are dealt round-robin down the popularity ranks, so every group
    # holds a similar share of head and tail items whatever the seed.
    popularity = 1.0 / np.arange(1, shape.items + 1) ** ZIPF_A
    items_by_rank = rng.permutation(shape.items)
    item_group = np.arange(shape.items) % GROUPS
    user_group = np.arange(shape.users) % GROUPS

    global_p = popularity / popularity.sum()
    group_p = np.zeros((GROUPS, shape.items))
    for g in range(GROUPS):
        group_p[g] = np.where(item_group == g, popularity, 0.0)
        group_p[g] /= group_p[g].sum()

    own = rng.random(shape.events) < AFFINITY
    rank = np.empty(shape.events, dtype=np.int64)
    rank[~own] = rng.choice(shape.items, size=int((~own).sum()), p=global_p)
    for g in range(GROUPS):
        mask = own & (user_group[users] == g)
        rank[mask] = rng.choice(shape.items, size=int(mask.sum()), p=group_p[g])
    items = items_by_rank[rank]

    # Each user's events are dealt round-robin over the months from a random
    # start month, so every month holds about the same share of the log.
    order = np.argsort(users, kind="stable")
    sorted_users = users[order]
    nth = np.empty(shape.events, dtype=np.int64)
    nth[order] = np.arange(shape.events) - np.searchsorted(sorted_users, sorted_users)
    month = (rng.integers(shape.months, size=shape.users)[users] + nth) % shape.months
    days = month * 30 + rng.integers(0, 30, size=shape.events)
    events = np.stack([users, items, days], axis=1)
    return events[np.lexsort((events[:, 1], events[:, 0], events[:, 2]))]


def write_csv(shape: LogShape, seed: int, path: str) -> int:
    """Write the log; returns the number of event lines."""
    events = generate(shape, seed)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"u{u},i{i},{d}\n" for u, i, d in events.tolist())
    return len(events)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--months", type=int, required=True)
    parser.add_argument("--activity-sigma", type=float, default=1.0)
    args = parser.parse_args(argv)
    shape = LogShape(args.users, args.items, args.events, args.months, args.activity_sigma)
    print(write_csv(shape, args.seed, args.path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
