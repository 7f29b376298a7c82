"""Seeded families of experiment inputs, and the one reduction over them."""

from collections.abc import Sequence

import numpy as np


class Family(Sequence):
    """``count`` members; member i is ``build(default_rng((seed, i)))``, made
    anew each time it is read, so growing count keeps earlier members."""

    def __init__(self, build, seed: int, count: int):
        self.build, self.seed, self.count = build, seed, count

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        if not 0 <= i < self.count:
            raise IndexError(f"member {i} of a family of {self.count}")
        return self.build(np.random.default_rng((self.seed, i)))


def family_report(members, row, map_fn=map) -> dict:
    """Rows of ``row(i, members[i])`` in index order, with the max and mean of
    their "ratio"; a ``None`` row (degenerate member) is dropped and counted.
    Member i is read inside its task of ``map_fn`` (``map``, or an executor's)."""
    rows = list(map_fn(lambda i: row(i, members[i]), range(len(members))))
    kept = [r for r in rows if r is not None]
    ratios = [r["ratio"] for r in kept]
    return {"rows": kept, "family_max": float(np.max(ratios)) if ratios else 0.0,
            "family_mean": float(np.mean(ratios)) if ratios else 0.0,
            "discarded": len(rows) - len(kept)}
