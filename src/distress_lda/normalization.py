"""Z-score normalization fitted on the pooled training set."""
from __future__ import annotations

import math
from itertools import chain, repeat
from operator import itemgetter, sub, truediv
from typing import Iterator, Sequence

from .dataset import VARIABLES, LabeledSample, RatioVector, TrainingSet, column_moments
from .errors import ZeroVarianceError
from .record import Record


class NormalizationStats(Record):
    """Per-variable mean and sample standard deviation (divisor n-1).

    Fitted once on the full training set, both groups pooled, and reused
    unchanged for every out-of-sample vector.
    """

    mean: dict[str, float]
    sd: dict[str, float]

    def _validate(self) -> None:
        for name in VARIABLES:
            if name not in self.mean or name not in self.sd:
                raise ValueError(f"normalization stats missing variable {name!r}")
            if not self.sd[name] > 0:
                raise ValueError(f"sd for {name!r} must be positive, got {self.sd[name]!r}")


def fit_normalizer(ts: TrainingSet) -> NormalizationStats:
    """Compute pooled means and n-1 standard deviations per variable."""
    rows = [s.ratios for s in ts.samples]
    means, scatter = column_moments(rows)
    sds = [math.sqrt(total / (len(rows) - 1)) for total in scatter]
    for column, (name, mean, sd) in enumerate(zip(VARIABLES, means, sds)):
        if not math.isfinite(sd):  # an overflowing mean overflows the sd too
            raise ZeroVarianceError(f"variable {name!r} overflows across the training set: mean {mean}, sd {sd}")
        if sd == 0.0:
            if len({row[column] for row in rows}) > 1:  # the squared deviations underflowed
                raise ZeroVarianceError(f"variable {name!r} varies too little to measure across the training set")
            raise ZeroVarianceError(f"variable {name!r} is constant across the training set")
    return NormalizationStats(mean=dict(zip(VARIABLES, means)), sd=dict(zip(VARIABLES, sds)))


def z_columns(stats: NormalizationStats, vectors: Sequence[Sequence[float]]) -> list[Iterator[float]]:
    """The z-scores (x - mean) / sd of the vectors, one lazy column per variable in
    VARIABLES order, each read once: the one z-score rule."""
    return [
        map(truediv, map(sub, map(itemgetter(at), vectors), repeat(stats.mean[name])), repeat(stats.sd[name]))
        for at, name in enumerate(VARIABLES)
    ]


def normalize_training_set(stats: NormalizationStats, ts: TrainingSet) -> TrainingSet:
    """Replace every sample's ratios by their z-scores; labels and order kept."""
    banks, ratios, labels = (list(map(itemgetter(at), ts.samples)) for at in range(3))
    rows = list(zip(*z_columns(stats, ratios)))
    if all(map(math.isfinite, chain.from_iterable(rows))):
        vectors = RatioVector._from_checked(rows)
    else:
        vectors = [RatioVector(*row) for row in rows]  # raises for the first z-score that is not finite
    samples = LabeledSample._from_checked(zip(banks, vectors, labels))
    return TrainingSet(samples=tuple(samples), n0=ts.n0, n1=ts.n1)
