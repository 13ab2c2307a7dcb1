"""Error-rate scoring and the cross-validation split protocol.

WER and PER share one engine: a unit-cost Levenshtein alignment whose
substitution/deletion/insertion counts come from a single minimal-cost
backtrace (ties prefer substitution over insertion over deletion).  The
splitter cuts a seeded shuffle of the utterance ids into ten near-equal
folds and assigns each run a disjoint (dev, test) fold pair, so three runs
consume six distinct folds and every run trains on the remaining eight.

Run-level aggregation averages per-run rates; pooling counts across
utterances within one run is a separate helper.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Sequence

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoreReport:
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        # empty references are flagged by the caller; |hyp|/1 convention
        return self.errors / max(self.reference_length, 1)


@dataclass(frozen=True)
class CvPlan:
    """Fold partition plus per-run (dev fold, test fold, train folds)."""

    folds: tuple[tuple[str, ...], ...]
    runs: tuple[tuple[int, int, tuple[int, ...]], ...]

    def dev_ids(self, run: int) -> tuple[str, ...]:
        return self.folds[self.runs[run][0]]

    def test_ids(self, run: int) -> tuple[str, ...]:
        return self.folds[self.runs[run][1]]

    def train_ids(self, run: int) -> tuple[str, ...]:
        return tuple(u for f in self.runs[run][2] for u in self.folds[f])


def error_rate(ref: Sequence[str], hyp: Sequence[str]) -> ScoreReport:
    """Minimal-edit-distance alignment counts between token sequences.

    An empty reference is flagged with a warning and scored against length 1,
    making the rate |hyp| by convention.
    """
    if len(ref) == 0:
        logger.warning("empty reference: rate defined as |hyp| / 1")
        return ScoreReport(0, 0, len(hyp), 0)
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dist[i][0] = i
    for j in range(m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            ins = dist[i][j - 1] + 1
            dele = dist[i - 1][j] + 1
            dist[i][j] = min(sub, ins, dele)

    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return ScoreReport(subs, dels, ins, n)


def pool(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Pool counts across utterances (corpus-level rate within one run)."""
    return ScoreReport(
        substitutions=sum(r.substitutions for r in reports),
        deletions=sum(r.deletions for r in reports),
        insertions=sum(r.insertions for r in reports),
        reference_length=sum(r.reference_length for r in reports),
    )


def aggregate(rates: Sequence[float | ScoreReport]) -> float:
    """Mean of per-run rates (rates averaged, counts never pooled here)."""
    if not rates:
        raise ValueError("nothing to aggregate")
    values = [r.rate if isinstance(r, ScoreReport) else float(r) for r in rates]
    return sum(values) / len(values)


def make_cv_plan(
    utt_ids: Sequence[str], n_folds: int = 10, n_runs: int = 3, seed: int = 0
) -> CvPlan:
    """Seeded shuffle, contiguous cut into folds, run r gets folds (2r, 2r+1).

    Folds partition the ids with sizes within one of each other; the dev and
    test folds of the runs are pairwise distinct, so no fold is reused
    across runs for development or test.
    """
    ids = list(utt_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate utterance ids")
    if n_runs < 1:
        raise ValueError(f"need at least one run, got {n_runs}")
    if len(ids) < n_folds:
        raise ValueError(f"need at least {n_folds} utterances, got {len(ids)}")
    if 2 * n_runs > n_folds:
        raise ValueError(f"{n_runs} runs need {2 * n_runs} distinct folds, have {n_folds}")
    random.Random(seed).shuffle(ids)
    base, extra = divmod(len(ids), n_folds)
    folds = []
    pos = 0
    for k in range(n_folds):
        size = base + (1 if k < extra else 0)
        folds.append(tuple(ids[pos:pos + size]))
        pos += size
    runs = []
    for r in range(n_runs):
        dev, test = 2 * r, 2 * r + 1
        train = tuple(k for k in range(n_folds) if k not in (dev, test))
        runs.append((dev, test, train))
    return CvPlan(folds=tuple(folds), runs=tuple(runs))
