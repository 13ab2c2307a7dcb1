"""Error-rate scoring and the cross-validation split protocol.

WER and PER share one engine: a unit-cost Levenshtein alignment whose
substitution/deletion/insertion counts come from a single minimal-cost
backtrace (ties prefer substitution over insertion over deletion).  The
distances come from Myers' bit-vector recurrence in its global form (Myers
1999, "A fast bit-vector algorithm for approximate string matching based on
dynamic programming"): one Python int per hypothesis position holds the
+1/-1 vertical deltas of that column for every reference position, so time
and memory are O(m * ceil(n / w)) for n reference and m hypothesis tokens
and word size w, not an (n+1) x (m+1) table.  The backtrace reads any cell
back from its column's two delta vectors with a popcount (Hyyrö 2004, "A
note on bit-parallel alignment computation").  Tokens are compared as
dictionary keys, so they must be hashable strings.

The splitter cuts a seeded shuffle of the utterance ids into ten near-equal
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
    """Fold partition plus per-run (dev fold, test fold); each run trains on
    the other folds."""

    folds: tuple[tuple[str, ...], ...]
    runs: tuple[tuple[int, int], ...]

    def dev_ids(self, run: int) -> tuple[str, ...]:
        return self.folds[self.runs[run][0]]

    def test_ids(self, run: int) -> tuple[str, ...]:
        return self.folds[self.runs[run][1]]

    def train_ids(self, run: int) -> tuple[str, ...]:
        held = self.runs[run]
        return tuple(u for k, fold in enumerate(self.folds) if k not in held for u in fold)


def error_rate(ref: Sequence[str], hyp: Sequence[str]) -> ScoreReport:
    """Minimal-edit-distance alignment counts between token sequences.

    Myers' bit-vector recurrence gives each column j of the distance table
    D as two ints: bit i of ``vp`` (``vn``) is set where D[i+1][j] - D[i][j]
    is +1 (-1).  The backtrace (after Hyyrö) reads a cell back as D[i][j] =
    j + popcount(vp_j & low_i) - popcount(vn_j & low_i), ``low_i`` being the
    i lowest bits, and prefers substitution, then insertion, then deletion
    on ties.  Time and memory are O(m * ceil(n / w)) for n reference and m
    hypothesis tokens.  Tokens must be hashable strings.

    An empty reference is flagged with a warning and scored against length 1,
    making the rate |hyp| by convention.
    """
    if len(ref) == 0:
        logger.warning("empty reference: rate defined as |hyp| / 1")
        return ScoreReport(0, 0, len(hyp), 0)
    n, m = len(ref), len(hyp)
    full = (1 << n) - 1
    match: dict[str, int] = {}   # token -> bits of the reference positions holding it
    for i, tok in enumerate(ref):
        match[tok] = match.get(tok, 0) | 1 << i
    vp, vn = full, 0             # column 0: D[i][0] = i
    cols = [(vp, vn)]
    for tok in hyp:
        x = match.get(tok, 0) | vn
        d0 = ((vp + (x & vp)) ^ vp) | x   # where D[i][j] = D[i-1][j-1]
        hp = vn | ~(vp | d0)
        hn = vp & d0
        hp = (hp << 1) | 1                # row 0 rises by one per column
        vn = hp & d0   # n bits: a carry out of row n needs vp's top bit, which clears hp's
        vp = ((hn << 1) | ~(hp | d0)) & full
        cols.append((vp, vn))

    subs = ins = dels = 0
    i, j = n, m
    d = m + vp.bit_count() - vn.bit_count()   # D[n][m]
    while i and j:
        pvp, pvn = cols[j - 1]
        low = (1 << i) - 1
        left = j - 1 + (pvp & low).bit_count() - (pvn & low).bit_count()   # D[i][j-1]
        bit = 1 << (i - 1)
        diag = left - bool(pvp & bit) + bool(pvn & bit)                     # D[i-1][j-1]
        cost = ref[i - 1] != hyp[j - 1]
        if d == diag + cost:
            subs += cost
            i, j, d = i - 1, j - 1, diag
        elif d == left + 1:
            ins += 1
            j, d = j - 1, left
        else:
            vp, vn = cols[j]
            dels += 1
            i, d = i - 1, d - bool(vp & bit) + bool(vn & bit)                 # D[i-1][j]
    return ScoreReport(subs, dels + i, ins + j, n)


def pool(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Pool counts across utterances (corpus-level rate within one run)."""
    return ScoreReport(
        substitutions=sum(r.substitutions for r in reports),
        deletions=sum(r.deletions for r in reports),
        insertions=sum(r.insertions for r in reports),
        reference_length=sum(r.reference_length for r in reports),
    )


def aggregate(rates: Sequence[float]) -> float:
    """Mean of per-run rates (rates averaged, counts never pooled here)."""
    if not rates:
        raise ValueError("nothing to aggregate")
    return sum(rates) / len(rates)


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
    runs = tuple((2 * r, 2 * r + 1) for r in range(n_runs))
    return CvPlan(folds=tuple(folds), runs=runs)
