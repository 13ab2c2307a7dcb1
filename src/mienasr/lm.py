"""Back-off n-gram language model with ARPA interchange.

Training counts n-grams over sentences padded with <s> / </s>; one builder
then discounts each order's counts, gives the removed mass to the next lower
order (at the unigram level, to a uniform distribution, so <unk> receives
mass) and writes the result in back-off form.  A smoothing is a choice of
counts and of a discount rule:
- "kneser_ney" (the default; interpolated modified Kneser-Ney): continuation
  counts below the top order (raw counts for <s>-initial grams) and three
  discounts per order from counts-of-counts, or a fixed 0.75 for an order
  where that estimate degenerates on a tiny corpus;
- "absolute": raw counts, a fixed 0.75 discount;
- "mle": raw counts plus one reserved <unk> count, zero discounts, so every
  back-off weight is LOG10_ZERO.

All scores are base-10 logs to match the ARPA format; the decoder converts
to natural logs at its boundary.  A model is checked when it is built,
however it is built, and is immutable after; scoring is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .inputs import located, read_utf8, write_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# ARPA sentinel for "probability zero" entries (<s> as a predicted token,
# back-off weight of an MLE history)
LOG10_ZERO = -99.0

_FALLBACK_DISCOUNT = 0.75

# log10 values whose power of ten is a finite positive float, with a margin
_LOG10_MIN, _LOG10_MAX = -323.3, 308.25


class ArpaError(ValueError):
    """Malformed ARPA file or inconsistent model tables."""


@dataclass(frozen=True)
class ArpaModel:
    """Per-order tables mapping n-gram tuples to (log10 prob, log10 bow).

    ``tables[n]`` covers the n-grams; the back-off weight is None when the
    gram never acts as a history.
    """

    tables: tuple[dict, ...]  # index 0 unused, 1..order live

    @property
    def order(self) -> int:
        """The highest n: one live table per order, after the unused index 0."""
        return len(self.tables) - 1

    @cached_property
    def vocab(self) -> tuple[str, ...]:
        """The unigram words, sorted: the sentence markers and <unk> among them."""
        return tuple(sorted(g[0] for g in self.tables[1]))

    def map_word(self, w: str) -> str:
        return w if (w,) in self.tables[1] else UNK

    def __post_init__(self) -> None:
        """Every model is checked where it is built, raising ArpaError: at
        least one live table, probs <= 0, each value's power of ten a finite
        positive float (so every score and back-off sum is finite), no
        dangling history, and a <unk> unigram for OOV words to map to."""
        if len(self.tables) < 2:
            raise ArpaError("no n-gram table: the unigrams are tables[1] (index 0 unused)")
        for n in range(1, self.order + 1):
            for gram, (logp, bow) in self.tables[n].items():
                if len(gram) != n:
                    raise ArpaError(f"{gram} filed under order {n}")
                if not _LOG10_MIN < logp <= 1e-12:
                    raise ArpaError(f"positive, non-finite or out-of-range log10 probability "
                                    f"{logp!r} for {gram}")
                if bow is not None and not _LOG10_MIN < bow < _LOG10_MAX:
                    raise ArpaError(f"non-finite or out-of-range back-off {bow!r} for {gram}")
                if n > 1 and gram[:-1] not in self.tables[n - 1]:
                    raise ArpaError(f"dangling history {gram[:-1]} for {gram}")
        if (UNK,) not in self.tables[1]:
            raise ArpaError(f"no {UNK} unigram")


def _count_ngrams(sentences: Sequence[list[str]], order: int):
    counts = [None] + [dict() for _ in range(order)]
    for sent in sentences:
        padded = [BOS] + sent + [EOS]
        for n in range(1, order + 1):
            table = counts[n]
            for i in range(len(padded) - n + 1):
                gram = tuple(padded[i:i + n])
                table[gram] = table.get(gram, 0) + 1
    return counts


def _adjusted_counts(counts, order):
    """Continuation counts for orders < N, raw for <s>-initial grams."""
    adjusted = [None] + [dict() for _ in range(order)]
    adjusted[order] = dict(counts[order])
    for n in range(order - 1, 0, -1):
        adj = adjusted[n]
        for gram, c in counts[n].items():
            if gram[0] == BOS:
                adj[gram] = c
        # every non-<s>-initial occurrence has a predecessor inside the padded
        # sentence, so continuation counting reaches every observed gram
        for gram in counts[n + 1]:
            suffix = gram[1:]
            if suffix[0] != BOS:
                adj[suffix] = adj.get(suffix, 0) + 1
    return adjusted


def _estimate_discounts(values: Iterable[int]) -> tuple[float, float, float]:
    """Modified Kneser-Ney discounts from counts-of-counts.

    Returns (D1, D2, D3+); falls back to a single absolute discount when the
    estimate degenerates (missing count-of-count levels or negative D).
    """
    n = [0, 0, 0, 0, 0]
    for c in values:
        if 1 <= c <= 4:
            n[c] += 1
    if min(n[1:]) == 0:
        return (_FALLBACK_DISCOUNT,) * 3
    y = n[1] / (n[1] + 2.0 * n[2])
    d = (1 - 2 * y * n[2] / n[1], 2 - 3 * y * n[3] / n[2], 3 - 4 * y * n[4] / n[3])
    if any(x < 0 for x in d):
        return (_FALLBACK_DISCOUNT,) * 3
    return d


def _discount_for(c: int, d: tuple[float, float, float]) -> float:
    return d[min(c, 3) - 1] if c > 0 else 0.0


def lm_train(corpus: Iterable[str], order: int = 4, smoothing: str = "kneser_ney") -> ArpaModel:
    """Train a back-off model of the given order over sentence strings.

    smoothing: "kneser_ney" (modified, interpolated; the default),
    "absolute" (raw counts, fixed 0.75 discount), or "mle" (no discounting,
    one-count <unk> reservation at the unigram level, zero back-off mass).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if smoothing not in ("kneser_ney", "absolute", "mle"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    sentences = [line.split() for line in corpus]
    if not any(sentences):
        raise ValueError("corpus has zero tokens")

    counts = _count_ngrams(sentences, order)
    vocab = sorted({w for s in sentences for w in s} | {BOS, EOS, UNK})

    if smoothing == "kneser_ney":
        counts, rule = _adjusted_counts(counts, order), _estimate_discounts
    elif smoothing == "absolute":
        rule = _fixed_discounts(_FALLBACK_DISCOUNT)
    else:
        counts[1][(UNK,)] = counts[1].get((UNK,), 0) + 1  # the reserved <unk> count
        rule = _fixed_discounts(0.0)
    tables = _discounted_tables(counts, order, vocab, rule)
    return ArpaModel(tuple(tables))


def _fixed_discounts(d: float):
    return lambda values: (d, d, d)


def _discounted_tables(counts, order, vocab, rule):
    # interpolated probabilities computed order by order, then written in
    # back-off form: stored P is the interpolated value, bow(h) = gamma(h);
    # rule maps one order's count values to its (D1, D2, D3+) discounts
    tables = [None] + [dict() for _ in range(order)]
    probs = [None] + [dict() for _ in range(order)]  # linear-domain interpolated p

    uni = {g: c for g, c in counts[1].items() if g != (BOS,)}
    discounts = rule(uni.values())
    denom = sum(uni.values())
    removed = sum(_discount_for(c, discounts) for c in uni.values())
    gamma1 = removed / denom
    v_pred = len(vocab) - 1  # everything but <s> is predictable
    for w in vocab:
        if w == BOS:
            continue
        c = uni.get((w,), 0)
        p = max(c - _discount_for(c, discounts), 0.0) / denom + gamma1 / v_pred
        probs[1][(w,)] = p
        tables[1][(w,)] = (math.log10(p), None)
    tables[1][(BOS,)] = (LOG10_ZERO, None)

    for n in range(2, order + 1):
        grams = counts[n]
        discounts = rule(grams.values())
        denoms: dict[tuple, int] = {}
        removed_by_hist: dict[tuple, float] = {}
        for gram, c in grams.items():
            h = gram[:-1]
            denoms[h] = denoms.get(h, 0) + c
            removed_by_hist[h] = removed_by_hist.get(h, 0.0) + _discount_for(c, discounts)
        gammas = {h: removed_by_hist[h] / denoms[h] for h in denoms}
        for gram, c in grams.items():
            h = gram[:-1]
            p = (max(c - _discount_for(c, discounts), 0.0) / denoms[h]
                 + gammas[h] * probs[n - 1][gram[1:]])
            probs[n][gram] = p
            tables[n][gram] = (math.log10(p), None)
        for h, gamma in gammas.items():
            logp, _ = tables[n - 1][h]
            tables[n - 1][h] = (logp, math.log10(gamma) if gamma > 0 else LOG10_ZERO)
    return tables


def lm_score(model: ArpaModel, history: Sequence[str], word: str) -> float:
    """log10 P(word | history) under standard back-off semantics.

    The longest matching n-gram wins; otherwise back-off weights accumulate
    down to the unigram.  OOV words (in the history or the prediction) map
    to <unk>.
    """
    w = model.map_word(word)
    h = tuple(model.map_word(x) for x in history[max(0, len(history) - model.order + 1):])
    return _backoff(model, h, w)


def _backoff(model, h, w):
    # ``w`` is a listed unigram or <unk>, which every model holds, so the gram is found by h == ()
    gram = h + (w,)
    entry = model.tables[len(gram)].get(gram)
    if entry is not None:
        return entry[0]
    h_entry = model.tables[len(h)].get(h)
    bow = h_entry[1] if h_entry is not None and h_entry[1] is not None else 0.0
    return bow + _backoff(model, h[1:], w)


def sentence_logprob(model: ArpaModel, sentence: str) -> tuple[float, int]:
    """Total log10 probability of a sentence including the </s> event."""
    words = sentence.split()
    history: tuple[str, ...] = (BOS,)
    total = 0.0
    for w in words + [EOS]:
        total += lm_score(model, history, w)
        history = history + (model.map_word(w),)
    return total, len(words) + 1


def perplexity(model: ArpaModel, text: Iterable[str]) -> float:
    """10^(-average log10 prob per token), end markers included; ``inf``
    when that overflows a float."""
    total = 0.0
    count = 0
    for sentence in text:
        lp, n = sentence_logprob(model, sentence)
        total += lp
        count += n
    if count == 0:
        raise ValueError("cannot compute perplexity of empty text")
    try:
        return 10.0 ** (-total / count)
    except OverflowError:
        return math.inf


def normalization_mass(model: ArpaModel, history: Sequence[str]) -> float:
    """Sum of P(w|history) over the whole vocabulary (diagnostic)."""
    return sum(10.0 ** lm_score(model, history, w) for w in model.vocab)


def arpa_write(model: ArpaModel, path) -> None:
    """Serialize to the textual ARPA format.

    Sections: a ``\\data\\`` header with per-order counts, then per-order
    ``\\n-grams:`` blocks of "logprob TAB n-gram TAB backoff" (back-off
    column omitted for non-histories), then ``\\end\\``.  Grams are sorted
    for byte-stable output.  A model that ``arpa_read`` would reject as
    written (a value that ten decimals round onto a range end, say) raises
    ArpaError naming the file, and nothing is written.
    """
    lines = ["\\data\\"]
    for n in range(1, model.order + 1):
        lines.append(f"ngram {n}={len(model.tables[n])}")
    read_back: list = [None]   # the tables as arpa_read parses the lines
    for n in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{n}-grams:")
        table = {}
        for gram in sorted(model.tables[n]):
            logp, bow = model.tables[n][gram]
            p = _fmt(logp)
            if bow is None:
                lines.append(f"{p}\t{' '.join(gram)}")
                table[gram] = (float(p), None)
            else:
                b = _fmt(bow)
                lines.append(f"{p}\t{' '.join(gram)}\t{b}")
                table[gram] = (float(p), float(b))
        read_back.append(table)
    with located(path, ArpaError):
        ArpaModel(tuple(read_back))
    write_lines(path, lines + ["", "\\end\\"])


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def arpa_read(path) -> ArpaModel:
    """Parse an ARPA file, validating counts and history closure.

    Bad input raises ArpaError naming the file, as ``path:line`` when one
    line is at fault.
    """
    with located(path, ArpaError) as at:
        lines = read_utf8(path).splitlines()
        i = 0
        while i < len(lines) and lines[i].strip() != "\\data\\":
            i += 1
        if i == len(lines):
            raise ArpaError("missing \\data\\ header")
        i += 1
        declared: dict[int, int] = {}
        while i < len(lines) and lines[i].strip():
            part = lines[i].strip()
            i += 1
            m = re.fullmatch(r"ngram\s+(\d+)\s*=\s*(\d+)", part)
            if m is None:
                at.line = i
                raise ArpaError(f"bad data line {part!r}")
            declared[int(m[1])] = int(m[2])
        if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
            raise ArpaError(f"non-contiguous n-gram orders {sorted(declared)}")
        order = max(declared)

        tables: list = [None] + [dict() for _ in range(order)]
        current: Optional[int] = None
        ended = False
        for at.line, raw in enumerate(lines[i:], i + 1):
            line = raw.strip()
            if not line:
                continue
            if line == "\\end\\":
                ended = True
                break
            if line.startswith("\\") and line.endswith("-grams:"):
                current = int(line[1:-len("-grams:")])
                if current not in declared:
                    raise ValueError(f"undeclared section {line!r}")
                continue
            if current is None:
                raise ValueError(f"entry outside any n-grams section: {line!r}")
            fields = line.split("\t")
            if len(fields) == 1:  # tolerate space-separated files from other tools
                words = line.split()
                bow = [words.pop()] if len(words) == current + 2 else []
                fields = [words[0], " ".join(words[1:])] + bow
            if len(fields) not in (2, 3):
                raise ValueError(f"malformed entry {raw!r}")
            gram = tuple(fields[1].split())
            if len(gram) != current:
                raise ValueError(f"{fields[1]!r} is not a {current}-gram")
            if gram in tables[current]:
                raise ValueError(f"duplicate {current}-gram {fields[1]!r}")
            tables[current][gram] = (float(fields[0]),
                                     float(fields[2]) if len(fields) == 3 else None)
        at.line = None
        if not ended:
            raise ArpaError("missing \\end\\ marker")
        for n, want in declared.items():
            if len(tables[n]) != want:
                raise ArpaError(f"declared {want} {n}-grams, found {len(tables[n])}")
        return ArpaModel(tuple(tables))
