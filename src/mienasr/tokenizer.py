"""Byte-pair-encoding subword tokenizer for the subword modeling path.

Plain BPE over whitespace-pretokenized text: word-initial symbols carry the
boundary marker "▁" as a prefix, and training repeatedly merges the most
frequent adjacent symbol pair, counted over word types weighted by their
corpus frequency.  Ties break on the smallest pair (code-point order of the
left symbol, then the right), so two runs over the same corpus always produce
the same merge list.  Merging stops at the target size or once no pair occurs
twice.

Training counts pairs once and then keeps the counts up to date: an index
maps each pair to the words that may hold it, and a merge re-segments only
those words, subtracting their old pairs and adding their new ones.  The
next merge is the top of a lazy max-heap keyed ``(-count, pair)`` whose
stale entries (count no longer current) are skipped, which is exactly the
highest-count, smallest-pair rule above.

Encoding a word equals replaying every merge in training order.  A merge
whose pair is absent from the word changes nothing, so the encoder jumps
straight to the lowest-ranked merge that is present and ranked after the
last one applied, until none is left.  This is not the greedy "lowest rank
present" rule: where a merge uses a token that only a later merge forms,
greedy would apply the earlier merge after the later one, and replay never
does.  A word's ids depend on the word alone, so each model keeps the ids of
every word it has encoded and replays a word's merges only once.

Vocabulary ids are dense from 0 with the CTC blank at id 0 and <unk> at id 1.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import BLANK_TOKEN, UNK_TOKEN
from .inputs import located, read_utf8, token_lines, write_lines
from .lexicon import PhonemeVocab

logger = logging.getLogger(__name__)

MARKER = "▁"  # ▁ prefix on word-initial symbols
_FILE_HEADER = "mienasr-bpe v1"


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge list plus the id-dense vocabulary.

    Every merge's two parts and its result are vocab tokens, and no merge
    repeats, so each pair has one rank.
    """

    merges: tuple[tuple[str, str], ...]
    vocab: tuple[str, ...]

    def __post_init__(self):
        PhonemeVocab(self.vocab)   # the blank at id 0, no token twice
        if self.vocab[1:2] != (UNK_TOKEN,):
            raise ValueError(f"vocab id 1 must be {UNK_TOKEN!r}, got {list(self.vocab[1:2])}")
        tokens, seen = set(self.vocab), set()
        for pair in self.merges:
            missing = next((t for t in (*pair, pair[0] + pair[1]) if t not in tokens), None)
            if missing is not None:
                raise ValueError(f"merge {pair!r}: token {missing!r} not in vocab")
            if pair in seen:
                raise ValueError(f"merge {pair!r} repeated")
            seen.add(pair)

    @cached_property
    def token_to_id(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocab)}

    @cached_property
    def _ranks(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}

    @cached_property
    def _word_ids(self) -> dict[str, tuple[int, ...]]:
        return {}   # filled by bpe_encode, one entry per distinct word encoded

    @property
    def unk_id(self) -> int:
        return 1


def _word_symbols(word: str) -> tuple[str, ...]:
    return (MARKER + word[0],) + tuple(word[1:])


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def bpe_train(corpus: Iterable[str], vocab_size: int) -> BpeModel:
    """Train a BPE model targeting ``vocab_size`` tokens (specials included).

    Merging stops early (with a warning) once no adjacent pair occurs twice,
    so the returned vocab may be smaller than requested.  Requires
    vocab_size > number of distinct initial symbols + specials.
    """
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("empty training corpus")
    marked = next((w for w in word_freq if MARKER in w), None)
    if marked is not None:
        raise ValueError(f"training word {marked!r} holds the word-boundary marker {MARKER!r}")

    words = {w: _word_symbols(w) for w in word_freq}
    alphabet = sorted({s for syms in words.values() for s in syms})
    base = 2 + len(alphabet)  # specials + initial symbols
    if vocab_size <= base:
        raise ValueError(
            f"vocab_size {vocab_size} must exceed specials + distinct characters ({base})"
        )

    counts: dict[tuple[str, str], int] = defaultdict(int)
    holders: dict[tuple[str, str], set[str]] = defaultdict(set)  # words that hold or held it
    for w, syms in words.items():
        for pair in zip(syms, syms[1:]):
            counts[pair] += word_freq[w]
            holders[pair].add(w)
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    while base + len(merges) < vocab_size:
        while heap and counts[heap[0][1]] != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        best = heapq.heappop(heap)[1]
        merges.append(best)
        merged_tokens.append(best[0] + best[1])
        delta: dict[tuple[str, str], int] = defaultdict(int)
        for w in holders.pop(best):
            old, f = words[w], word_freq[w]
            new = words[w] = _merge_word(old, best)
            for pair in zip(old, old[1:]):
                delta[pair] -= f
            for pair in zip(new, new[1:]):
                delta[pair] += f
                holders[pair].add(w)
        for pair, d in delta.items():
            if d:
                counts[pair] += d
                if counts[pair]:
                    heapq.heappush(heap, (-counts[pair], pair))

    size = base + len(merges)
    if size < vocab_size:
        logger.warning(
            "vocab_size %d unreachable: no repeated pairs left after %d merges "
            "(vocab has %d tokens)", vocab_size, len(merges), size,
        )
    vocab = (BLANK_TOKEN, UNK_TOKEN) + tuple(alphabet) + tuple(merged_tokens)
    return BpeModel(merges=tuple(merges), vocab=vocab)


def bpe_encode(text: str, model: BpeModel) -> list[int]:
    """Encode text to token ids, as if replaying merges in training order.

    Characters unseen at training time map to the unk id.
    """
    ids: list[int] = []
    memo = model._word_ids
    for word in text.split():
        word_ids = memo.get(word)
        if word_ids is None:
            word_ids = memo[word] = _encode_word(word, model)
        ids.extend(word_ids)
    return ids


def _encode_word(word: str, model: BpeModel) -> tuple[int, ...]:
    ranks, merges, to_id, unk = model._ranks, model.merges, model.token_to_id, model.unk_id
    symbols = _word_symbols(word)
    last = -1
    while True:
        present = [r for r in map(ranks.get, zip(symbols, symbols[1:]))
                   if r is not None and r > last]
        if not present:
            break
        last = min(present)
        symbols = _merge_word(symbols, merges[last])
    return tuple(to_id.get(s, unk) for s in symbols)


def bpe_decode(ids: Sequence[int], model: BpeModel) -> str:
    """Invert encoding: concatenate tokens and restore spaces at markers."""
    parts = []
    for i in ids:
        if not 0 <= i < len(model.vocab):
            raise ValueError(f"token id {i} out of range for vocab of {len(model.vocab)}")
        parts.append(model.vocab[i])
    return "".join(parts).replace(MARKER, " ").strip()


def save_bpe(model: BpeModel, path) -> None:
    """Plain-text model file: versioned header, merges list, vocab list."""
    lines = [_FILE_HEADER, "[merges]"]
    lines += [f"{a}\t{b}" for a, b in model.merges]
    lines.append("[vocab]")
    write_lines(path, lines + list(model.vocab))


def load_bpe(path) -> BpeModel:
    with located(path) as at:
        lines = read_utf8(path).splitlines()
        if not lines or lines[0] != _FILE_HEADER:
            raise ValueError(f"not a {_FILE_HEADER!r} model file")
        if lines[1:2] != ["[merges]"]:
            at.line = 2
            raise ValueError("expected [merges] section")
        if "[vocab]" not in lines:
            raise ValueError("missing [vocab] section")
        end = lines.index("[vocab]")
        merges = []
        for at.line, line in enumerate(lines[2:end], 3):
            pair = tuple(line.split("\t"))
            if len(pair) != 2:
                raise ValueError("expected 'left TAB right' merge")
            merges.append(pair)
        vocab = token_lines(lines[end + 1:], at, end + 2)
        return BpeModel(merges=tuple(merges), vocab=vocab)
