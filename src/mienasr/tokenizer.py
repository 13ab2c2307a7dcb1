"""Byte-pair-encoding subword tokenizer for the subword modeling path.

Plain BPE over whitespace-pretokenized text: word-initial symbols carry the
boundary marker "▁" as a prefix, training repeatedly merges the most frequent
adjacent symbol pair, and ties break on the lexicographically smallest pair
so two runs over the same corpus always produce the same merge list.

Vocabulary ids are dense from 0 with the CTC blank at id 0 and <unk> at id 1.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import BLANK_TOKEN, UNK_TOKEN

logger = logging.getLogger(__name__)

MARKER = "▁"  # ▁ prefix on word-initial symbols
_FILE_HEADER = "mienasr-bpe v1"


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge list plus the id-dense vocabulary."""

    merges: tuple[tuple[str, str], ...]
    vocab: tuple[str, ...]

    def __post_init__(self):
        if self.vocab[:2] != (BLANK_TOKEN, UNK_TOKEN):
            raise ValueError("vocab must start with the blank and unk specials")
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("duplicate tokens in vocab")

    @property
    def token_to_id(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocab)}

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

    words = {w: _word_symbols(w) for w in word_freq}
    alphabet = sorted({s for syms in words.values() for s in syms})
    base = 2 + len(alphabet)  # specials + initial symbols
    if vocab_size <= base:
        raise ValueError(
            f"vocab_size {vocab_size} must exceed specials + distinct characters ({base})"
        )

    merges: list[tuple[str, str]] = []
    merged_tokens: list[str] = []
    while base + len(merges) < vocab_size:
        pairs = Counter()
        for w, syms in words.items():
            f = word_freq[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += f
        if not pairs:
            break
        top = max(pairs.values())
        if top < 2:
            break
        best = min(p for p, c in pairs.items() if c == top)
        merges.append(best)
        merged_tokens.append(best[0] + best[1])
        words = {w: _merge_word(syms, best) for w, syms in words.items()}

    size = base + len(merges)
    if size < vocab_size:
        logger.warning(
            "vocab_size %d unreachable: no repeated pairs left after %d merges "
            "(vocab has %d tokens)", vocab_size, len(merges), size,
        )
    vocab = (BLANK_TOKEN, UNK_TOKEN) + tuple(alphabet) + tuple(merged_tokens)
    return BpeModel(merges=tuple(merges), vocab=vocab)


def bpe_encode(text: str, model: BpeModel) -> list[int]:
    """Encode text to token ids by replaying merges in training order.

    Characters unseen at training time map to the unk id.
    """
    ids: list[int] = []
    to_id = model.token_to_id
    for word in text.split():
        symbols = _word_symbols(word)
        for pair in model.merges:
            symbols = _merge_word(symbols, pair)
        ids.extend(to_id.get(s, model.unk_id) for s in symbols)
    return ids


def bpe_decode(ids: Sequence[int], model: BpeModel) -> str:
    """Invert encoding: concatenate tokens and restore spaces at markers."""
    parts = []
    for i in ids:
        if not 0 <= i < len(model.vocab):
            raise ValueError(f"token id {i} out of range for vocab of {len(model.vocab)}")
        parts.append(model.vocab[i])
    return "".join(parts).replace(MARKER, " ").strip()


def token_ids_to_words(ids: Sequence[int], model: BpeModel) -> list[str]:
    """Group a token-id sequence into words at boundary markers."""
    words: list[str] = []
    current = ""
    for i in ids:
        tok = model.vocab[i]
        if tok.startswith(MARKER):
            if current:
                words.append(current)
            current = tok[len(MARKER):]
        else:
            current += tok
    if current:
        words.append(current)
    return words


def save_bpe(model: BpeModel, path) -> None:
    """Plain-text model file: versioned header, merges list, vocab list."""
    lines = [_FILE_HEADER, "[merges]"]
    lines += [f"{a}\t{b}" for a, b in model.merges]
    lines.append("[vocab]")
    lines += list(model.vocab)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_bpe(path) -> BpeModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _FILE_HEADER:
        raise ValueError(f"{path}: not a {_FILE_HEADER!r} model file")
    if lines[1:2] != ["[merges]"]:
        raise ValueError(f"{path}:2: expected [merges] section")
    if "[vocab]" not in lines:
        raise ValueError(f"{path}: missing [vocab] section")
    end = lines.index("[vocab]")
    merges = []
    for lineno, line in enumerate(lines[2:end], 3):
        pair = tuple(line.split("\t"))
        if len(pair) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'left TAB right' merge")
        merges.append(pair)
    vocab = tuple(ln for ln in lines[end + 1:] if ln)
    return BpeModel(merges=tuple(merges), vocab=vocab)
