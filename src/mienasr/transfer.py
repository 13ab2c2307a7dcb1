"""Output-head initialization from pre-trained phoneme embeddings.

Each row of the pre-trained linear head is the embedding of one phoneme.
For a target vocabulary, rows whose token also appears among the source
labels are copied bit-exactly; the rest are drawn uniformly from
[-scale, +scale] with a seeded generator.  The blank row always copies from
the source blank.  Tone-digit tokens never match: the pre-training
vocabulary carries no tone information, so they are always randomized.

Matching is exact by default; the ``normalize`` flag compares
diacritic-stripped forms instead, for source vocabularies that follow a
split-diphthong / no-diacritic convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import BLANK_TOKEN
from .inputs import located, read_utf8, write_lines
from .lexicon import PhonemeVocab, strip_token


@dataclass(frozen=True)
class EmbeddingMatrix:
    rows: np.ndarray          # V x d
    row_labels: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValueError(f"embedding matrix must be V x d with d > 0, got {rows.shape}")
        if rows.shape[0] != len(self.row_labels):
            raise ValueError("row count does not match label count")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"row {i} ({self.row_labels[i]!r}) holds NaN or inf")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def row_of(self, label: str) -> int:
        return self.row_labels.index(label)


@dataclass(frozen=True)
class TransferReport:
    copied: tuple[tuple[str, int], ...]     # (target token, source row index)
    randomized: tuple[str, ...]

    @property
    def coverage(self) -> float:
        """Share of the target's non-blank tokens copied from the source."""
        n_real = len(self.copied) + len(self.randomized)
        return len(self.copied) / n_real if n_real else 0.0


def match_tokens(
    src_labels: Sequence[str], tgt_vocab: PhonemeVocab, normalize: bool = False
) -> dict[str, int]:
    """Map target tokens to source row indices.

    Exact string match by default; with ``normalize`` both sides are
    diacritic-stripped first.  The first source occurrence of a key wins.
    Tone digits and the blank are excluded.
    """
    key = strip_token if normalize else str
    index = {}
    for i, lab in enumerate(src_labels):
        index.setdefault(key(lab), i)
    matches = {}
    for tok in tgt_vocab.tokens[1:]:
        if tok.isdigit():
            continue
        hit = index.get(key(tok))
        if hit is not None:
            matches[tok] = hit
    return matches


def transfer_init(
    src: EmbeddingMatrix,
    tgt_vocab: PhonemeVocab,
    seed: int = 0,
    scale: Optional[float] = None,
    normalize: bool = False,
) -> tuple[EmbeddingMatrix, TransferReport]:
    """Build the target head: copy shared-phoneme rows, randomize the rest.

    ``scale`` defaults to 1/sqrt(d); it must be positive with 2 * scale
    finite, or the draw overflows.  Random rows are drawn in target-vocab
    order from one seeded stream, so equal seeds reproduce them exactly.
    The source must contain a blank row for the target blank to copy.
    """
    d = src.dim
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    if not (scale > 0 and math.isfinite(2 * scale)):   # the draw spans 2 * scale
        raise ValueError(f"scale must be positive with 2 * scale finite, got {scale}")
    if BLANK_TOKEN not in src.row_labels:
        raise ValueError("source matrix has no blank row to copy")

    matches = match_tokens(src.row_labels, tgt_vocab, normalize=normalize)
    rng = np.random.default_rng(seed)
    out = np.empty((len(tgt_vocab), d), dtype=np.float64)
    copied = []
    randomized = []
    blank_row = src.row_of(BLANK_TOKEN)
    for i, tok in enumerate(tgt_vocab.tokens):
        if i == 0:
            out[i] = src.rows[blank_row]
            continue
        hit = matches.get(tok)
        if hit is not None:
            out[i] = src.rows[hit]
            copied.append((tok, hit))
        else:
            out[i] = rng.uniform(-scale, scale, size=d)
            randomized.append(tok)
    report = TransferReport(copied=tuple(copied), randomized=tuple(randomized))
    return EmbeddingMatrix(rows=out, row_labels=tgt_vocab.tokens), report


def write_matrix(mat: EmbeddingMatrix, path) -> None:
    """Text format: header "V d", then V lines of "label v1 ... vd"."""
    lines = [f"{mat.rows.shape[0]} {mat.dim}"]
    for label, row in zip(mat.row_labels, mat.rows):
        lines.append(label + " " + " ".join(f"{x:.17g}" for x in row))
    write_lines(path, lines)


def read_matrix(path) -> EmbeddingMatrix:
    with located(path) as at:
        lines = [(n, ln) for n, ln in enumerate(read_utf8(path).splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty matrix file")
        at.line, header = lines[0]
        fields = header.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise ValueError("expected a 'rows dims' header line")
        at.line = None
        v, d = (int(f) for f in fields)
        if len(lines) - 1 != v:
            raise ValueError(f"header declares {v} rows, found {len(lines) - 1}")
        labels, rows = [], []
        for at.line, line in lines[1:]:
            label, *values = line.split()
            if len(values) != d:
                raise ValueError(f"row {len(rows)} has {len(values)} values, expected {d}")
            row = [float(x) for x in values]
            if not all(map(math.isfinite, row)):
                raise ValueError(f"row {len(rows)} holds NaN or inf")
            labels.append(label)
            rows.append(row)
        at.line = None
        return EmbeddingMatrix(rows=np.array(rows, dtype=np.float64).reshape(v, d),
                               row_labels=tuple(labels))
