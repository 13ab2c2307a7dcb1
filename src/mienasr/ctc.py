"""CTC alignment math over precomputed emission matrices.

An emission matrix holds per-frame log-posteriors over a token vocabulary
with the blank at index 0.  This module provides the forward-backward
negative log-likelihood (with an analytic gradient w.r.t. the log-posterior
entries), the collapse rule (remove repeats, then blanks), and greedy
decoding.  All probability arithmetic runs in natural-log space with
log-sum-exp; impossible events carry -inf and an infeasible label length
yields a +inf loss rather than an exception, so batch evaluation never
aborts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from . import BLANK_ID

_MAGIC = b"EMISMAT1"
NEG_INF = -np.inf


@dataclass(frozen=True)
class EmissionMatrix:
    """T x V log-probabilities, rows normalized, blank at index 0.

    A -inf cell marks an impossible token; NaN and +inf cells are rejected.
    """

    logits: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        object.__setattr__(self, "logits", logits)
        if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2:
            raise ValueError(f"emission matrix must be T>=1 by V>=2, got {logits.shape}")
        if np.isnan(logits).any() or np.isposinf(logits).any():
            raise ValueError("emission matrix holds NaN or +inf cells")
        lse = np.logaddexp.reduce(logits, axis=1)
        if np.max(np.abs(lse)) > 1e-5:
            raise ValueError("emission rows are not normalized log-probabilities")

    @property
    def frames(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]


def collapse(path: Sequence[int]) -> list[int]:
    """CTC collapse: remove adjacent repeats, then remove blanks."""
    return [k for k, _ in groupby(path) if k != BLANK_ID]


def min_frames(labels: Sequence[int]) -> int:
    """Shortest path length that can emit ``labels``: length + adjacent repeats."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _extended(labels: Sequence[int]) -> np.ndarray:
    ext = np.full(2 * len(labels) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _forward(logits: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """alpha[t, s]: log mass of the paths through frames 0..t that end in
    state s of the extended label sequence ``ext``, emission at t included."""
    T, S = logits.shape[0], len(ext)
    alpha = np.full((T, S), NEG_INF)
    alpha[0, :2] = logits[0, ext[:2]]
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    for t in range(1, T):
        stay = alpha[t - 1]
        prev = np.full(S, NEG_INF)
        prev[1:] = alpha[t - 1, :-1]
        skip = np.full(S, NEG_INF)
        skip[2:] = alpha[t - 1, :-2]
        skip[~skip_ok] = NEG_INF
        alpha[t] = np.logaddexp(np.logaddexp(stay, prev), skip) + logits[t, ext]
    return alpha


def ctc_loss(
    logits: np.ndarray | EmissionMatrix,
    labels: Sequence[int],
    with_grad: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Negative log-likelihood of ``labels`` under the CTC alignment model.

    ``logits`` is a T x V array of log-probabilities (or an EmissionMatrix).
    The loss treats the entries as free log-domain parameters, so the
    returned gradient d(-logP)/d(logits[t, k]) can be checked directly by
    finite differences; a -inf entry gets gradient 0.  Labels must not
    contain the blank id; a label sequence no path can emit (too long, or
    blocked by -inf entries) returns +inf with a zero gradient.
    """
    if isinstance(logits, EmissionMatrix):
        logits = logits.logits
    logits = np.asarray(logits, dtype=np.float64)
    T, V = logits.shape
    labels = list(labels)
    if any(not (0 < l < V) for l in labels):
        raise ValueError("labels must lie in [1, V)")

    ext = _extended(labels)
    alpha = _forward(logits, ext)
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2] if len(ext) > 1 else NEG_INF)
    if not with_grad:
        return float(-log_p)
    if log_p == NEG_INF:
        return np.inf, np.zeros_like(logits)

    # beta is the forward recursion run on time- and label-reversed input:
    # ext alternates blank and label, so reversal keeps the skip rule.  beta
    # includes the emission at frame t, so the log mass through (t, s) is
    # alpha + beta - logit, and -inf where the logit is -inf.
    beta = _forward(logits[::-1], ext[::-1])[::-1, ::-1]
    emit = logits[:, ext]
    occupancy = np.subtract(alpha + beta, emit, out=np.full_like(emit, NEG_INF),
                            where=emit > NEG_INF)
    grad = np.zeros_like(logits)
    for t in range(T):
        acc = np.full(V, NEG_INF)
        np.logaddexp.at(acc, ext, occupancy[t])
        grad[t] = -np.exp(acc - log_p)
    return float(-log_p), grad


def greedy_decode(em: EmissionMatrix | np.ndarray) -> list[int]:
    """Per-frame argmax followed by collapse."""
    logits = em.logits if isinstance(em, EmissionMatrix) else np.asarray(em)
    return collapse(np.argmax(logits, axis=1).tolist())


def normalize_rows(scores: np.ndarray) -> np.ndarray:
    """Renormalize arbitrary log-domain rows into log-probabilities."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores - np.logaddexp.reduce(scores, axis=1, keepdims=True)


def write_emissions(path, logits: np.ndarray, binary: bool = True) -> None:
    """Persist an emission matrix.

    Binary container: magic "EMISMAT1", uint32 T and V (little-endian), then
    T*V row-major float32 values.  The text alternative is a "T V" header
    line followed by T whitespace-separated rows.
    """
    logits = np.asarray(logits, dtype=np.float64)
    T, V = logits.shape
    path = Path(path)
    if binary:
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<II", T, V))
            f.write(logits.astype("<f4").tobytes(order="C"))
    else:
        lines = [f"{T} {V}"]
        lines += [" ".join(f"{x:.8e}" for x in row) for row in logits]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_emissions(path) -> EmissionMatrix:
    """Load an emission matrix, sniffing binary vs text by the magic string.

    Rows are renormalized on load so float32 storage round-trips cleanly
    through the normalization invariant.  Bad files raise ValueError naming
    the file (and the line, for text files).
    """
    path = Path(path)
    with open(path, "rb") as f:
        binary = f.read(len(_MAGIC)) == _MAGIC
        if binary:
            header = f.read(8)
            if len(header) != 8:
                raise ValueError(f"{path}: truncated emission header")
            T, V = struct.unpack("<II", header)
            data = np.frombuffer(f.read(4 * T * V), dtype="<f4").astype(np.float64)
            if data.size != T * V:
                raise ValueError(f"{path}: truncated emission payload")
            logits = data.reshape(T, V)
    if not binary:
        try:
            lines = path.read_text(encoding="utf-8").split("\n")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: neither an EMISMAT1 file nor UTF-8 text") from None
        try:
            T, V = (int(x) for x in lines[0].split())
        except ValueError:
            raise ValueError(f"{path}:1: expected a 'T V' header line") from None
        rows = []
        for lineno, line in enumerate(lines[1:T + 1], 2):
            try:
                rows.append([float(x) for x in line.split()])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            if len(rows[-1]) != V:
                raise ValueError(f"{path}:{lineno}: expected {V} values, found {len(rows[-1])}")
        if len(rows) != T:
            raise ValueError(f"{path}: header says {T} rows, found {len(rows)}")
        logits = np.array(rows, dtype=np.float64).reshape(T, V)
    # NaN and +inf propagate through max; an all -inf frame cannot be normalized
    if logits.size and not np.isfinite(logits.max(axis=1)).all():
        raise ValueError(f"{path}: a frame holds NaN or +inf, or no finite cell")
    try:
        return EmissionMatrix(logits=normalize_rows(logits))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
