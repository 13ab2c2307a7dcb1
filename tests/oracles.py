"""References that the tests compare the library with.

Enumeration of every CTC path and of every word sequence, emission files
written byte by byte, the textbook edit-distance recurrence, and a language
model whose perplexity is known.
None shares code with the computation it checks, so a fault there cannot
hide in its own reference.  Tests import them from here, so each reference
has one definition; pytest collects no tests from this module.
"""

import math
import struct
from itertools import product

import numpy as np

from mienasr.ctc import collapse
from mienasr.decoder import LN10
from mienasr.evaluate import ScoreReport
from mienasr.lm import BOS, EOS, LOG10_ZERO, ArpaModel, lm_score


# -- CTC paths -----------------------------------------------------------------

def collapsed_mass(logits):
    """Acoustic mass of every collapsed label sequence, by enumeration of all
    V ** T paths in ``itertools.product`` order."""
    T, V = logits.shape
    mass = {}
    for path in product(range(V), repeat=T):
        key = tuple(collapse(path))
        mass[key] = mass.get(key, 0.0) + math.exp(sum(logits[t, k] for t, k in enumerate(path)))
    return mass


def brute_force_likelihood(logits, labels):
    """P(labels): the mass of the paths that collapse to ``labels``, 0.0 if none."""
    return collapsed_mass(logits).get(tuple(labels), 0.0)


# -- emission files, as another writer stores them ------------------------------

def stored_emissions(path, rows, binary):
    """``rows`` stored as they are, checked by nothing: as float32 cells in the
    EMISMAT1 container, or as text, a "T V" header and rows of float64 ``repr``."""
    cells = np.asarray(rows, dtype=np.float64)
    T, V = cells.shape
    if binary:
        with np.errstate(over="ignore"):
            payload = cells.astype("<f4").tobytes()
        path.write_bytes(b"EMISMAT1" + struct.pack("<II", T, V) + payload)
    else:
        path.write_text(f"{T} {V}\n" + "".join(" ".join(map(repr, row)) + "\n"
                                               for row in cells.tolist()), encoding="utf-8")


# -- lexicon decoding ------------------------------------------------------------

def lm_log10(model, words):
    """log10 P(words </s> | <s>), word by word; 0.0 without a model."""
    if model is None:
        return 0.0
    total, h = 0.0, (BOS,)
    for w in words:
        total += lm_score(model, h, w)
        h = h + (w,)
    return total + lm_score(model, h, EOS)


def brute_force_phoneme(logits, entries, vocab, model, lm_weight, wip):
    """Best (words, score) over all (word sequence, alignment) pairs, None if
    no word sequence has mass; ties go to the smaller word sequence."""
    mass = collapsed_mass(logits)
    pron_ids = {e.word: tuple(vocab.index(t) for t in e.pron) for e in entries}
    T = logits.shape[0]
    best = [None]

    def consider(seq, ids):
        m = mass.get(ids, 0.0)
        if m > 0.0:
            score = math.log(m) + lm_weight * LN10 * lm_log10(model, seq) + wip * len(seq)
            cand = (-score, seq)
            if best[0] is None or cand < best[0]:
                best[0] = cand

    def rec(seq, ids):
        consider(seq, ids)
        if len(ids) >= T:
            return
        for w in sorted(pron_ids):
            nids = ids + pron_ids[w]
            if len(nids) <= T:
                rec(seq + (w,), nids)

    rec((), ())
    return (best[0][1], -best[0][0]) if best[0] else None


# -- language models ---------------------------------------------------------------

def uniform_lm(words):
    """Unigram model giving each of ``words`` probability 1/len(words) and <s>
    none: its perplexity on a text of listed words is exactly len(words).
    ``words`` must hold </s> and <unk>."""
    logp = math.log10(1.0 / len(words))
    table = {(w,): (logp, None) for w in words}
    table[(BOS,)] = (LOG10_ZERO, None)
    return ArpaModel(order=1, tables=(None, table))


# -- edit distance (Wagner and Fischer 1974) ---------------------------------------

def edit_column(ref, column, tok):
    """One Wagner-Fischer step: ``column[i]`` is the edit distance from
    ``ref[:i]`` to a hypothesis, and the result holds the distances to that
    hypothesis extended by ``tok``."""
    out = [column[0] + 1]
    for i, r in enumerate(ref):
        out.append(min(column[i] + (r != tok), out[i] + 1, column[i + 1] + 1))
    return out


def edit_distances(ref, hyps):
    """Edit distance from ``ref`` to each of the tuples ``hyps``, in order.

    Each hypothesis's column extends its parent's, ``hyp[:-1]``, by one step,
    so every hypothesis's parent must come before it in ``hyps``."""
    columns = {}
    for hyp in hyps:
        columns[hyp] = (edit_column(ref, columns[hyp[:-1]], hyp[-1]) if hyp
                        else list(range(len(ref) + 1)))
    return [columns[hyp][-1] for hyp in hyps]


def ref_error_rate(ref, hyp):
    """The report of the (n+1) x (m+1) distance table's backtrace; ties
    prefer substitution over insertion over deletion."""
    if len(ref) == 0:
        return ScoreReport(0, 0, len(hyp), 0)
    dist = [list(range(len(ref) + 1))]   # dist[j][i]: ref[:i] against hyp[:j]
    for tok in hyp:
        dist.append(edit_column(ref, dist[-1], tok))

    subs = ins = dels = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[j][i] == dist[j - 1][i - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[j][i] == dist[j - 1][i] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return ScoreReport(subs, dels, ins, len(ref))
