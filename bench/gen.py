"""Seeded synthetic inputs: random IMUC words, a Zipf corpus and emissions.

Everything here is a pure function of a ``numpy.random.Generator`` built
from the benchmark seed; the program under test only ever sees the files
these functions write.  Vocabularies that emissions must match are derived
through the package's own public functions, and any disagreement raises
``InputError`` instead of trying another seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mienasr import BLANK_ID
from mienasr.ctc import write_emissions
from mienasr.decoder import build_prefix_tree
from mienasr.evaluate import make_cv_plan
from mienasr.lexicon import G2PError, build_lexicon, derive_phoneme_vocab, g2p
from mienasr.lm import lm_train
from mienasr.orthography import ParseError, parse_word
from mienasr.tokenizer import bpe_encode, bpe_train


class InputError(RuntimeError):
    """Generated inputs do not have the shape the workload needs."""


@dataclass
class Corpus:
    words: list[str]                 # vocabulary, Zipf rank order
    utts: list[tuple[str, str]]      # (utt id, transcript)

    def texts(self, ids) -> list[str]:
        by_id = dict(self.utts)
        return [by_id[u] for u in ids]


def random_words(rng, inv, table, n: int, max_syllables: int = 3) -> list[str]:
    """``n`` distinct G2P-convertible words of 1..max_syllables syllables."""
    onsets = ("",) + tuple(sorted(inv.initials))
    finals = tuple(sorted(inv.finals))
    tones = ("",) + tuple(inv.tone_letters)
    words: dict[str, None] = {}
    while len(words) < n:
        k = int(rng.integers(1, max_syllables + 1))
        w = "".join(onsets[rng.integers(len(onsets))] + finals[rng.integers(len(finals))]
                    + tones[rng.integers(len(tones))] for _ in range(k))
        if w in words:
            continue
        try:
            g2p(w, table, inv)
        except (G2PError, ParseError):
            continue
        words[w] = None
    return list(words)


def cover_first(words: list[str], table, inv) -> list[str]:
    """Reorder so the first words cover every phoneme of the whole list.

    The Zipf corpus gives the first ranks the most occurrences, so every
    phoneme then reaches every training fold and all folds derive the same
    phoneme vocabulary as the full list.
    """
    prons = {w: set(g2p(w, table, inv).pron) for w in words}
    missing = set().union(*prons.values())
    head: list[str] = []
    while missing:
        best = max(words, key=lambda w: len(prons[w] & missing))  # first of equals
        head.append(best)
        missing -= prons[best]
    return head + [w for w in words if w not in head]


def zipf_corpus(rng, words: list[str], n_utts: int, lengths: tuple[int, int],
                exponent: float = 1.0) -> Corpus:
    """Utterances of ``lengths[0]..lengths[1]`` words drawn by Zipf rank."""
    p = 1.0 / np.arange(1, len(words) + 1) ** exponent
    p /= p.sum()
    utts = []
    for i in range(n_utts):
        k = int(rng.integers(lengths[0], lengths[1] + 1))
        utts.append((f"u{i:05d}", " ".join(words[j] for j in rng.choice(len(words), k, p=p))))
    return Corpus(words=words, utts=utts)


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    rows = rows - rows.max(axis=1, keepdims=True)
    return rows - np.log(np.exp(rows).sum(axis=1, keepdims=True))


def peaky_emissions(rng, ids, width: int, frames: int, peak: float = 6.0,
                    noise: float = 1.5) -> np.ndarray:
    """Blank-dominated CTC-like rows, at least ``frames`` long.

    One frame per token with at least one blank before the first token and
    after each token; the remaining frames are blanks spread at random over
    those gaps.  A fixed length keeps the decoder's work per utterance
    steady across seeds.
    """
    extra = max(0, frames - (2 * len(ids) + 1))
    gaps = 1 + rng.multinomial(extra, np.full(len(ids) + 1, 1.0 / (len(ids) + 1)))
    path = [BLANK_ID] * int(gaps[0])
    for i, gap in zip(ids, gaps[1:]):
        path.append(i)
        path.extend([BLANK_ID] * int(gap))
    return _noisy_rows(rng, path, width, peak, noise)


def flat_emissions(rng, ids, width: int, frames: int, peak: float = 5.0) -> np.ndarray:
    """Gaussian noise plus a +5 peak: a weak acoustic model, many live prefixes.

    Tokens take one frame each with a blank between repeats; trailing blanks
    pad the utterance to at least ``frames``.
    """
    path = []
    for i in ids:
        if path and path[-1] == i:
            path.append(BLANK_ID)
        path.append(i)
    path.extend([BLANK_ID] * max(1, frames - len(path)))
    return _noisy_rows(rng, path, width, peak, 1.0)


def _noisy_rows(rng, path, width: int, peak: float, noise: float) -> np.ndarray:
    rows = rng.normal(0.0, noise, (len(path), width))
    rows[np.arange(len(path)), path] += peak
    return _log_softmax(rows)


def write_corpus(path, utts) -> None:
    path.write_text("".join(f"{u}\t{t}\n" for u, t in utts), encoding="utf-8")


def phoneme_setup(rng, inv, table, corpus: Corpus, folds: int, runs: int, seed: int,
                  frames: int, em_dir) -> dict:
    """Peaky phoneme emissions for every utterance, checked against each run.

    Each run's training lexicon must derive the same phoneme vocabulary as
    the whole vocabulary, since one emission file serves all runs.
    """
    entries, failures = build_lexicon(corpus.words, table, inv)
    if failures:
        raise InputError(f"{len(failures)} generated words are not convertible")
    vocab = derive_phoneme_vocab(entries)
    pron = {e.word: e.pron for e in entries}
    plan = make_cv_plan([u for u, _ in corpus.utts], folds, runs, seed)
    oov_utts = trie_nodes = 0
    for r in range(runs):
        train_words = [w for t in corpus.texts(plan.train_ids(r)) for w in t.split()]
        run_entries, _ = build_lexicon(train_words, table, inv)
        run_vocab = derive_phoneme_vocab(run_entries)
        if run_vocab.tokens != vocab.tokens:
            raise InputError(f"run {r}: train vocabulary has {len(run_vocab)} tokens, "
                             f"emissions have {len(vocab)}")
        known = set(train_words)
        oov_utts += sum(any(w not in known for w in t.split())
                        for t in corpus.texts(plan.test_ids(r)))
        trie_nodes += build_prefix_tree(run_entries, run_vocab).node_count
    n_frames = []
    greedy_refs = {}
    for utt, text in corpus.utts:
        ids = [vocab.index(tok) for w in text.split() for tok in pron[w]]
        logits = peaky_emissions(rng, ids, len(vocab), frames)
        write_emissions(em_dir / f"{utt}.em", logits)
        n_frames.append(len(logits))
        greedy_refs[utt] = ids
    n_test = sum(len(plan.test_ids(r)) for r in range(runs))
    return {"props": {"utterances": len(corpus.utts), "vocab_words": len(corpus.words),
                      "V": len(vocab), "mean_frames": float(np.mean(n_frames)),
                      "oov_utt_share": oov_utts / n_test,
                      "trie_nodes_per_run": trie_nodes / runs},
            "plan": plan, "labels": greedy_refs}


def subword_setup(rng, corpus: Corpus, folds: int, bpe_size: int, seed: int, frames: int,
                  em_dir) -> dict:
    """Flat BPE emissions, width taken from the model run 0 will train."""
    plan = make_cv_plan([u for u, _ in corpus.utts], folds, 1, seed)
    train = corpus.texts(plan.train_ids(0))
    bpe = bpe_train(train, bpe_size)
    n_frames = []
    labels = {}
    for utt, text in corpus.utts:
        ids = bpe_encode(text, bpe)
        logits = flat_emissions(rng, ids, len(bpe.vocab), frames)
        write_emissions(em_dir / f"{utt}.em", logits)
        n_frames.append(len(logits))
        labels[utt] = ids
    known = {w for t in train for w in t.split()}
    test = corpus.texts(plan.test_ids(0))
    lm = lm_train(train, order=4)
    return {"props": {"utterances": len(corpus.utts), "vocab_words": len(corpus.words),
                      "V": len(bpe.vocab), "mean_frames": float(np.mean(n_frames)),
                      "oov_utt_share": sum(any(w not in known for w in t.split())
                                           for t in test) / len(test),
                      "ngrams": [len(lm.tables[n]) for n in range(1, lm.order + 1)]},
            "plan": plan, "labels": labels}


def unparseable_tokens(rng, inv, n: int) -> list[str]:
    """Lowercase letter strings that the syllable parser rejects."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    out: dict[str, None] = {}
    while len(out) < n:
        s = "".join(rng.choice(letters, int(rng.integers(3, 8))))
        try:
            parse_word(s, inv)
        except ParseError:
            out[s] = None
    return list(out)
