"""Bundled synthetic fixtures: tiny experiments with recoverable truth.

The toy experiment writes five permutation utterances over a three-word
vocabulary, synthesizes peaked emission matrices from their pronunciations,
and emits a ready-to-run config; because every utterance covers the full
word set, any train fold reproduces the same phoneme vocabulary and the
decoder can recover the transcripts exactly (WER 0).  The homophone case
builds a two-word lexicon sharing one pronunciation so that only the
language model can disambiguate them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import BLANK_ID, BLANK_TOKEN
from .ctc import write_emissions
from .decoder import build_prefix_tree
from .experiment import emission_path, tagged_line
from .inputs import write_lines
from .lexicon import LexiconEntry, PhonemeVocab, default_g2p_table, derive_phoneme_vocab, g2p
from .lm import lm_train
from .orthography import default_inventory
from .tokenizer import bpe_encode, bpe_train

TOY_WORDS = ("maaih", "mienh", "dorn")
TOY_UTTS = (
    ("u1", "maaih mienh dorn"),
    ("u2", "mienh dorn maaih"),
    ("u3", "dorn maaih mienh"),
    ("u4", "maaih dorn mienh"),
    ("u5", "mienh maaih dorn"),
)


def peaked_emissions(ids, vocab_size: int) -> np.ndarray:
    """Log-prob matrix peaking at 0.98 on each id in turn, blank-separated repeats."""
    peak = 0.98
    rest = (1.0 - peak) / (vocab_size - 1)
    frames = []
    prev = None
    for i in ids:
        if i == prev:
            frames.append(BLANK_ID)
        frames.append(i)
        prev = i
    frames.append(BLANK_ID)
    logits = np.full((len(frames), vocab_size), np.log(rest))
    for t, i in enumerate(frames):
        logits[t, i] = np.log(peak)
    return logits


BPE_TOY_SIZE = 20  # reachable on every train fold of the permutation corpus


def write_toy_experiment(root, seed: int = 0, mode: str = "phoneme") -> Path:
    """Materialize the five-utterance experiment under ``root``.

    Writes corpus.tsv, emissions/*.em and config.ini; returns the config
    path.  Emissions are synthesized against the token inventory of the full
    corpus, which equals every train fold's inventory by construction: the
    utterances are permutations of one word set, so fold vocabularies (and
    for subword mode, fold BPE models, whose pair counts just scale) agree.
    """
    root = Path(root)
    (root / "emissions").mkdir(parents=True, exist_ok=True)
    texts = [text for _, text in TOY_UTTS]
    if mode == "phoneme":
        inv = default_inventory()
        table = default_g2p_table()
        entries = {w: g2p(w, table, inv) for w in TOY_WORDS}
        vocab = derive_phoneme_vocab(list(entries.values()))
        ids_of = lambda text: [vocab.index(tok)
                               for w in text.split() for tok in entries[w].pron]
        width = len(vocab)
    elif mode == "subword":
        bpe = bpe_train(texts, vocab_size=BPE_TOY_SIZE)
        ids_of = lambda text: bpe_encode(text, bpe)
        width = len(bpe.vocab)
    else:
        raise ValueError(f"unknown fixture mode {mode!r}")

    write_lines(root / "corpus.tsv", [tagged_line(u, text.split()) for u, text in TOY_UTTS])
    for utt, text in TOY_UTTS:
        write_emissions(emission_path(root / "emissions", utt),
                        peaked_emissions(ids_of(text), width))

    write_lines(root / "config.ini", [
        "[experiment]",
        "corpus = corpus.tsv",
        "emissions_dir = emissions",
        "output_dir = out",
        f"mode = {mode}",
        "beam_size = 8",
        "lm_weight = 0.5",
        "lm_order = 2",
        f"bpe_vocab_size = {BPE_TOY_SIZE}",
        "folds = 5",
        "runs = 1",
        f"seed = {seed}",
    ])
    return root / "config.ini"


def homophone_case():
    """Two words, one pronunciation: only the LM can tell them apart.

    Returns (prefix tree, language model, emissions logits, reference word).
    With lm_weight=0 the score tie breaks to the lexicographically smaller
    word ("baav"), which is wrong: the reference (and the LM training text)
    say "daav".
    """
    vocab = PhonemeVocab(tokens=(BLANK_TOKEN, "3", "a"))
    pron = ("a", "3")
    entries = [LexiconEntry("baav", pron), LexiconEntry("daav", pron)]
    tree = build_prefix_tree(entries, vocab)
    model = lm_train(["daav daav daav", "daav daav", "daav baav daav"], order=2)
    ids = [vocab.index(t) for t in pron]
    logits = peaked_emissions(ids, len(vocab))
    return tree, model, logits, "daav"
