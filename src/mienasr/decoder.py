"""Lexicon- and LM-constrained CTC prefix beam search.

The acoustic-model / lexicon / grammar composition is realized on the fly
rather than as an offline FST: hypotheses walk a prefix tree of lexicon
pronunciations (the L transducer) while the word n-gram model scores each
committed word (the G transducer), all inside a standard CTC prefix search
that keeps blank-ending and non-blank-ending probability mass separately
per prefix.  The search space is the same as the offline composition but
the machinery stays small enough to check against brute-force enumeration.

Both modes run one search core.  The core owns the state map from
``(words, position)`` to blank mass, non-blank mass and accumulated LM
log10; the frame loop with its blank and repeat extensions; ranking and the
beam cut; finalization; and hypothesis assembly.  Each mode supplies only
its hooks: what a position is, how a state expands by one token, how equal
scores break after the word sequence, and which completed hypotheses a
surviving state stands for.

- Phoneme mode: a position is a trie node.  Expansion follows trie arcs
  only, so no word outside the lexicon can appear; at a word-final node a
  state also commits each of its words, applies the LM score and re-enters
  the trie at the root.  Ties break on the node index.  Finals that share a
  word sequence (one word reached through different pronunciations) merge
  into one hypothesis whose acoustic mass is their log-sum.
- Subword mode: a position is the collapsed token sequence plus the pending
  word.  Every BPE token extends every state; a boundary-marked token closes
  the pending word and applies its LM score.  Ties break on the token
  sequence.  Each token sequence stays its own final, so the n-best list can
  hold one word sequence more than once, once per segmentation.

Scores are natural logs; ARPA log10 values are converted at this boundary.
Equal scores break toward the lexicographically smaller word sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

import numpy as np

from . import BLANK_ID
from .ctc import EmissionMatrix, NEG_INF
from .lexicon import LexiconEntry, PhonemeVocab
from .lm import BOS, EOS, ArpaModel, lm_score
from .tokenizer import MARKER, BpeModel

LN10 = math.log(10.0)


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 32
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0
    mode: str = "phoneme"

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.lm_weight < 0:
            raise ValueError("lm_weight must be >= 0")
        if self.mode not in ("phoneme", "subword"):
            raise ValueError(f"unknown decode mode {self.mode!r}")


@dataclass(frozen=True)
class Hypothesis:
    """A completed decode: word sequence with factored scores.

    ``score = score_ac + lm_weight * score_lm + word_insertion_penalty *
    len(words)``; both component scores are natural logs.
    """

    words: tuple[str, ...]
    score_ac: float
    score_lm: float
    score: float


class TrieNode:
    __slots__ = ("children", "words", "phone", "idx")

    def __init__(self, phone: Optional[int], idx: int):
        self.children: dict[int, TrieNode] = {}
        self.words: tuple[str, ...] = ()
        self.phone = phone   # phoneme id on the incoming arc, None at root
        self.idx = idx


@dataclass
class PrefixTree:
    root: TrieNode
    vocab: PhonemeVocab
    node_count: int          # nodes excluding the root
    words: frozenset[str]


def build_prefix_tree(lexicon: Sequence[LexiconEntry], vocab: PhonemeVocab) -> PrefixTree:
    """Compile lexicon pronunciations into a shared-prefix tree.

    Duplicate pronunciations merge into one path carrying several word-final
    labels.  Raises KeyError if a pronunciation token is outside the vocab.
    """
    root = TrieNode(None, 0)
    count = 0
    for entry in lexicon:
        if not entry.pron:
            raise ValueError(f"word {entry.word!r} has an empty pronunciation")
        node = root
        for tok in entry.pron:
            pid = vocab.index(tok)
            if pid == BLANK_ID:
                raise ValueError(f"word {entry.word!r} pronunciation contains the blank")
            nxt = node.children.get(pid)
            if nxt is None:
                count += 1
                nxt = TrieNode(pid, count)
                node.children[pid] = nxt
            node = nxt
        if entry.word not in node.words:
            node.words = tuple(sorted(node.words + (entry.word,)))
    return PrefixTree(root=root, vocab=vocab, node_count=count,
                      words=frozenset(e.word for e in lexicon))


def _lm10(model: Optional[ArpaModel], history: tuple[str, ...], word: str) -> float:
    if model is None:
        return 0.0
    return lm_score(model, history, word)


def _prefix_beam_search(em, cfg, start, last_token, expand, tie, finish) -> list[Hypothesis]:
    """CTC prefix beam search shared by both modes; the hooks are the mode.

    A state maps ``(words, position)`` to ``[blank mass, non-blank mass, LM
    log10]``.  ``last_token(position)`` is the token a repeat would extend
    (None at the start), ``expand(words, position, lm10)`` yields ``(token,
    new state key, new LM log10)`` for each one-token extension, ``tie(position)``
    breaks score ties after the word sequence, and ``finish(words, position,
    lm10)`` yields ``(final key, words, LM log10)`` for each completed
    hypothesis the state stands for; finals sharing a key pool their mass.
    """
    logits = em.logits
    lam, wip = cfg.lm_weight, cfg.word_insertion_penalty

    def rank(item):
        (words, pos), (pb, pnb, lm10) = item
        score = np.logaddexp(pb, pnb) + lam * LN10 * lm10 + wip * len(words)
        return -score, words, tie(pos)

    def add(key, slot, lm10, mass):  # into the current frame's beam
        entry = beam.get(key)
        if entry is None:
            entry = beam[key] = [NEG_INF, NEG_INF, lm10]
            entry[slot] = mass
        else:
            entry[slot] = np.logaddexp(entry[slot], mass)

    states = {((), start): [0.0, NEG_INF, 0.0]}
    for t in range(em.frames):
        y = logits[t]
        beam: dict = {}
        for key, (pb, pnb, lm10) in states.items():
            words, pos = key
            total = np.logaddexp(pb, pnb)
            add(key, 0, lm10, total + y[BLANK_ID])
            last = last_token(pos)
            if last is not None:
                add(key, 1, lm10, pnb + y[last])
            for k, new_key, new_lm10 in expand(words, pos, lm10):
                add(new_key, 1, new_lm10, (pb if k == last else total) + y[k])
        states = dict(sorted(beam.items(), key=rank)[:cfg.beam_size])

    finals: dict = {}
    for (words, pos), (pb, pnb, lm10) in states.items():
        ac = np.logaddexp(pb, pnb)
        if ac == NEG_INF:
            continue
        for final_key, full, full_lm10 in finish(words, pos, lm10):
            entry = finals.get(final_key)
            if entry is None:
                finals[final_key] = [full, ac, full_lm10]
            else:
                entry[1] = np.logaddexp(entry[1], ac)

    hyps = []
    for words, ac, lm10 in finals.values():
        score_lm = LN10 * lm10
        hyps.append(Hypothesis(
            words=words, score_ac=float(ac), score_lm=float(score_lm),
            score=float(ac + lam * score_lm + wip * len(words)),
        ))
    hyps.sort(key=lambda h: (-h.score, h.words))
    return hyps


def decode_phoneme(
    em: EmissionMatrix,
    lex: PrefixTree,
    lm: Optional[ArpaModel],
    cfg: DecodeConfig = DecodeConfig(),
) -> list[Hypothesis]:
    """Trie-constrained CTC prefix beam search with word-LM composition.

    Returns all completed hypotheses in the final beam, best first.  The LM
    scores each committed word given the preceding words (with <s> context)
    plus the final </s> event; homophones at one trie node spawn parallel
    hypotheses.
    """
    if em.vocab_size != len(lex.vocab):
        raise ValueError(
            f"emission vocab size {em.vocab_size} != lexicon phoneme vocab {len(lex.vocab)}"
        )
    if not lex.root.children:
        raise ValueError("empty lexicon")
    root = lex.root

    def expand(words, node, lm10):
        for pid, child in node.children.items():
            yield pid, (words, child), lm10
        for w in node.words:
            w_lm10 = lm10 + _lm10(lm, (BOS,) + words, w)
            new_words = words + (w,)
            for pid, child in root.children.items():
                yield pid, (new_words, child), w_lm10

    def finish(words, node, lm10):
        if node is root:
            yield words, words, lm10 + _lm10(lm, (BOS,) + words, EOS)
        for w in node.words:
            full = words + (w,)
            yield full, full, (lm10 + _lm10(lm, (BOS,) + words, w)
                               + _lm10(lm, (BOS,) + full, EOS))

    return _prefix_beam_search(em, cfg, root, attrgetter("phone"), expand,
                               attrgetter("idx"), finish)


def decode_subword(
    em: EmissionMatrix,
    bpe: BpeModel,
    lm: Optional[ArpaModel],
    cfg: DecodeConfig = DecodeConfig(mode="subword"),
) -> list[Hypothesis]:
    """CTC prefix beam search over BPE tokens with word-boundary LM scoring.

    The hypothesis unit is the collapsed token sequence; the word LM fires
    when a boundary-marked token closes the pending word and once more for
    the final word and </s> at the end.  Tokens outside the lexicon simply
    spell OOV words, which the LM scores through <unk>.
    """
    V = len(bpe.vocab)
    if em.vocab_size != V:
        raise ValueError(f"emission vocab size {em.vocab_size} != BPE vocab {V}")
    # (token id, whether it opens a word, its spelling without the marker)
    pieces = [(k, tok.startswith(MARKER), tok.removeprefix(MARKER))
              for k, tok in enumerate(bpe.vocab) if k != BLANK_ID]

    def expand(words, pos, lm10):
        toks, partial = pos
        closed, closed_lm10 = words, lm10
        if partial:
            closed = words + (partial,)
            closed_lm10 = lm10 + _lm10(lm, (BOS,) + words, partial)
        for k, opens, text in pieces:
            if opens:
                yield k, (closed, (toks + (k,), text)), closed_lm10
            else:
                yield k, (words, (toks + (k,), partial + text)), lm10

    def finish(words, pos, lm10):
        toks, partial = pos
        if partial:
            lm10 = lm10 + _lm10(lm, (BOS,) + words, partial)
            words = words + (partial,)
        yield toks, words, lm10 + _lm10(lm, (BOS,) + words, EOS)

    return _prefix_beam_search(em, cfg, ((), ""), lambda pos: pos[0][-1] if pos[0] else None,
                               expand, itemgetter(0), finish)


def decode(em: EmissionMatrix, cfg: DecodeConfig, *, lex: Optional[PrefixTree] = None,
           bpe: Optional[BpeModel] = None, lm: Optional[ArpaModel] = None) -> list[Hypothesis]:
    """Mode dispatcher used by the CLI and the experiment driver."""
    if cfg.mode == "phoneme":
        if lex is None:
            raise ValueError("phoneme decoding requires a prefix tree")
        return decode_phoneme(em, lex, lm, cfg)
    if bpe is None:
        raise ValueError("subword decoding requires a BPE model")
    return decode_subword(em, bpe, lm, cfg)
