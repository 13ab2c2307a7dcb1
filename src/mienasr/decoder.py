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
  word.  Any BPE token may extend any state, subject to the bounded
  expansion below; a boundary-marked token closes the pending word and
  applies its LM score.  Ties break on the token sequence.  Each token
  sequence stays its own final, so the n-best list can hold one word
  sequence more than once, once per segmentation.

Beam cut: after each frame the core keeps the ``beam_size`` states with the
highest score (acoustic log-sum plus weighted LM and insertion terms).
Among states with equal scores the lexicographically smaller word sequence
goes first, then the mode's tie (trie node index, or token sequence).  The
cut finds the ``beam_size``-th best score first and sorts only the states at
or above it, which keeps the same states in the same order as sorting them
all.  Completed hypotheses are ordered by score, then word sequence.

Bounded expansion: the core skips a one-token extension that cannot
survive this frame's beam cut before it builds the extension's key.  A
mode's expansion gives, per state, groups sharing the new word sequence and
LM log10; subword mode has two (word-opening and inner tokens), each sorted
once per frame by that frame's emission score.  The core keeps a min-heap
of the ``beam_size`` best scores among the keys it made from ranked tokens,
walks each group best first and stops at the first score below the heap
minimum.  The n-best list stays the same bit for bit:

- IEEE addition is monotone, so within a group the score never rises as the
  emission score falls, and the heap minimum never falls.
- The repeat token (the state's last token) extends only the blank-ending
  mass, which is at most the total, so when it scores too low it is skipped
  and the walk goes on.
- A subword key is fixed by its token sequence, so a ranked extension that
  is not itself a state gets exactly one contribution, and its score is the
  one the cut reads.
- The heap holds final scores of ``beam_size`` distinct keys, so its minimum
  is at most the cut: a score strictly below it would fail the cut, and a
  score equal to it is kept, so ties at the cut break as before.

Always taken, whatever the score: an extension into a key that is already a
state (in subword mode, the state whose token sequence is this one plus one
token), so the key still pools both contributions; and in phoneme mode every
trie and re-entry arc, since several states can reach one trie key (one word
through two pronunciations).  States are visited in the same order as
without the bound, so contributions merge in the same order.

Scores are natural logs; ARPA log10 values are converted at this boundary.
The frame loop runs on Python floats with a scalar log-add-exp that matches
``np.logaddexp`` bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import exp, log1p
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from . import BLANK_ID
from .ctc import EmissionMatrix, NEG_INF
from .lexicon import LexiconEntry, PhonemeVocab
from .lm import BOS, EOS, ArpaModel, lm_score
from .tokenizer import MARKER, BpeModel

LN10 = math.log(10.0)
LN2 = math.log(2.0)


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 32
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0
    mode: str = "phoneme"

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        # the beam cut needs totally ordered scores, so no NaN may arise
        if not 0 <= self.lm_weight < math.inf:
            raise ValueError("lm_weight must be finite and >= 0")
        if not math.isfinite(self.word_insertion_penalty):
            raise ValueError("word_insertion_penalty must be finite")
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


def _lae(x: float, y: float) -> float:
    """``log(exp(x) + exp(y))`` on Python floats, bit-identical to ``np.logaddexp``.

    Follows numpy's branch order: equal arguments (including two ``-inf``)
    add ``ln 2``; otherwise the larger argument absorbs the smaller.
    """
    if x == y:
        return x + LN2
    d = x - y
    if d > 0:
        return x + log1p(exp(-d))
    return y + log1p(exp(d))


def _prefix_beam_search(em, cfg, start, last_token, frame, tie, finish) -> list[Hypothesis]:
    """CTC prefix beam search shared by both modes; the hooks are the mode.

    A state maps ``(words, position)`` to ``[blank mass, non-blank mass, LM
    log10]``.  ``last_token(position)`` is the token a repeat would extend
    (None at the start).  ``frame(y, states)`` is called once per frame with
    that frame's log-probabilities and the states it extends, and returns
    ``expand(words, position, lm10)``, which gives a state's one-token
    extensions as groups ``(new words, new LM log10, taken, ranked, step)``.
    ``taken`` maps each always-added token to its new position.  ``ranked``
    lists the group's other tokens best first by ``y``; the new position of
    one is ``step(token)``, and the walk over them stops at the first score
    below the running threshold (see "Bounded expansion" above), so a ranked
    token must lead to a key that no other state reaches and that is not a
    state itself.  ``tie(position)`` breaks score ties after the word
    sequence, and ``finish(words, position, lm10)`` yields ``(final key,
    words, LM log10)`` for each completed hypothesis the state stands for;
    finals sharing a key pool their mass.
    """
    logits = em.logits
    beam_size = cfg.beam_size
    lam, wip = cfg.lm_weight, cfg.word_insertion_penalty
    lam10 = lam * LN10

    states = {((), start): [0.0, NEG_INF, 0.0]}
    for t in range(em.frames):
        y = logits[t].tolist()
        expand = frame(y, states)
        beam: dict = {}
        best: list = []   # min-heap of the beam_size best scores of ranked keys
        for key, (pb, pnb, lm10) in states.items():
            words, pos = key
            total = _lae(pb, pnb)
            mass = total + y[BLANK_ID]
            entry = beam.get(key)
            if entry is None:
                entry = beam[key] = [mass, NEG_INF, lm10]
            else:
                entry[0] = _lae(entry[0], mass)
            last = last_token(pos)
            if last is not None:
                entry[1] = _lae(entry[1], pnb + y[last])
            for new_words, new_lm10, taken, ranked, step in expand(words, pos, lm10):
                for k, new_pos in taken.items():
                    mass = (pb if k == last else total) + y[k]
                    new_key = (new_words, new_pos)
                    entry = beam.get(new_key)
                    if entry is None:
                        beam[new_key] = [NEG_INF, mass, new_lm10]
                    else:
                        entry[1] = _lae(entry[1], mass)
                if not ranked:
                    continue
                # the same sum, in the same order, as the score the cut reads
                lm_term, wip_term = lam10 * new_lm10, wip * len(new_words)
                for k in ranked:
                    if k in taken:
                        continue
                    mass = (pb if k == last else total) + y[k]
                    score = mass + lm_term + wip_term
                    if len(best) < beam_size:
                        heapq.heappush(best, score)
                    elif score > best[0]:
                        heapq.heapreplace(best, score)
                    elif score < best[0]:
                        if k == last:   # scored from pb; later tokens may score higher
                            continue
                        break
                    beam[(new_words, step(k))] = [NEG_INF, mass, new_lm10]
        scored = []
        for key, entry in beam.items():
            pb, pnb, lm10 = entry
            # most entries are fresh extensions with no blank mass yet
            ac = pnb if pb == NEG_INF else _lae(pb, pnb)
            scored.append((ac + lam10 * lm10 + wip * len(key[0]), key, entry))
        if len(scored) > beam_size:
            cut = heapq.nlargest(beam_size, [s[0] for s in scored])[-1]
            scored = [s for s in scored if s[0] >= cut]
        scored.sort(key=lambda s: (-s[0], s[1][0], tie(s[1][1])))
        states = {key: entry for _, key, entry in scored[:beam_size]}

    finals: dict = {}
    for (words, pos), (pb, pnb, lm10) in states.items():
        ac = _lae(pb, pnb)
        if ac == NEG_INF:
            continue
        for final_key, full, full_lm10 in finish(words, pos, lm10):
            entry = finals.get(final_key)
            if entry is None:
                finals[final_key] = [full, ac, full_lm10]
            else:
                entry[1] = _lae(entry[1], ac)

    hyps = []
    for words, ac, lm10 in finals.values():
        score_lm = LN10 * lm10
        hyps.append(Hypothesis(words=words, score_ac=ac, score_lm=score_lm,
                               score=ac + lam * score_lm + wip * len(words)))
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
        groups = [(words, lm10, node.children, (), None)]
        for w in node.words:
            groups.append((words + (w,), lm10 + _lm10(lm, (BOS,) + words, w),
                           root.children, (), None))
        return groups

    def finish(words, node, lm10):
        if node is root:
            yield words, words, lm10 + _lm10(lm, (BOS,) + words, EOS)
        for w in node.words:
            full = words + (w,)
            yield full, full, (lm10 + _lm10(lm, (BOS,) + words, w)
                               + _lm10(lm, (BOS,) + full, EOS))

    return _prefix_beam_search(em, cfg, root, attrgetter("phone"), lambda y, states: expand,
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
    opens = [tok.startswith(MARKER) for tok in bpe.vocab]
    text = [tok.removeprefix(MARKER) for tok in bpe.vocab]
    openers = [k for k in range(V) if k != BLANK_ID and opens[k]]
    inner = [k for k in range(V) if k != BLANK_ID and not opens[k]]

    def frame(y, states):
        ranked_open = sorted(openers, key=y.__getitem__, reverse=True)
        ranked_inner = sorted(inner, key=y.__getitem__, reverse=True)
        held = {}   # token sequence -> the tokens that extend it into a state
        for _, (toks, _) in states:
            if toks:
                held.setdefault(toks[:-1], []).append(toks[-1])

        def expand(words, pos, lm10):
            toks, partial = pos
            closed, closed_lm10 = words, lm10
            if partial:
                closed = words + (partial,)
                closed_lm10 = lm10 + _lm10(lm, (BOS,) + words, partial)
            opened = lambda k: (toks + (k,), text[k])
            grown = lambda k: (toks + (k,), partial + text[k])
            into_states = held.get(toks, ())
            return ((closed, closed_lm10, {k: opened(k) for k in into_states if opens[k]},
                     ranked_open, opened),
                    (words, lm10, {k: grown(k) for k in into_states if not opens[k]},
                     ranked_inner, grown))
        return expand

    def finish(words, pos, lm10):
        toks, partial = pos
        if partial:
            lm10 = lm10 + _lm10(lm, (BOS,) + words, partial)
            words = words + (partial,)
        yield toks, words, lm10 + _lm10(lm, (BOS,) + words, EOS)

    return _prefix_beam_search(em, cfg, ((), ""), lambda pos: pos[0][-1] if pos[0] else None,
                               frame, itemgetter(0), finish)


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
