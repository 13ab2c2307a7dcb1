"""Lexicon- and LM-constrained CTC prefix beam search.

The acoustic-model / lexicon / grammar composition is realized on the fly
rather than as an offline FST: hypotheses walk a prefix tree of lexicon
pronunciations (the L transducer) while the word n-gram model scores each
committed word (the G transducer), all inside a standard CTC prefix search
that keeps blank-ending and non-blank-ending probability mass separately
per prefix.  The search space is the same as the offline composition but
the machinery stays small enough to check against brute-force enumeration.

A state is a pair ``(words, node)``: the committed word sequence and the
trie node reached since.  Expansion follows trie arcs only, so no word
outside the lexicon can appear; at a word-final node a state also commits
each of its words, applies the LM score and re-enters the trie at the root.
Finals that share a word sequence (one word reached through different
pronunciations) merge into one hypothesis whose acoustic mass is their
log-sum.  Subword mode runs the same search over the LM's words as the BPE
model spells them (``spell_lm_words``); without an LM it is the greedy
1-best.

Beam cut: after each frame the search keeps the ``beam_size`` states with
the highest score (acoustic log-sum plus weighted LM and insertion terms).
Among states with equal scores the lexicographically smaller word sequence
goes first, then the smaller trie node index.  The cut is one sort of plain
tuples (negated score, word sequence, node index, key, entry), with no key
function; the bounded expansion below leaves few entries to sort.  The word
sequence and node index settle every tie, so the key is never compared.
The sorted list, truncated to the beam, is the next frame's states.

A state's key is the int ``base + node.idx``, where ``base`` is the word
sequence's first-seen id in the decode times ``node_count + 1``: distinct
states get distinct keys, and no tuple is built or hashed per arc.  Each
key's entry is one list: blank mass, non-blank mass, LM term ``lm_weight *
ln 10 * lm10``, insertion term ``word_insertion_penalty * len(words)``, the
acoustic log-sum that the cut writes and the next frame reads, the word
sequence and the trie node.  Each word sequence has one record, ``(base,
lm10)``, made when a state first re-enters with it.  The terms depend only
on the word sequence, so a word-final key's re-entry list forms them once
from the records, and entries carry them.  Carrying them is exact: a
product of the same two floats has the same bits wherever it is formed,
and the floor, the expansion and the cut all sum a score in one order,
``(acoustic + LM term) + insertion term``.  Trie arcs are read from
``TrieNode.arcs``, each node's children as ``(phone, child index, child)``
tuples in first-seen order.  A completed hypothesis adds ``</s>`` to its
record's lm10; completed hypotheses are ordered by score, then word
sequence.  Every word takes at least one frame, so a hypothesis holds at
most T words, for T frames, and the terms are bounded up front, before any
hypothesis forms: the search raises ValueError when
``word_insertion_penalty`` times T is not finite, or, with an LM, when
``lm_weight * ln 10`` times the largest LM log10 magnitude of T words and
``</s>`` is not (each word sums at most ``order`` ARPA values, each above
-323.3).  So every LM and insertion term is finite, and no two meet as NaN.

Log-adding into ``-inf`` returns the other operand without calling
``_lae``, in the self-loop, at every site that pools into a key and where
the cut sums a fresh extension's blank and non-blank mass.  ``_lae`` would
give ``x + 0.0``, which is ``x`` since no mass is ``-0.0`` (every mass is a
sum starting from the root's ``0.0``).

Bounded expansion: the search skips a one-token extension that cannot
survive this frame's beam cut.  It keeps a min-heap of ``beam_size`` lower
bounds on the final scores of distinct keys, so the heap minimum is at most
the cut, and an extension whose score is strictly below it is skipped: the
cut would drop it.  A score equal to the minimum is kept, so ties at the cut
break as before.

- Seeded floor.  Each frame the heap starts from the states' blank
  extensions.  A state's key takes its blank mass from that extension alone
  and other extensions only add non-blank mass, so the log-sum the cut reads
  is at least it.  IEEE addition is monotone, so summed in the cut's order
  (acoustic, then weighted LM, then insertion term) the bound is at most the
  key's score, and the ``beam_size``-th best bound is a floor at or below
  the cut.
- A fresh key reached by one extension gets exactly that contribution, so
  its score is exact; when it is added, it goes on the heap.
- Each trie arc is checked on its own: its key is reached only from the
  state at the parent node.
- A word-final state's re-entries walk the root's children sorted once per
  frame by emission score, best first, and the walk stops at the first
  score below the heap minimum: the score never rises as the emission score
  falls.  The repeat token (the state's last phone) extends only the
  blank-ending mass, which is at most the total, so when it scores too low
  it is skipped and the walk goes on.  A re-entry's key is reached only
  from states ending the same word.

Always added, whatever the score:

- an extension into a key that is already a state, so the key still pools
  every contribution;
- a re-entry into a key that another state's re-entry reaches in the same
  frame: one word through two pronunciations, whose contributions may each
  fall below the floor while their log-sum does not.

States are visited in the same order as without the bound, so contributions
merge in the same order and the n-best list stays the same bit for bit.

Scores are natural logs; ARPA log10 values are converted at this boundary.
The frame loop runs on Python floats with a scalar log-add-exp that matches
``np.logaddexp`` bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import exp, log1p
from typing import Optional, Sequence

from . import BLANK_ID
from .ctc import EmissionMatrix, NEG_INF, greedy_decode
from .lexicon import LexiconEntry, PhonemeVocab
from .lm import _LOG10_MIN, BOS, EOS, UNK, ArpaModel, lm_score
from .tokenizer import BpeModel, bpe_decode, bpe_encode

LN10 = math.log(10.0)
LN2 = math.log(2.0)


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 32
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        # no NaN may reach the beam cut, so the search's lm_weight * ln 10 must be finite
        if not 0 <= self.lm_weight * LN10 < math.inf:
            raise ValueError("lm_weight must be finite and >= 0, and so must lm_weight * ln 10")
        if not math.isfinite(self.word_insertion_penalty):
            raise ValueError("word_insertion_penalty must be finite")


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
    __slots__ = ("arcs", "words", "phone", "idx")

    def __init__(self, phone: Optional[int], idx: int):
        # the children as (phone, child index, child), in first-seen order
        self.arcs: tuple[tuple[int, int, TrieNode], ...] = ()
        self.words: tuple[str, ...] = ()
        self.phone = phone   # phoneme id on the incoming arc, None at root
        self.idx = idx


@dataclass
class PrefixTree:
    root: TrieNode
    vocab: PhonemeVocab
    node_count: int          # nodes excluding the root


def build_prefix_tree(lexicon: Sequence[LexiconEntry], vocab: PhonemeVocab) -> PrefixTree:
    """Compile lexicon pronunciations into a shared-prefix tree.

    Duplicate pronunciations merge into one path carrying several word-final
    labels.  Raises ValueError on an empty lexicon, and, naming the word, on
    a pronunciation token outside the vocab.
    """
    if not lexicon:
        raise ValueError("empty lexicon")
    root = TrieNode(None, 0)
    child_of: dict[tuple[int, int], TrieNode] = {}   # (node index, phone) -> child
    for entry in lexicon:
        node = root
        for tok in entry.pron:
            try:
                pid = vocab.index(tok)
            except KeyError as e:
                raise ValueError(f"word {entry.word!r}: {e.args[0]}") from None
            nxt = child_of.get((node.idx, pid))
            if nxt is None:
                nxt = child_of[node.idx, pid] = TrieNode(pid, len(child_of) + 1)
                node.arcs += ((pid, nxt.idx, nxt),)   # few arcs a node, so a growing tuple is cheap
            node = nxt
        if entry.word not in node.words:
            node.words = tuple(sorted(node.words + (entry.word,)))
    return PrefixTree(root=root, vocab=vocab, node_count=len(child_of))


def spell_lm_words(bpe: BpeModel, lm: ArpaModel) -> PrefixTree:
    """The subword lexicon: the LM's words, sorted, as ``bpe`` spells them.

    A word whose spelling holds <unk> raises ValueError naming it: no
    emission column stands for the characters the BPE model never saw.
    """
    entries = []
    for word in sorted(set(lm.vocab) - {BOS, EOS, UNK}):
        ids = bpe_encode(word, bpe)
        if bpe.unk_id in ids:
            raise ValueError(f"LM word {word!r} spells to {UNK} under the BPE model")
        entries.append(LexiconEntry(word, tuple(bpe.vocab[i] for i in ids)))
    return build_prefix_tree(entries, PhonemeVocab(bpe.vocab))


def _lm10(model: Optional[ArpaModel], history: tuple[str, ...], word: str) -> float:
    if model is None:
        return 0.0
    return lm_score(model, history, word)


def _check_insertion_bound(wip: float, frames: int) -> None:
    # every word takes at least one frame, so no hypothesis holds more than `frames` words
    if not -math.inf < wip * frames < math.inf:
        raise ValueError(f"word_insertion_penalty {wip} times {frames} frames is not finite")


def _check_lm_bound(lam: float, order: int, frames: int) -> None:
    # a word's LM log10 sums at most `order` ARPA values, each above _LOG10_MIN, and a
    # hypothesis scores at most `frames` words and </s>
    if not lam * LN10 * -_LOG10_MIN * order * (frames + 1) < math.inf:
        raise ValueError(f"lm_weight {lam} times an order-{order} LM's largest log10 over "
                         f"{frames} frames is not finite")


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
    hypotheses.  States, keys and entries are laid out as the module
    docstring describes.
    """
    if em.vocab_size != len(lex.vocab):
        raise ValueError(
            f"emission vocab size {em.vocab_size} != lexicon phoneme vocab {len(lex.vocab)}"
        )
    _check_insertion_bound(cfg.word_insertion_penalty, em.logits.shape[0])
    if lm is not None:
        _check_lm_bound(cfg.lm_weight, lm.order, em.logits.shape[0])
    root = lex.root
    roots = {k: child for k, _, child in root.arcs}     # phone -> root child
    root_nodes = frozenset(roots.values())
    beam_size = cfg.beam_size
    lam, wip = cfg.lm_weight, cfg.word_insertion_penalty
    lam10 = lam * LN10
    stride = lex.node_count + 1
    records = {(): (0, 0.0)}  # word sequence -> (base, LM log10)
    reentries_of: dict = {}   # word-final key -> [(words it re-enters with, base, terms)]

    # the cut's sorted list of (negated score, words, node index, key, entry)
    states = [(0.0, (), root.idx, root.idx, [0.0, NEG_INF, 0.0, 0.0, 0.0, (), root])]
    for y in em.logits.tolist():
        blank = y[BLANK_ID]
        # A state's key only gains mass past its blank extension, so the
        # beam_size-th best of these bounds, summed as the cut sums, is a floor.
        beam: dict = {}
        floor = []
        finals = []
        into: dict = {}   # word sequence base -> the root children where a state holds it
        for _, words, _, key, (_, _, lm_term, wip_term, total, _, node) in states:
            mass = total + blank
            beam[key] = [mass, NEG_INF, lm_term, wip_term, 0.0, words, node]
            floor.append(mass + lm_term + wip_term)
            if node.words:
                finals.append((key, words, node))
            if node in root_nodes:
                into.setdefault(key - node.idx, []).append(node.phone)
        # ascending, so already a min-heap; -inf pads it so it never bounds too early
        best = [NEG_INF] * (beam_size - len(floor)) + sorted(floor)

        if finals:
            by_y = sorted(roots, key=y.__getitem__, reverse=True)
            seen, shared = set(), set()
            for key, words, node in finals:
                if key not in reentries_of:
                    reentries_of[key] = reentries = []
                    for w in node.words:
                        new_words = words + (w,)
                        if new_words not in records:
                            records[new_words] = (len(records) * stride,
                                                  records[words][1] + _lm10(lm, (BOS,) + words, w))
                        base, lm10 = records[new_words]
                        reentries.append((new_words, base, lam10 * lm10, wip * len(new_words)))
                for _, new_base, _, _ in reentries_of[key]:
                    (shared if new_base in seen else seen).add(new_base)

        for _, words, _, key, (pb, pnb, lm_term, wip_term, total, _, node) in states:
            last = node.phone
            if last is not None:
                entry = beam[key]
                mass = pnb + y[last]
                # log-adding into -inf gives the other term back (masses are never -0.0)
                entry[1] = mass if entry[1] == NEG_INF else _lae(entry[1], mass)
            base = key - node.idx
            for k, idx, child in node.arcs:
                mass = (pb if k == last else total) + y[k]
                new_key = base + idx
                entry = beam.get(new_key)
                if entry is not None:   # a state pools every arc into it
                    entry[1] = mass if entry[1] == NEG_INF else _lae(entry[1], mass)
                    continue
                score = mass + lm_term + wip_term   # the sum the cut reads, in its order
                if not score < best[0]:
                    beam[new_key] = [NEG_INF, mass, lm_term, wip_term, 0.0, words, child]
                    if score > best[0]:
                        heapq.heapreplace(best, score)
            if not node.words:
                continue
            for new_words, new_base, new_lm_term, new_wip_term in reentries_of[key]:
                # one word through two pronunciations: the keys pool, so all are added
                held = roots if new_base in shared else into.get(new_base, ())
                for k in held:
                    mass = (pb if k == last else total) + y[k]
                    child = roots[k]
                    new_key = new_base + child.idx
                    entry = beam.get(new_key)
                    if entry is None:
                        beam[new_key] = [NEG_INF, mass, new_lm_term, new_wip_term, 0.0,
                                         new_words, child]
                    else:
                        entry[1] = mass if entry[1] == NEG_INF else _lae(entry[1], mass)
                if held is roots:
                    continue
                for k in by_y:   # the rest lead to keys that only this state reaches
                    if k in held:
                        continue
                    mass = (pb if k == last else total) + y[k]
                    score = mass + new_lm_term + new_wip_term
                    if score < best[0]:
                        if k == last:   # scored from pb; later children may score higher
                            continue
                        break
                    child = roots[k]
                    beam[new_base + child.idx] = [NEG_INF, mass, new_lm_term, new_wip_term,
                                                  0.0, new_words, child]
                    if score > best[0]:
                        heapq.heapreplace(best, score)

        scored = []
        for key, entry in beam.items():
            pb, pnb, lm_term, wip_term, _, words, node = entry
            # most entries are fresh extensions with no blank mass yet
            ac = entry[4] = pnb if pb == NEG_INF else _lae(pb, pnb)
            # negated, so a plain sort ranks by score, then word sequence, then node
            scored.append((-(ac + lm_term + wip_term), words, node.idx, key, entry))
        scored.sort()
        del scored[beam_size:]
        states = scored

    finals: dict = {}   # word sequence -> acoustic log-sum
    for _, words, _, _, (_, _, _, _, ac, _, node) in states:
        if ac != NEG_INF:
            for full in ([words] if node is root else []) + [words + (w,) for w in node.words]:
                finals[full] = _lae(finals[full], ac) if full in finals else ac

    hyps = []
    for words, ac in finals.items():
        # a sequence that no state re-entered with is its prefix's record plus one word
        lm10 = (records[words][1] if words in records
                else records[words[:-1]][1] + _lm10(lm, (BOS,) + words[:-1], words[-1]))
        score_lm = LN10 * (lm10 + _lm10(lm, (BOS,) + words, EOS))
        hyps.append(Hypothesis(words=words, score_ac=ac, score_lm=score_lm,
                               score=ac + lam * score_lm + wip * len(words)))
    hyps.sort(key=lambda h: (-h.score, h.words))
    return hyps


def decode(em: EmissionMatrix, cfg: DecodeConfig, *, lex: Optional[PrefixTree] = None,
           bpe: Optional[BpeModel] = None, lm: Optional[ArpaModel] = None) -> list[Hypothesis]:
    """Decode one utterance for the CLI and the experiment driver.

    A given ``bpe`` means subword mode.  With an LM it searches ``lex`` as
    ``spell_lm_words(bpe, lm)`` builds it; without one it returns the greedy
    1-best, whose ``score_ac`` is the greedy path's log-probability, whatever
    the beam and LM weight.  Phoneme mode (no ``bpe``) searches ``lex``.
    """
    if bpe is not None:
        if em.vocab_size != len(bpe.vocab):
            raise ValueError(f"emission vocab size {em.vocab_size} != BPE vocab {len(bpe.vocab)}")
        if lm is None:
            _check_insertion_bound(cfg.word_insertion_penalty, em.logits.shape[0])
            words = tuple(bpe_decode(greedy_decode(em), bpe).split())
            ac = float(em.logits.max(axis=1).sum())
            return [Hypothesis(words=words, score_ac=ac, score_lm=0.0,
                               score=ac + cfg.word_insertion_penalty * len(words))]
    if lex is None:
        raise ValueError("decoding requires a prefix tree")
    return decode_phoneme(em, lex, lm, cfg)
