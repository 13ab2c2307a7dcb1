"""Lexicon- and LM-constrained CTC prefix beam search.

The acoustic-model / lexicon / grammar composition is realized on the fly
rather than as an offline FST: hypotheses walk a prefix tree of lexicon
pronunciations (the L transducer) while the word n-gram model scores each
committed word (the G transducer), all inside a standard CTC prefix search
that keeps blank-ending and non-blank-ending probability mass separately
per prefix.  The search space is the same as the offline composition but
the machinery stays small enough to check against brute-force enumeration.

Both modes run one search core.  The core owns the state map from
``(words, position)`` to blank mass, non-blank mass, accumulated LM log10
and acoustic total; the frame loop with its blank and repeat extensions; ranking and the
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
cut is one sort of plain tuples (negated score, word sequence, tie), with no
key function; the bounded expansion below leaves few entries to sort.
Completed hypotheses are ordered by score, then word sequence.

Bounded expansion: the core skips a one-token extension that cannot
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
- Subword mode gives each state two groups, word-opening and inner tokens,
  each sorted once per frame by that frame's emission score, and the walk
  over a group stops at the first score below the heap minimum.  Within a
  group the score never rises as the emission score falls.  The repeat
  token (the state's last token) extends only the blank-ending mass, which
  is at most the total, so when it scores too low it is skipped and the
  walk goes on.  A subword key is fixed by its token sequence, so only one
  state reaches it.
- Phoneme mode checks each trie arc on its own, and walks a word-final
  state's re-entries over the root's children sorted once per frame, like a
  subword group.  A trie arc's key is reached only from the state at the
  parent node, and a re-entry's only from states ending the same word.

Always added, whatever the score:

- an extension into a key that is already a state, so the key still pools
  every contribution;
- in phoneme mode, a re-entry into a key that another state's re-entry
  reaches in the same frame: one word through two pronunciations, whose
  contributions may each fall below the floor while their log-sum does not.

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
from functools import partial
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


class _Lazy(dict):
    """A dict that fills a missing key with ``build(key)``.

    It lives at module level: a class made per decode sits in a reference
    cycle and would keep that decode's caches until the cyclic collector runs.
    """

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _at_root(words, children, phone):
    """The phoneme key of ``words`` at the root child reached by ``phone``."""
    return words, children[phone]


def _prefix_beam_search(em, cfg, start, last_token, frame, tie, finish) -> list[Hypothesis]:
    """CTC prefix beam search shared by both modes; the hooks are the mode.

    A state maps ``(words, position)`` to its blank mass, non-blank mass, LM
    log10 and acoustic total (the log-sum of the two masses, carried out of
    the cut).  ``last_token(position)`` is the token a repeat would extend
    (None at the start).  ``frame(y, states)`` is called once per frame with
    that frame's log-probabilities and the states it extends, and returns a
    mapping from each state's key to its one-token extensions, given as
    groups ``(new words, new LM log10, taken, ranked, step, ordered)``, where
    ``step(token)`` is the new key.  ``taken`` tokens are always added.  The
    group's other tokens, ``ranked``, are bounded by the heap minimum, which
    starts at the seeded floor (see "Bounded expansion" above):

    - ``ordered``: best first by ``y``; the walk stops at the first score
      below the minimum, so each must lead to a key that no other state
      reaches and that is not a state;
    - otherwise: each is checked on its own, and one below the minimum is
      added only if its key is a state, so no other state may reach the keys
      of these tokens.

    ``tie(position)`` breaks score ties after the word sequence and differs
    between keys that share one, and ``finish(words, position, lm10)`` yields
    ``(final key, words, LM log10)`` for each completed hypothesis the state
    stands for; finals sharing a key pool their mass.
    """
    logits = em.logits
    beam_size = cfg.beam_size
    lam, wip = cfg.lm_weight, cfg.word_insertion_penalty
    lam10 = lam * LN10

    states = {((), start): (0.0, NEG_INF, 0.0, 0.0)}
    for t in range(em.frames):
        y = logits[t].tolist()
        blank = y[BLANK_ID]
        # A state's key only gains mass past its blank extension, so the
        # beam_size-th best of these bounds, summed as the cut sums, is a floor.
        beam: dict = {}
        floor = []
        for key, (_, _, lm10, total) in states.items():
            mass = total + blank
            beam[key] = [mass, NEG_INF, lm10]
            floor.append(mass + lam10 * lm10 + wip * len(key[0]))
        # ascending, so already a min-heap; -inf pads it so it never bounds too early
        best = [NEG_INF] * (beam_size - len(floor)) + sorted(floor)[-beam_size:]
        expansions = frame(y, states)
        for key, (pb, pnb, lm10, total) in states.items():
            last = last_token(key[1])
            if last is not None:
                entry = beam[key]
                mass = pnb + y[last]
                # log-adding into -inf gives the other term back (masses are never -0.0)
                entry[1] = mass if entry[1] == NEG_INF else _lae(entry[1], mass)
            for new_words, new_lm10, taken, ranked, step, ordered in expansions[key]:
                for k in taken:
                    mass = (pb if k == last else total) + y[k]
                    new_key = step(k)
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
                    low = score < best[0]
                    if low and ordered:
                        if k == last:   # scored from pb; later tokens may score higher
                            continue
                        break
                    new_key = step(k)
                    entry = beam.get(new_key)
                    if entry is not None:   # a state pools every arc into it
                        entry[1] = _lae(entry[1], mass)
                    elif not low:
                        beam[new_key] = [NEG_INF, mass, new_lm10]
                        if score > best[0]:
                            heapq.heapreplace(best, score)
        scored = []
        for key, (pb, pnb, lm10) in beam.items():
            # most entries are fresh extensions with no blank mass yet
            ac = pnb if pb == NEG_INF else _lae(pb, pnb)
            # negated, so a plain sort ranks by score, then word sequence, then the mode's tie
            scored.append((-(ac + lam10 * lm10 + wip * len(key[0])), key[0], tie(key[1]),
                           key, (pb, pnb, lm10, ac)))
        scored.sort()
        states = {s[3]: s[4] for s in scored[:beam_size]}

    finals: dict = {}
    for (words, pos), (_, _, lm10, ac) in states.items():
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
    root_nodes = frozenset(root.children.values())
    lm10_of = {(): 0.0}       # word sequence -> its LM log10
    reentries_of: dict = {}   # word-final key -> the word sequences it re-enters with
    reentry_step: dict = {}   # word sequence -> phone -> key at that root child

    def groups(key):
        """A key's groups; trie arcs are prebuilt keys.

        A word-final key's re-entry groups depend on the frame, so ``frame``
        redoes them from ``reentries_of``.
        """
        words, node = key
        arcs = {k: (words, child) for k, child in node.children.items()}
        if node.words:
            reentries_of[key] = reentries = []
            for w in node.words:
                new_words = words + (w,)
                if new_words not in lm10_of:
                    lm10_of[new_words] = lm10_of[words] + _lm10(lm, (BOS,) + words, w)
                    reentry_step[new_words] = partial(_at_root, new_words, root.children)
                reentries.append(new_words)
        return [(words, lm10_of[words], (), arcs, arcs.__getitem__, False)]

    groups_of = _Lazy(groups)   # each key's groups, built once per decode

    def frame(y, states):
        finals = [key for key in states if key[1].words]
        if not finals:
            return groups_of
        by_y = sorted(root.children, key=y.__getitem__, reverse=True)
        into = {}   # word sequence -> the root children where a state holds it
        for words, node in states:
            if node in root_nodes:
                into.setdefault(words, []).append(node.phone)
        seen, shared = set(), set()
        for key in finals:
            groups_of[key]   # builds the key's groups on first sight
            for new_words in reentries_of[key]:
                (shared if new_words in seen else seen).add(new_words)
        for key in finals:
            groups_of[key][1:] = [
                # one word through two pronunciations: the keys pool, so all are taken
                (new_words, lm10_of[new_words], root.children, (), reentry_step[new_words], True)
                if new_words in shared else
                (new_words, lm10_of[new_words], into.get(new_words, ()), by_y,
                 reentry_step[new_words], True)
                for new_words in reentries_of[key]]
        return groups_of

    def finish(words, node, lm10):
        if node is root:
            yield words, words, lm10 + _lm10(lm, (BOS,) + words, EOS)
        for w in node.words:
            full = words + (w,)
            yield full, full, (lm10 + _lm10(lm, (BOS,) + words, w)
                               + _lm10(lm, (BOS,) + full, EOS))

    return _prefix_beam_search(em, cfg, root, attrgetter("phone"), frame,
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

        def expand(key, lm10):
            words, (toks, partial) = key
            closed, closed_lm10 = words, lm10
            if partial:
                closed = words + (partial,)
                closed_lm10 = lm10 + _lm10(lm, (BOS,) + words, partial)
            into_states = held.get(toks, ())
            return ((closed, closed_lm10, [k for k in into_states if opens[k]], ranked_open,
                     lambda k: (closed, (toks + (k,), text[k])), True),
                    (words, lm10, [k for k in into_states if not opens[k]], ranked_inner,
                     lambda k: (words, (toks + (k,), partial + text[k])), True))
        return {key: expand(key, lm10) for key, (_, _, lm10, _) in states.items()}

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
