import dataclasses
import heapq
import json
import math
import random
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mienasr import BLANK_ID, BLANK_TOKEN
from mienasr.ctc import NEG_INF, EmissionMatrix, greedy_decode, normalize_rows
from mienasr.decoder import (LN10, DecodeConfig, Hypothesis, _lae, _lm10, build_prefix_tree,
                             decode, decode_phoneme, spell_lm_words)
from mienasr.fixtures import homophone_case, peaked_emissions
from mienasr.lexicon import LexiconEntry, PhonemeVocab
from mienasr.lm import BOS, EOS, UNK, lm_score, lm_train
from mienasr.tokenizer import MARKER, bpe_decode, bpe_encode, bpe_train

from oracles import brute_force_phoneme, lm_log10


def vocab_of(n):
    return PhonemeVocab((BLANK_TOKEN,) + tuple(f"p{i}" for i in range(1, n)))


LAE_ARG = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-math.inf))
LAE_PAIRS = st.one_of(
    st.tuples(LAE_ARG, LAE_ARG),
    LAE_ARG.map(lambda a: (a, a)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(30.0, 1e4)).map(lambda p: (p[0], p[0] - p[1])),
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6)).map(lambda p: (p[0], p[0] + p[1])),
)


class TestLogAddExp:
    @settings(max_examples=2000)
    @given(LAE_PAIRS)
    @example((1.7976931348623155e+308, -2.9937604643020797e+292))  # numpy's a - b overflows
    def test_matches_numpy_bit_for_bit(self, pair):
        a, b = pair
        for x, y in (pair, (b, a)):
            got = _lae(x, y)
            assert type(got) is float
            with np.errstate(over="ignore"):
                want = float(np.logaddexp(x, y))
            assert got.hex() == want.hex(), (x, y)


class TestBuildPrefixTree:
    def test_single_entry_chain(self):
        vocab = vocab_of(4)
        tree = build_prefix_tree([LexiconEntry("w", ("p1", "p2", "p3"))], vocab)
        assert tree.node_count == 3
        node = tree.root
        for tok in ("p1", "p2", "p3"):
            [(pid, _, node)] = node.arcs
            assert pid == vocab.index(tok)
        assert node.words == ("w",)

    def test_shared_prefix(self):
        vocab = vocab_of(4)
        tree = build_prefix_tree(
            [LexiconEntry("ab", ("p1", "p2")), LexiconEntry("ac", ("p1", "p3"))], vocab)
        assert tree.node_count == 3
        assert len(tree.root.arcs) == 1

    def test_duplicate_pron_merges_with_two_finals(self):
        vocab = vocab_of(3)
        tree = build_prefix_tree(
            [LexiconEntry("x", ("p1",)), LexiconEntry("y", ("p1",))], vocab)
        assert tree.node_count == 1
        [(_, _, node)] = tree.root.arcs
        assert node.words == ("x", "y")

    def test_real_lexicon_shares_nodes(self, inv, g2p_table):
        from mienasr.lexicon import build_lexicon, derive_phoneme_vocab
        words = ["mienh", "mingh", "maaih", "mbuo", "dorn", "daaih", "duqv",
                 "nyei", "nziepc", "ginghgungv", "gingh", "gungv"]
        entries, _ = build_lexicon(words, g2p_table, inv)
        vocab = derive_phoneme_vocab(entries)
        tree = build_prefix_tree(entries, vocab)
        total_tokens = sum(len(e.pron) for e in entries)
        assert tree.node_count < total_tokens

    def test_token_outside_vocab_rejected(self):
        with pytest.raises(ValueError, match="word 'w'"):
            build_prefix_tree([LexiconEntry("w", ("zz",))], vocab_of(3))

    def test_arcs_list_children(self, packaged_trie):
        """Every node's arcs are its children as (phone, index, child), one per
        phone, in the order the lexicon's pronunciations first reach them, on
        the ~1,000-word trie and on a spelled LM trie."""
        entries, tree, lm = packaged_trie
        words = sorted(set(lm.vocab) - {BOS, EOS, UNK})
        bpe = bpe_train(words, vocab_size=80)
        spelled_tree = spell_lm_words(bpe, lm)
        spelled = [LexiconEntry(w, tuple(bpe.vocab[i] for i in bpe_encode(w, bpe)))
                   for w in words]
        for t, lexicon in ((tree, entries), (spelled_tree, spelled)):
            first_seen = {}   # path of phones -> the phones that first extend it, in order
            for e in lexicon:
                path = tuple(t.vocab.index(tok) for tok in e.pron)
                for i in range(len(path)):
                    first_seen.setdefault(path[:i], {}).setdefault(path[i])
            stack, visited = [((), t.root)], 0
            while stack:
                path, node = stack.pop()
                visited += 1
                assert [k for k, _, _ in node.arcs] == list(first_seen.get(path, ()))
                for k, idx, child in node.arcs:
                    assert (idx, child.phone) == (child.idx, k)
                    stack.append((path + (k,), child))
            assert visited == t.node_count + 1


class TestDecodePhoneme:
    def toy_tree(self):
        vocab = vocab_of(4)
        entries = [LexiconEntry("ba", ("p1", "p2")), LexiconEntry("da", ("p3",))]
        return vocab, entries, build_prefix_tree(entries, vocab)

    def test_peaked_single_word(self):
        vocab, entries, tree = self.toy_tree()
        em = EmissionMatrix(logits=peaked_emissions([1, 2], len(vocab)))
        hyps = decode_phoneme(em, tree, None, DecodeConfig(beam_size=8))
        assert hyps[0].words == ("ba",)

    def test_lexicon_soundness(self):
        vocab, entries, tree = self.toy_tree()
        rng = np.random.default_rng(0)
        for _ in range(30):
            em = EmissionMatrix(logits=normalize_rows(rng.normal(size=(4, len(vocab)))))
            for h in decode_phoneme(em, tree, None, DecodeConfig(beam_size=4)):
                assert set(h.words) <= {e.word for e in entries}

    def test_zero_lm_weight_matches_pure_acoustic_ranking(self):
        vocab, entries, tree = self.toy_tree()
        model = lm_train(["ba da", "da da ba"], order=2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            em = EmissionMatrix(logits=normalize_rows(rng.normal(size=(3, len(vocab)))))
            with_zero = decode_phoneme(em, tree, model,
                                       DecodeConfig(beam_size=64, lm_weight=0.0))
            without = decode_phoneme(em, tree, None,
                                     DecodeConfig(beam_size=64, lm_weight=0.0))
            assert [h.words for h in with_zero] == [h.words for h in without]
            for a, b in zip(with_zero, without):
                assert a.score == pytest.approx(b.score)

    def test_homophones_need_the_lm(self):
        tree, model, logits, truth = homophone_case()
        em = EmissionMatrix(logits=logits)
        no_lm = decode_phoneme(em, tree, None, DecodeConfig(beam_size=8))
        assert no_lm[0].words == ("baav",)  # lexicographic tie-break
        with_lm = decode_phoneme(em, tree, model, DecodeConfig(beam_size=8, lm_weight=1.0))
        assert with_lm[0].words == (truth,)

    def test_homophones_spawn_parallel_hypotheses(self):
        tree, model, logits, _ = homophone_case()
        hyps = decode_phoneme(EmissionMatrix(logits=logits), tree, model,
                              DecodeConfig(beam_size=8))
        seqs = [h.words for h in hyps]
        assert ("baav",) in seqs and ("daav",) in seqs

    def test_beam_monotonicity(self):
        vocab, entries, tree = self.toy_tree()
        model = lm_train(["ba da ba", "da ba"], order=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            em = EmissionMatrix(logits=normalize_rows(rng.normal(size=(4, len(vocab)))))
            prev = -math.inf
            for beam in (1, 2, 4, 16, 64):
                hyps = decode_phoneme(em, tree, model, DecodeConfig(beam_size=beam))
                if hyps:
                    assert hyps[0].score >= prev - 1e-12
                    prev = hyps[0].score

    def test_determinism(self):
        vocab, entries, tree = self.toy_tree()
        model = lm_train(["ba da", "da"], order=2)
        rng = np.random.default_rng(3)
        em = EmissionMatrix(logits=normalize_rows(rng.normal(size=(5, len(vocab)))))
        cfg = DecodeConfig(beam_size=4)
        assert decode_phoneme(em, tree, model, cfg) == decode_phoneme(em, tree, model, cfg)

    def test_score_decomposition(self):
        vocab, entries, tree = self.toy_tree()
        model = lm_train(["ba da", "da"], order=2)
        cfg = DecodeConfig(beam_size=16, lm_weight=0.8, word_insertion_penalty=-0.3)
        em = EmissionMatrix(logits=peaked_emissions([1, 2, 3], len(vocab)))
        for h in decode_phoneme(em, tree, model, cfg):
            assert h.score == pytest.approx(
                h.score_ac + 0.8 * h.score_lm + -0.3 * len(h.words))
            assert h.score_lm == pytest.approx(LN10 * lm_log10(model, h.words))

    def test_vocab_mismatch_rejected(self):
        vocab, entries, tree = self.toy_tree()
        em = EmissionMatrix(logits=peaked_emissions([1], 6))
        with pytest.raises(ValueError, match="vocab"):
            decode_phoneme(em, tree, None, DecodeConfig())

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_prefix_tree([], vocab_of(3))

    def test_exhaustive_beam_equals_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            V = int(rng.integers(2, 5))
            T = int(rng.integers(1, 6))
            vocab = vocab_of(V)
            entries = []
            for i in range(int(rng.integers(1, 5))):
                pron = tuple(f"p{rng.integers(1, V)}"
                             for _ in range(int(rng.integers(1, 4))))
                entries.append(LexiconEntry(f"w{i}", pron))
            names = sorted({e.word for e in entries})
            sents = [" ".join(rng.choice(names, size=int(rng.integers(1, 4))))
                     for _ in range(4)]
            model = lm_train(sents, order=2) if trial % 3 else None
            lw = float(rng.choice([0.0, 0.5, 1.0]))
            wip = float(rng.choice([-0.5, 0.0, 0.5]))
            logits = normalize_rows(rng.normal(size=(T, V)))
            tree = build_prefix_tree(entries, vocab)
            cfg = DecodeConfig(beam_size=10 ** 6, lm_weight=lw, word_insertion_penalty=wip)
            hyps = decode_phoneme(EmissionMatrix(logits=logits), tree, model, cfg)
            want = brute_force_phoneme(logits, entries, vocab, model, lw, wip)
            if want is None:
                assert not hyps
                continue
            assert hyps[0].words == want[0]
            assert hyps[0].score == pytest.approx(want[1], abs=1e-6)


@pytest.fixture(scope="module")
def bpe():
    return bpe_train(["ab ab b", "ab b", "b ab ab"], vocab_size=6)


def spelled(words, bpe):
    """Lexicon entries spelling each word with its BPE tokens."""
    return [LexiconEntry(w, tuple(bpe.vocab[i] for i in bpe_encode(w, bpe))) for w in words]


class TestDecodeSubword:

    def test_peaked_word(self, bpe):
        target = bpe.token_to_id[MARKER + "ab"]
        em = EmissionMatrix(logits=peaked_emissions([target], len(bpe.vocab)))
        hyps = decode(em, DecodeConfig(beam_size=8), bpe=bpe)
        assert hyps[0].words == ("ab",)

    def test_vocab_mismatch_rejected(self, bpe):
        em = EmissionMatrix(logits=peaked_emissions([1], len(bpe.vocab) + 2))
        with pytest.raises(ValueError, match="vocab"):
            decode(em, DecodeConfig(), bpe=bpe)

    def test_exhaustive_beam_equals_brute_force(self, bpe):
        """With an LM, the best sequence of the LM's words as the BPE model spells them."""
        rng = np.random.default_rng(6)
        V = len(bpe.vocab)
        model = lm_train(["ab ab b", "b ab"], order=2)
        tree = spell_lm_words(bpe, model)
        for trial in range(25):
            T = int(rng.integers(1, 5))
            lw = float(rng.choice([0.0, 0.8]))
            logits = normalize_rows(rng.normal(size=(T, V)))
            cfg = DecodeConfig(beam_size=10 ** 6, lm_weight=lw)
            hyps = decode(EmissionMatrix(logits=logits), cfg, lex=tree, bpe=bpe, lm=model)
            want = brute_force_phoneme(logits, spelled(["ab", "b"], bpe), PhonemeVocab(bpe.vocab),
                                       model, lw, 0.0)
            if want is None:
                assert not hyps
                continue
            assert hyps[0].words == want[0]
            assert hyps[0].score == pytest.approx(want[1], abs=1e-6)

    def test_lm_word_spelled_with_unk_rejected(self, bpe):
        model = lm_train(["ab b", "abc"], order=2)
        with pytest.raises(ValueError, match="'abc'.*<unk>"):
            spell_lm_words(bpe, model)


class TestFourGramIntegration:
    def test_order4_arpa_round_trip_drives_decoder(self, inv, g2p_table, tmp_path):
        from mienasr.lexicon import build_lexicon, derive_phoneme_vocab
        from mienasr.lm import arpa_read, arpa_write
        corpus = ["mbuo mienh nyei dorn", "mienh nyei dorn daaih",
                  "mbuo nyei mienh", "dorn daaih mbuo nyei"]
        entries, _ = build_lexicon([w for s in corpus for w in s.split()],
                                   g2p_table, inv)
        vocab = derive_phoneme_vocab(entries)
        tree = build_prefix_tree(entries, vocab)
        model = lm_train(corpus, order=4)
        path = tmp_path / "lm4.arpa"
        arpa_write(model, path)
        loaded = arpa_read(path)
        pron = {e.word: e.pron for e in entries}
        ids = [vocab.index(t) for w in "mbuo mienh nyei dorn".split()
               for t in pron[w]]
        em = EmissionMatrix(logits=peaked_emissions(ids, len(vocab)))
        hyps = decode_phoneme(em, tree, loaded, DecodeConfig(beam_size=16))
        assert hyps[0].words == ("mbuo", "mienh", "nyei", "dorn")


class TestDispatcher:
    def test_requires_matching_inputs(self, bpe):
        em = EmissionMatrix(logits=peaked_emissions([1], 3))
        with pytest.raises(ValueError, match="prefix tree"):
            decode(em, DecodeConfig())
        em = EmissionMatrix(logits=peaked_emissions([1], len(bpe.vocab)))
        with pytest.raises(ValueError, match="prefix tree"):   # subword mode with an LM
            decode(em, DecodeConfig(), bpe=bpe, lm=lm_train(["ab b"], order=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(lm_weight=-0.1)

    @pytest.mark.parametrize("field, value", [("lm_weight", math.nan), ("lm_weight", math.inf),
                                              ("word_insertion_penalty", math.nan),
                                              ("word_insertion_penalty", -math.inf)])
    def test_non_finite_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**{field: value})

    @pytest.mark.parametrize("lm_weight", [1e308, 1.7976931348623157e308])
    def test_lm_weight_whose_natural_log_scale_overflows_rejected(self, lm_weight):
        """lm_weight * ln 10 = inf times an LM log10 of 0.0 would be a NaN score."""
        with pytest.raises(ValueError, match="lm_weight"):
            DecodeConfig(lm_weight=lm_weight)

    def test_largest_accepted_lm_weight_scores_without_nan(self):
        """DecodeConfig accepts 1e307, but with an LM the decode refuses it:
        its LM term could overflow (TestLmTermOverflow)."""
        lm_weight = 1e307
        assert math.isfinite(lm_weight * LN10)
        model = lm_train(["a", "a", "a"], order=2, smoothing="mle")   # P(a | <s>) = 1
        assert lm_score(model, (BOS,), "a") == 0.0
        tree = build_prefix_tree([LexiconEntry("a", ("p1",))], vocab_of(2))
        em = EmissionMatrix(logits=peaked_emissions([1], 2))
        with pytest.raises(ValueError, match="lm_weight"):
            decode_phoneme(em, tree, model, DecodeConfig(lm_weight=lm_weight))


def two_word_case():
    """An MLE bigram LM on "a b", lexicon a/b, emissions peaking on "b a"."""
    model = lm_train(["a b"], order=2, smoothing="mle")
    tree = build_prefix_tree([LexiconEntry("a", ("p1",)), LexiconEntry("b", ("p2",))],
                             vocab_of(3))
    return EmissionMatrix(logits=peaked_emissions([2, 1], 3)), tree, model


class TestInsertionTermOverflow:
    """``wip`` times the frame count past the float range is an error, never an inf or NaN score."""

    @pytest.mark.parametrize("lm_weight", [1.0, 1e306])
    def test_overflowing_insertion_term_names_the_setting(self, lm_weight):
        em, tree, model = two_word_case()
        cfg = DecodeConfig(lm_weight=lm_weight, word_insertion_penalty=1e308)
        with pytest.raises(ValueError, match="word_insertion_penalty"):
            decode_phoneme(em, tree, model, cfg)

    def test_greedy_subword_insertion_term(self, bpe):
        ids = bpe_encode("ab ab", bpe)
        em = EmissionMatrix(logits=peaked_emissions(ids, len(bpe.vocab)))
        assert decode(em, DecodeConfig(word_insertion_penalty=1e307), bpe=bpe)[0].score < math.inf
        with pytest.raises(ValueError, match="word_insertion_penalty"):
            decode(em, DecodeConfig(word_insertion_penalty=1e308), bpe=bpe)

    @pytest.mark.parametrize("beam_size", [1, 16])
    def test_bound_holds_before_any_word_forms(self, beam_size):
        """All-blank frames complete no word, and the search still raises: the
        bound is the utterance's, not the beam's."""
        _, tree, model = two_word_case()
        em = EmissionMatrix(logits=np.vstack([peaked_emissions([], 3)] * 2))   # two blank frames
        cfg = DecodeConfig(beam_size=beam_size, word_insertion_penalty=1e308)
        with pytest.raises(ValueError, match="word_insertion_penalty 1e\\+308 times 2 frames"):
            decode_phoneme(em, tree, model, cfg)

    def test_largest_finite_term_decodes(self):
        em, tree, model = two_word_case()
        hyps = decode_phoneme(em, tree, model, DecodeConfig(word_insertion_penalty=5e307))
        assert hyps and all(math.isfinite(h.score) for h in hyps)


class TestLmTermOverflow:
    """Every ARPA value lies above -323.3 in log10, a word's log10 sums at most
    ``order`` of them, and a hypothesis scores at most T words and ``</s>``:
    an ``lm_weight`` that could take that LM term past the float range is an
    error before the search, never a ``-inf`` score."""

    @staticmethod
    def limit(order, frames):
        return 1.7976931348623157e308 / (LN10 * 323.3 * order * (frames + 1))

    def test_lm_weight_past_the_bound_names_the_setting(self):
        em, tree, model = two_word_case()
        cfg = DecodeConfig(lm_weight=self.limit(model.order, em.frames) * (1 + 1e-9))
        with pytest.raises(ValueError, match="lm_weight"):
            decode_phoneme(em, tree, model, cfg)

    def test_lm_weight_below_the_bound_scores_finitely(self):
        em, tree, model = two_word_case()
        cfg = DecodeConfig(lm_weight=self.limit(model.order, em.frames) * (1 - 1e-9))
        hyps = decode_phoneme(em, tree, model, cfg)
        assert hyps and all(math.isfinite(h.score) for h in hyps)

    def test_no_lm_has_no_lm_term_to_bound(self):
        em, tree, _ = two_word_case()
        hyps = decode_phoneme(em, tree, None, DecodeConfig(lm_weight=1e307))
        assert hyps[0].words == ("b", "a") and math.isfinite(hyps[0].score)


GOLDEN_NBEST = Path(__file__).parent / "data" / "decoder_golden_nbest.json"
MERGE_LOGITS = np.log(np.array([[0.1, 0.05, 0.5, 0.05, 0.3],
                                [0.2, 0.05, 0.05, 0.1, 0.6],
                                [0.7, 0.1, 0.05, 0.1, 0.05]]))


def golden_cases():
    """Seeded decode cases whose full n-best lists are pinned in GOLDEN_NBEST.

    Yields (case id, decode thunk).  The lexicon has a homophone pair
    ("da"/"y") and a word with two pronunciations ("x"), whose finals merge.
    """
    vocab = vocab_of(5)
    entries = [LexiconEntry("ba", ("p1", "p2")), LexiconEntry("bad", ("p1", "p2", "p3")),
               LexiconEntry("da", ("p3",)), LexiconEntry("y", ("p3",)),
               LexiconEntry("x", ("p4",)), LexiconEntry("x", ("p2", "p4"))]
    tree = build_prefix_tree(entries, vocab)
    p_lm = lm_train(["ba da x", "x bad", "da ba y x", "y y ba"], order=2)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        logits = normalize_rows(1.5 * rng.normal(size=(int(rng.integers(5, 8)), len(vocab))))
        for beam in (1, 4, 16):
            for use_lm in (False, True):
                cfg = DecodeConfig(beam_size=beam, lm_weight=0.7,
                                   word_insertion_penalty=(-0.4, 0.3, 0.9)[seed])
                lm = p_lm if use_lm else None
                yield (f"phoneme-s{seed}-b{beam}-{'lm' if use_lm else 'nolm'}",
                       lambda em=EmissionMatrix(logits=logits), lm=lm, cfg=cfg:
                       decode_phoneme(em, tree, lm, cfg))
    # both pronunciations of "x" carry mass and end in one merged final
    for use_lm in (False, True):
        cfg = DecodeConfig(beam_size=16, lm_weight=0.7, word_insertion_penalty=-0.2)
        yield (f"phoneme-merge-{'lm' if use_lm else 'nolm'}",
               lambda lm=(p_lm if use_lm else None), cfg=cfg: decode_phoneme(
                   EmissionMatrix(logits=MERGE_LOGITS), tree, lm, cfg))


def nbest_record(hyps):
    return [[list(h.words), h.score, h.score_ac, h.score_lm] for h in hyps]


class TestGoldenNBest:
    """Full n-best lists at finite beams, pinned against recorded values."""

    def test_nbest_matches_recorded(self):
        want = json.loads(GOLDEN_NBEST.read_text(encoding="utf-8"))
        got = {cid: nbest_record(run()) for cid, run in golden_cases()}
        assert sorted(got) == sorted(want)
        for cid, hyps in got.items():
            assert [h[0] for h in hyps] == [h[0] for h in want[cid]], cid
            for h, w in zip(hyps, want[cid]):
                assert h[1:] == pytest.approx(w[1:], abs=1e-9, rel=0), cid

    def test_merge_case_pools_both_pronunciations(self):
        want = json.loads(GOLDEN_NBEST.read_text(encoding="utf-8"))
        merged = [h for h in want["phoneme-merge-nolm"] if h[0] == ["x"]]
        assert len(merged) == 1
        cfg = DecodeConfig(beam_size=16, lm_weight=0.7, word_insertion_penalty=-0.2)
        single = []
        for pron in (("p4",), ("p2", "p4")):
            tree = build_prefix_tree([LexiconEntry("x", pron)], vocab_of(5))
            hyps = decode_phoneme(EmissionMatrix(logits=MERGE_LOGITS), tree, None, cfg)
            single += [h.score_ac for h in hyps if h.words == ("x",)]
        assert merged[0][2] == pytest.approx(np.logaddexp(*single), abs=1e-9)


GOLDEN_TIES = Path(__file__).parent / "data" / "decoder_golden_ties.json"


def tie_cases():
    """Uniform-emission decode cases whose beam cut falls inside a tied set.

    Yields (case id, decode thunk).  Every token has the same probability in
    every frame, so states with equal mass and equal word sequences tie on
    score (without the LM, equal word counts suffice).  Each beam is smaller
    than the set tied at its cut, so the pinned n-best fixes the tie-break
    after the score: the word sequence, then the trie node.
    """
    vocab = vocab_of(5)
    entries = [LexiconEntry("ba", ("p1", "p2")), LexiconEntry("bad", ("p1", "p2", "p3")),
               LexiconEntry("da", ("p3",)), LexiconEntry("y", ("p3",)),
               LexiconEntry("x", ("p4",)), LexiconEntry("x", ("p2", "p4"))]
    tree = build_prefix_tree(entries, vocab)
    p_lm = lm_train(["ba da x", "x bad", "da ba y x", "y y ba"], order=2)
    V = len(vocab)
    for T in (3, 5):
        em = EmissionMatrix(logits=np.full((T, V), -math.log(V)))
        for beam in (2, 3):
            for use_lm in (False, True):
                cfg = DecodeConfig(beam_size=beam, lm_weight=0.7)
                lm = p_lm if use_lm else None
                yield (f"phoneme-t{T}-b{beam}-{'lm' if use_lm else 'nolm'}",
                       lambda em=em, lm=lm, cfg=cfg: decode_phoneme(em, tree, lm, cfg))


class TestGoldenTies:
    """N-best lists where the beam cut splits a set of tied scores."""

    def test_nbest_matches_recorded(self):
        want = json.loads(GOLDEN_TIES.read_text(encoding="utf-8"))
        got = {cid: nbest_record(run()) for cid, run in tie_cases()}
        assert sorted(got) == sorted(want)
        for cid, hyps in got.items():
            assert [h[0] for h in hyps] == [h[0] for h in want[cid]], cid
            for h, w in zip(hyps, want[cid]):
                assert h[1:] == pytest.approx(w[1:], abs=1e-9, rel=0), cid


# -- reference: the core and hooks that expanded every token ----------------

def ref_prefix_beam_search(em, cfg, start, last_token, expand, tie, finish):
    logits = em.logits
    beam_size = cfg.beam_size
    lam, wip = cfg.lm_weight, cfg.word_insertion_penalty
    lam10 = lam * LN10

    states = {((), start): [0.0, NEG_INF, 0.0]}
    for t in range(em.frames):
        y = logits[t].tolist()
        beam: dict = {}
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
            for k, new_key, new_lm10 in expand(words, pos, lm10):
                mass = (pb if k == last else total) + y[k]
                entry = beam.get(new_key)
                if entry is None:
                    beam[new_key] = [NEG_INF, mass, new_lm10]
                else:
                    entry[1] = _lae(entry[1], mass)
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


def ref_decode_phoneme(em, lex, lm, cfg):
    root = lex.root

    def expand(words, node, lm10):
        for pid, _, child in node.arcs:
            yield pid, (words, child), lm10
        for w in node.words:
            w_lm10 = lm10 + _lm10(lm, (BOS,) + words, w)
            new_words = words + (w,)
            for pid, _, child in root.arcs:
                yield pid, (new_words, child), w_lm10

    def finish(words, node, lm10):
        if node is root:
            yield words, words, lm10 + _lm10(lm, (BOS,) + words, EOS)
        for w in node.words:
            full = words + (w,)
            yield full, full, (lm10 + _lm10(lm, (BOS,) + words, w)
                               + _lm10(lm, (BOS,) + full, EOS))

    return ref_prefix_beam_search(em, cfg, root, attrgetter("phone"), expand,
                                  attrgetter("idx"), finish)


@st.composite
def emission_rows(draw, V):
    """A T x V log-prob matrix: Gaussian, peaked, rounded or uniform (ties), or holed."""
    T = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["gaussian", "peaked", "rounded", "uniform", "holes"]))
    rng = np.random.default_rng(seed)
    raw = draw(st.sampled_from([0.3, 1.5, 4.0])) * rng.normal(size=(T, V))
    if kind == "peaked":
        raw[np.arange(T), rng.integers(0, V, size=T)] += 6.0
    elif kind == "rounded":   # few distinct values per row: tied tokens
        raw = np.round(raw)
    elif kind == "uniform":   # every token ties, so the cut splits tied sets
        raw = np.zeros((T, V))
    elif kind == "holes":     # -inf cells, at least one finite cell per row
        keep = rng.integers(0, V, size=T)
        raw[rng.random((T, V)) < 0.4] = -math.inf
        raw[np.arange(T), keep] = 0.0
    return normalize_rows(raw)


@st.composite
def phoneme_case(draw):
    """A lexicon with homophones and words of two or three pronunciations."""
    V = draw(st.integers(3, 6))
    vocab = vocab_of(V)
    pron = st.lists(st.integers(1, V - 1), min_size=1, max_size=3).map(
        lambda ids: tuple(f"p{i}" for i in ids))
    shared = draw(pron)   # every word may take it, so homophones are common
    entries = []
    for word in draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True)):
        for p in draw(st.lists(st.one_of(st.just(shared), pron), min_size=1, max_size=3)):
            entries.append(LexiconEntry(word, p))
    corpus = [" ".join(draw(st.lists(st.sampled_from([e.word for e in entries]),
                                     min_size=1, max_size=4))) for _ in range(3)]
    return build_prefix_tree(entries, vocab), V, corpus


@st.composite
def subword_case(draw):
    """A BPE model small enough that one state's extension is often another state."""
    chars = draw(st.sampled_from(["ab", "abc", "aab"]))
    words = st.text(alphabet=chars, min_size=1, max_size=5)
    corpus = draw(st.lists(st.lists(words, min_size=1, max_size=4).map(" ".join),
                           min_size=1, max_size=4))
    alphabet = {MARKER + w[0] for line in corpus for w in line.split()}
    alphabet |= {c for line in corpus for w in line.split() for c in w[1:]}
    bpe = bpe_train(corpus, draw(st.integers(3 + len(alphabet), 12 + len(alphabet))))
    return bpe, len(bpe.vocab), corpus


@st.composite
def decode_case(draw, case=phoneme_case):
    unit, V, corpus = draw(case())
    lm = None
    if draw(st.booleans()):
        lm = lm_train(corpus, order=draw(st.integers(1, 3)),
                      smoothing=draw(st.sampled_from(["kneser_ney", "mle"])))
    cfg = DecodeConfig(beam_size=draw(st.integers(1, 32)),
                       lm_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 2.3])),
                       word_insertion_penalty=draw(st.sampled_from([-1.0, 0.0, 0.4])))
    return EmissionMatrix(logits=draw(emission_rows(V))), unit, lm, cfg


class TestMatchesReference:
    """Bounded expansion keeps every n-best list of the all-token expansion."""

    @settings(max_examples=600)
    @given(decode_case())
    def test_same_nbest_bit_for_bit(self, case):
        em, unit, lm, cfg = case
        got, want = decode_phoneme(em, unit, lm, cfg), ref_decode_phoneme(em, unit, lm, cfg)
        assert repr(got) == repr(want)

    @settings(max_examples=300)
    @given(decode_case(subword_case))
    def test_subword_is_the_spelled_trie_with_lm_and_greedy_without(self, case):
        em, bpe, lm, cfg = case
        if lm is None:
            got = decode(em, cfg, bpe=bpe)
            assert [h.words for h in got] == [tuple(bpe_decode(greedy_decode(em), bpe).split())]
            return
        got = decode(em, cfg, lex=spell_lm_words(bpe, lm), bpe=bpe, lm=lm)
        words = sorted(set(lm.vocab) - {BOS, EOS, UNK})
        tree = build_prefix_tree(spelled(words, bpe), PhonemeVocab(bpe.vocab))
        assert repr(got) == repr(ref_decode_phoneme(em, tree, lm, cfg))


@st.composite
def tied_rows(draw, V):
    """A T x V log-prob matrix whose cells take two finite values or -inf.

    Equal cells give equal masses along different paths, and -inf cells
    leave a key with only the mass of its blank extension, so a score can
    land exactly on the seeded floor.
    """
    T = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.choice([0.0, -1.0, -math.inf], size=(T, V))
    raw[np.arange(T), rng.integers(0, V, size=T)] = 0.0
    return normalize_rows(raw)


@st.composite
def narrow_case(draw):
    """A decode case at beams 1-4, where the seeded floor prunes in most frames."""
    em, unit, lm, cfg = draw(decode_case())
    if draw(st.booleans()):
        em = EmissionMatrix(logits=draw(tied_rows(em.vocab_size)))
    return em, unit, lm, dataclasses.replace(cfg, beam_size=draw(st.integers(1, 4)))


def floor_order_case():
    """("x", p1) and ("x", p3) enter frame 2 with equal mass.  There p3 cannot
    repeat, so ("x", p3) scores exactly its blank extension, and ("x", p1 p2)
    ties with it and wins on the node index.  Summed in another order than
    the cut's, that bound rounds one ulp above the tie and drops ("x", "ab").
    """
    tree = build_prefix_tree([LexiconEntry("ab", ("p1", "p2")), LexiconEntry("c", ("p3",)),
                              LexiconEntry("x", ("p4",))], vocab_of(5))
    with np.errstate(divide="ignore"):
        logits = np.log([[0.01, 0.01, 0.01, 0.01, 0.96],
                         [0.01, 0.49, 0.01, 0.49, 0.0],
                         [0.45, 0.1, 0.45, 0.0, 0.0]])
    lm = lm_train(["x ab", "x c"], order=1, smoothing="mle")
    cfg = DecodeConfig(beam_size=2, lm_weight=1.0, word_insertion_penalty=-1.0)
    return EmissionMatrix(logits=logits), tree, lm, cfg


class TestBeamFloor:
    """The floor from each frame's blank extensions drops only what the cut drops."""

    @settings(max_examples=400)
    @given(narrow_case())
    @example(floor_order_case())
    def test_narrow_beams_match_reference(self, case):
        em, unit, lm, cfg = case
        got, want = decode_phoneme(em, unit, lm, cfg), ref_decode_phoneme(em, unit, lm, cfg)
        assert repr(got) == repr(want)

    def test_two_pronunciations_reenter_together(self):
        """Word "a" is said p1 or p2; both re-enter the root into ("a",) at p3.

        At frame 1 the states are p1 and p2 (0.4 each) and the root (0.1),
        so the floor is the root's blank extension, 0.1 * 0.55 = 0.055.
        Each re-entry into p3 scores 0.4 * 0.1 = 0.04, below it, but the two
        pool to 0.08 and keep ("a", "b") in the beam of 3.
        """
        vocab = vocab_of(4)
        tree = build_prefix_tree([LexiconEntry("a", ("p1",)), LexiconEntry("a", ("p2",)),
                                  LexiconEntry("b", ("p3",))], vocab)
        em = EmissionMatrix(logits=np.log([[0.1, 0.4, 0.4, 0.1],
                                           [0.55, 0.175, 0.175, 0.1]]))
        cfg = DecodeConfig(beam_size=3)
        got = decode_phoneme(em, tree, None, cfg)
        assert repr(got) == repr(ref_decode_phoneme(em, tree, None, cfg))
        assert [h.words for h in got] == [("a",), ("a", "b")]
        assert got[1].score_ac == pytest.approx(math.log(0.08))

    def test_floor_sums_as_the_cut_sums(self):
        em, tree, lm, cfg = floor_order_case()
        got = decode_phoneme(em, tree, lm, cfg)
        assert repr(got) == repr(ref_decode_phoneme(em, tree, lm, cfg))
        assert [h.words for h in got] == [("x", "ab")]

    def test_ties_break_on_words_not_on_first_seen_order(self):
        """"b" is listed first, so ("b",) is met before ("a",) in frame 1.
        In frame 2 the root, ("a",) at p1 and ("b",) at p2 tie below the two
        one-phone states, and the beam of 4 keeps the smaller word sequence."""
        tree = build_prefix_tree([LexiconEntry("b", ("p1",)), LexiconEntry("a", ("p2",))],
                                 vocab_of(3))
        em = EmissionMatrix(logits=np.full((2, 3), -math.log(3)))
        cfg = DecodeConfig(beam_size=4)
        got = decode_phoneme(em, tree, None, cfg)
        assert repr(got) == repr(ref_decode_phoneme(em, tree, None, cfg))
        assert [h.words for h in got] == [("a",), ("b",), (), ("a", "b")]


# -- lexicon-sized cases: a full beam whose cut drops a dozen entries a frame --

@pytest.fixture(scope="module")
def packaged_trie(inv, g2p_table):
    """About 1,000 words of one or two packaged syllables, their trie, and
    a 3-gram LM over random sentences of them."""
    from mienasr.lexicon import build_lexicon, derive_phoneme_vocab
    rng = random.Random(2024)
    words = set()
    while len(words) < 1000:
        words.add("".join(rng.choice([""] + sorted(inv.initials)) + rng.choice(inv.finals)
                          + rng.choice(("",) + inv.tone_letters)
                          for _ in range(rng.randint(1, 2))))
    entries, _ = build_lexicon(sorted(words), g2p_table, inv)
    vocab = derive_phoneme_vocab(entries)
    known = [e.word for e in entries]
    common = known[:60]   # a skewed corpus, so the LM ranks some words well above others
    corpus = [" ".join(rng.choice(common if rng.random() < 0.7 else known)
                       for _ in range(rng.randint(1, 4))) for _ in range(400)]
    return entries, build_prefix_tree(entries, vocab), lm_train(corpus, order=3)


def peaky_rows(rng, path, V, T):
    """``path`` with blanks spread between its tokens over ``T`` frames,
    each frame a noisy peak on its token, normalized."""
    gaps = 1 + rng.multinomial(T - 2 * len(path) - 1, np.full(len(path) + 1, 1 / (len(path) + 1)))
    frames = [BLANK_ID] * int(gaps[0])
    for tok, gap in zip(path, gaps[1:]):
        frames += [tok] + [BLANK_ID] * int(gap)
    raw = rng.normal(0.0, 1.5, size=(T, V))
    raw[np.arange(T), frames] += 6.0
    return normalize_rows(raw)


class TestLexiconSized:
    """At beam 32 over a 1,000-word trie, most frames fill the beam and the
    cut drops about a dozen entries, as on the benchmark's phoneme workload;
    the few-word property cases seldom fill theirs."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("use_lm", [False, True])
    def test_matches_reference(self, packaged_trie, seed, use_lm):
        entries, tree, lm = packaged_trie
        rng = np.random.default_rng(seed)
        path = []
        while len(path) < 12:   # whole words, at most 29 tokens so that 60 frames hold them
            pron = [tree.vocab.index(tok) for tok in entries[int(rng.integers(len(entries)))].pron]
            if len(path) + len(pron) <= 29:
                path += pron
        T = int(rng.integers(max(40, 2 * len(path) + 1), 61))
        em = EmissionMatrix(logits=peaky_rows(rng, path, len(tree.vocab), T))
        cfg = DecodeConfig(beam_size=32, lm_weight=(0.5, 1.0, 2.0)[seed % 3],
                           word_insertion_penalty=(-0.5, 0.0, 1.0)[seed % 3])
        lm = lm if use_lm else None
        got = decode_phoneme(em, tree, lm, cfg)
        assert got
        assert repr(got) == repr(ref_decode_phoneme(em, tree, lm, cfg))


class TestFinalLmSum:
    """A final that no state re-entered with sums its LM log10 as the search does:
    the prefix's, then its last word's, then </s>."""

    def test_last_frame_word_is_scored_before_end_marker(self):
        tree = build_prefix_tree([LexiconEntry("a", ("p1",)), LexiconEntry("b", ("p2",))],
                                 vocab_of(3))
        model = lm_train(["b a b a"], order=2)
        a, b, end = (lm_score(model, (BOS,), "a"), lm_score(model, (BOS, "a"), "b"),
                     lm_score(model, (BOS, "a", "b"), EOS))
        assert (a + b) + end != (a + end) + b   # so the order shows in the bits
        # "b" ends in the last frame, so no state re-enters the trie with ("a", "b")
        logits = np.log(np.array([[0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]))
        hyps = decode_phoneme(EmissionMatrix(logits=logits), tree, model, DecodeConfig())
        (hyp,) = [h for h in hyps if h.words == ("a", "b")]
        assert hyp.score_lm == LN10 * ((a + b) + end)


class TestPrefixTreeErrors:
    def test_empty_pronunciation_names_word(self):
        with pytest.raises(ValueError, match="word 'w' has an empty pronunciation"):
            build_prefix_tree([LexiconEntry("w", ())], vocab_of(3))

    def test_blank_in_pronunciation_names_word(self):
        with pytest.raises(ValueError, match="word 'w' pronunciation contains the blank"):
            build_prefix_tree([LexiconEntry("w", ("p1", BLANK_TOKEN))], vocab_of(3))


class TestPeakedEmissions:
    def test_repeated_id_gets_a_blank_between(self):
        logits = peaked_emissions([1, 1], 3)
        assert logits.argmax(axis=1).tolist() == [1, BLANK_ID, 1, BLANK_ID]
        assert greedy_decode(EmissionMatrix(logits=logits)) == [1, 1]
