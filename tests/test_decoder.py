import json
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mienasr import BLANK_TOKEN
from mienasr.ctc import EmissionMatrix, collapse, normalize_rows
from mienasr.decoder import (LN10, DecodeConfig, build_prefix_tree, decode,
                             decode_phoneme, decode_subword)
from mienasr.fixtures import homophone_case, peaked_emissions
from mienasr.lexicon import LexiconEntry, PhonemeVocab
from mienasr.lm import BOS, EOS, lm_score, lm_train
from mienasr.tokenizer import MARKER, bpe_train


def vocab_of(n):
    return PhonemeVocab((BLANK_TOKEN,) + tuple(f"p{i}" for i in range(1, n)))


def lm_log10(model, words):
    if model is None:
        return 0.0
    total, h = 0.0, (BOS,)
    for w in words:
        total += lm_score(model, h, w)
        h = h + (w,)
    return total + lm_score(model, h, EOS)


def collapsed_mass(logits):
    """Acoustic mass of every collapsed label sequence, by enumeration."""
    T, V = logits.shape
    mass = {}
    for path in product(range(V), repeat=T):
        key = tuple(collapse(path))
        mass[key] = mass.get(key, 0.0) + math.exp(sum(logits[t, k] for t, k in enumerate(path)))
    return mass


def brute_force_phoneme(logits, entries, vocab, model, lm_weight, wip):
    """Best word sequence over all (word sequence, alignment) pairs."""
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


class TestBuildPrefixTree:
    def test_single_entry_chain(self):
        vocab = vocab_of(4)
        tree = build_prefix_tree([LexiconEntry("w", ("p1", "p2", "p3"))], vocab)
        assert tree.node_count == 3
        node = tree.root
        for tok in ("p1", "p2", "p3"):
            node = node.children[vocab.index(tok)]
        assert node.words == ("w",)

    def test_shared_prefix(self):
        vocab = vocab_of(4)
        tree = build_prefix_tree(
            [LexiconEntry("ab", ("p1", "p2")), LexiconEntry("ac", ("p1", "p3"))], vocab)
        assert tree.node_count == 3
        assert len(tree.root.children) == 1

    def test_duplicate_pron_merges_with_two_finals(self):
        vocab = vocab_of(3)
        tree = build_prefix_tree(
            [LexiconEntry("x", ("p1",)), LexiconEntry("y", ("p1",))], vocab)
        assert tree.node_count == 1
        assert tree.root.children[1].words == ("x", "y")

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
        with pytest.raises(KeyError):
            build_prefix_tree([LexiconEntry("w", ("zz",))], vocab_of(3))


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
                assert all(w in tree.words for w in h.words)

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
        vocab = vocab_of(3)
        tree = build_prefix_tree([], vocab)
        em = EmissionMatrix(logits=peaked_emissions([1], len(vocab)))
        with pytest.raises(ValueError, match="empty"):
            decode_phoneme(em, tree, None, DecodeConfig())

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


class TestDecodeSubword:

    def test_peaked_word(self, bpe):
        target = bpe.token_to_id[MARKER + "ab"]
        em = EmissionMatrix(logits=peaked_emissions([target], len(bpe.vocab)))
        hyps = decode_subword(em, bpe, None, DecodeConfig(beam_size=8, mode="subword"))
        assert hyps[0].words == ("ab",)

    def test_vocab_mismatch_rejected(self, bpe):
        em = EmissionMatrix(logits=peaked_emissions([1], len(bpe.vocab) + 2))
        with pytest.raises(ValueError, match="vocab"):
            decode_subword(em, bpe, None, DecodeConfig(mode="subword"))

    def test_zero_lm_weight_matches_pure_acoustic(self, bpe):
        model = lm_train(["ab b", "b"], order=2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = normalize_rows(rng.normal(size=(3, len(bpe.vocab))))
            em = EmissionMatrix(logits=logits)
            zero = decode_subword(em, bpe, model,
                                  DecodeConfig(beam_size=64, lm_weight=0.0, mode="subword"))
            none = decode_subword(em, bpe, None,
                                  DecodeConfig(beam_size=64, lm_weight=0.0, mode="subword"))
            assert [h.words for h in zero] == [h.words for h in none]

    def test_exhaustive_beam_equals_brute_force(self, bpe):
        rng = np.random.default_rng(6)
        V = len(bpe.vocab)
        for trial in range(25):
            T = int(rng.integers(1, 5))
            model = lm_train(["ab ab b", "b ab"], order=2) if trial % 2 else None
            lw = float(rng.choice([0.0, 0.8]))
            logits = normalize_rows(rng.normal(size=(T, V)))
            cfg = DecodeConfig(beam_size=10 ** 6, lm_weight=lw, mode="subword")
            hyps = decode_subword(EmissionMatrix(logits=logits), bpe, model, cfg)
            best = None
            for key, m in collapsed_mass(logits).items():
                if m == 0.0:
                    continue
                words, cur = [], ""
                for tok in (bpe.vocab[i] for i in key):
                    if tok.startswith(MARKER):
                        if cur:
                            words.append(cur)
                        cur = tok[len(MARKER):]
                    else:
                        cur += tok
                if cur:
                    words.append(cur)
                words = tuple(words)
                score = math.log(m) + lw * LN10 * lm_log10(model, words)
                cand = (-score, words)
                if best is None or cand < best:
                    best = cand
            assert hyps[0].words == best[1]
            assert hyps[0].score == pytest.approx(-best[0], abs=1e-6)


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
    def test_requires_matching_inputs(self):
        em = EmissionMatrix(logits=peaked_emissions([1], 3))
        with pytest.raises(ValueError):
            decode(em, DecodeConfig(mode="phoneme"))
        with pytest.raises(ValueError):
            decode(em, DecodeConfig(mode="subword"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(lm_weight=-0.1)
        with pytest.raises(ValueError):
            DecodeConfig(mode="word")


GOLDEN_NBEST = Path(__file__).parent / "data" / "decoder_golden_nbest.json"
MERGE_LOGITS = np.log(np.array([[0.1, 0.05, 0.5, 0.05, 0.3],
                                [0.2, 0.05, 0.05, 0.1, 0.6],
                                [0.7, 0.1, 0.05, 0.1, 0.05]]))


def golden_cases():
    """Seeded decode cases whose full n-best lists are pinned in GOLDEN_NBEST.

    Yields (case id, decode thunk).  The phoneme lexicon has a homophone
    pair ("da"/"y") and a word with two pronunciations ("x"), whose finals
    merge; the subword vocabulary spells "ab" both as "▁ab" and "▁a b".
    """
    vocab = vocab_of(5)
    entries = [LexiconEntry("ba", ("p1", "p2")), LexiconEntry("bad", ("p1", "p2", "p3")),
               LexiconEntry("da", ("p3",)), LexiconEntry("y", ("p3",)),
               LexiconEntry("x", ("p4",)), LexiconEntry("x", ("p2", "p4"))]
    tree = build_prefix_tree(entries, vocab)
    p_lm = lm_train(["ba da x", "x bad", "da ba y x", "y y ba"], order=2)
    bpe = bpe_train(["ab ab b", "ab b", "b ab ab"], vocab_size=6)
    s_lm = lm_train(["ab ab b", "b ab", "ab"], order=2)
    modes = (("phoneme", decode_phoneme, tree, p_lm, len(vocab)),
             ("subword", decode_subword, bpe, s_lm, len(bpe.vocab)))
    for mode, fn, unit, model, V in modes:
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            logits = normalize_rows(1.5 * rng.normal(size=(int(rng.integers(5, 8)), V)))
            for beam in (1, 4, 16):
                for use_lm in (False, True):
                    cfg = DecodeConfig(beam_size=beam, lm_weight=0.7, mode=mode,
                                       word_insertion_penalty=(-0.4, 0.3, 0.9)[seed])
                    lm = model if use_lm else None
                    yield (f"{mode}-s{seed}-b{beam}-{'lm' if use_lm else 'nolm'}",
                           lambda fn=fn, em=EmissionMatrix(logits=logits), unit=unit,
                           lm=lm, cfg=cfg: fn(em, unit, lm, cfg))
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

    def test_subword_case_lists_one_word_sequence_twice(self):
        want = json.loads(GOLDEN_NBEST.read_text(encoding="utf-8"))
        assert any(len({tuple(h[0]) for h in hyps}) < len(hyps)
                   for cid, hyps in want.items() if cid.startswith("subword"))

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
