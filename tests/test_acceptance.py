"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import functools
import hashlib
import itertools
import logging
import math
import random
import time

import numpy as np
import pytest

from mienasr import BLANK_TOKEN
from mienasr.ctc import EmissionMatrix, ctc_loss, normalize_rows
from mienasr.decoder import DecodeConfig, build_prefix_tree, decode_phoneme
from mienasr.evaluate import error_rate, make_cv_plan, pool
from mienasr.experiment import load_config, run_experiment
from mienasr.fixtures import homophone_case, write_toy_experiment
from mienasr.lexicon import (LexiconEntry, PhonemeVocab, build_lexicon,
                             derive_phoneme_vocab, g2p, longest_match)
from mienasr.lm import (EOS, UNK, arpa_read, arpa_write, lm_train, normalization_mass,
                        perplexity)
from mienasr.orthography import parse_syllable, parse_word
from mienasr.transfer import EmbeddingMatrix, transfer_init

from oracles import brute_force_likelihood, brute_force_phoneme, edit_distances, uniform_lm


def criterion(number, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} FAIL: {text}")
                raise
            print(f"[acceptance] criterion {number:2d} PASS: {text}")
        return wrapper
    return deco


@criterion(1, "CTC forward/backward matches exhaustive paths and finite differences")
def test_ctc_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    eps = 1e-4
    for _ in range(200):
        T = int(rng.integers(1, 7))          # T <= 6
        V = int(rng.integers(2, 5))          # V <= 4, blank included
        labels = rng.integers(1, V, size=int(rng.integers(0, 4))).tolist()
        logits = normalize_rows(rng.normal(size=(T, V)))

        total = brute_force_likelihood(logits, labels)
        loss, grad = ctc_loss(logits, labels, with_grad=True)
        if total == 0.0:
            assert loss == math.inf
            continue
        assert abs(math.exp(-loss) - total) <= 1e-6

        for t in range(T):
            for k in range(V):
                up, down = logits.copy(), logits.copy()
                up[t, k] += eps
                down[t, k] -= eps
                fd = (ctc_loss(up, labels) - ctc_loss(down, labels)) / (2 * eps)
                assert abs(grad[t, k] - fd) <= 1e-3 * max(1.0, abs(fd))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "phoneme decoder with exhaustive beam equals brute-force enumeration")
def test_decoder_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(100):
        V = int(rng.integers(2, 5))          # phoneme vocab <= 4 incl blank
        T = int(rng.integers(1, 6))          # T <= 5
        vocab = PhonemeVocab((BLANK_TOKEN,) + tuple(f"p{i}" for i in range(1, V)))
        entries = []
        for i in range(int(rng.integers(1, 5))):   # lexicon <= 4 words
            pron = tuple(f"p{rng.integers(1, V)}"
                         for _ in range(int(rng.integers(1, 4))))
            entries.append(LexiconEntry(f"w{i}", pron))
        names = sorted({e.word for e in entries})
        model = lm_train(
            [" ".join(rng.choice(names, size=int(rng.integers(1, 4)))) for _ in range(4)],
            order=2) if trial % 3 else None
        lw = float(rng.choice([0.0, 0.5, 1.0]))
        wip = float(rng.choice([-0.5, 0.0, 0.5]))
        logits = normalize_rows(rng.normal(size=(T, V)))

        best = brute_force_phoneme(logits, entries, vocab, model, lw, wip)
        tree = build_prefix_tree(entries, vocab)
        cfg = DecodeConfig(beam_size=10 ** 6, lm_weight=lw, word_insertion_penalty=wip)
        hyps = decode_phoneme(EmissionMatrix(logits=logits), tree, model, cfg)
        if best is None:
            assert not hyps
            continue
        assert hyps[0].words == best[0]
        assert abs(hyps[0].score - best[1]) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"


@criterion(3, "all five published syllable decompositions reproduced exactly")
def test_reference_spellings_conformance(inv):
    examples = {
        "gingh": ("g", "", "i", "ng", "h"),
        "gungv": ("g", "", "u", "ng", "v"),
        "baengh": ("b", "", "ae", "ng", "h"),
        "nqaang": ("nq", "", "aa", "ng", ""),
        "guinh": ("g", "u", "i", "n", "h"),
    }
    for surface, want in examples.items():
        syl = parse_syllable(surface, inv)
        assert (syl.initial, syl.medial, syl.main, syl.final, syl.tone_mark) == want
    parsed = parse_word("ginghgungv", inv)
    assert [s.surface for s in parsed.syllables] == ["gingh", "gungv"]


@criterion(4, "lexicon: longest-match determinism, tone counts, diacritic pair")
def test_lexicon_properties(inv, g2p_table):
    # longest-match determinism on a toy table and on repeated conversion
    toy = {"a": ("A",), "ab": ("AB",), "b": ("B",)}
    for s in ("abab", "aabb", "ab", "ba"):
        assert longest_match(s, toy) == longest_match(s, toy)
    assert longest_match("aab", toy) == ["A", "AB"]

    rng = random.Random(404)
    onsets, rimes = list(inv.initials), list(inv.finals)
    tones = [""] + list(inv.tone_letters)
    for _ in range(1000):
        word = "".join(rng.choice(onsets) + rng.choice(rimes) + rng.choice(tones)
                       for _ in range(rng.randint(1, 3)))
        entry = g2p(word, g2p_table, inv)
        assert entry == g2p(word, g2p_table, inv)
        n_digits = sum(1 for t in entry.pron if t.isdigit())
        assert n_digits == len(parse_word(word, inv).syllables)

    # 'hn' and 'n' stay distinct with diacritics, merge once stripped
    entries, failures = build_lexicon(["hnaangv", "naangv"], g2p_table, inv)
    assert not failures
    assert entries[0].pron[0] == "n̥" and entries[1].pron[0] == "n"
    full = derive_phoneme_vocab(entries)
    stripped = derive_phoneme_vocab(entries, strip_diacritics=True)
    assert "n̥" in full.tokens and "n" in full.tokens
    assert "n̥" not in stripped.tokens and "n" in stripped.tokens
    assert len(stripped) < len(full)


@criterion(5, "LM normalization, ARPA round-trip identity, uniform perplexity")
def test_lm_properties(tmp_path):
    rng = random.Random(505)
    words = [f"w{i}" for i in range(45)]   # vocab stays under 50 with markers
    corpus = [" ".join(rng.choice(words) for _ in range(rng.randint(3, 9)))
              for _ in range(60)]
    model = lm_train(corpus, order=3)
    assert len(model.vocab) <= 50
    hists = [()]
    for n in range(1, model.order):
        hists += [h for h in model.tables[n] if h[-1] != EOS]
    for h in hists:
        assert abs(normalization_mass(model, h) - 1.0) <= 1e-6

    path = tmp_path / "model.arpa"
    arpa_write(model, path)
    reread = arpa_read(path)
    for n in range(1, model.order + 1):
        assert set(model.tables[n]) == set(reread.tables[n])
        for gram, (logp, bow) in model.tables[n].items():
            logp2, bow2 = reread.tables[n][gram]
            assert abs(logp - logp2) <= 1e-9
            assert (bow is None) == (bow2 is None)
            if bow is not None:
                assert abs(bow - bow2) <= 1e-9

    uni = uniform_lm(["a", "b", "c", "d", EOS, UNK])
    assert perplexity(uni, ["a b c", "d a"]) == pytest.approx(6.0, abs=1e-12)


@criterion(6, "edit-distance engine equals brute force on all pairs <= length 6")
def test_error_rate_oracle(caplog):
    caplog.set_level(logging.ERROR, logger="mienasr.evaluate")
    # shorter sequences first, so each one's parent b[:-1] precedes it
    seqs = [tuple(t) for n in range(0, 7) for t in itertools.product("abc", repeat=n)]
    for a in seqs:
        for b, reference in zip(seqs, edit_distances(a, seqs)):
            assert error_rate(a, b).errors == reference


@criterion(7, "transfer head: bit-exact copies, randomized tone digits, seeded")
def test_transfer_properties():
    rng = np.random.default_rng(707)
    labels = (BLANK_TOKEN, "a", "b", "1", "c")
    src = EmbeddingMatrix(rows=rng.normal(size=(5, 8)), row_labels=labels)

    vocab_full = PhonemeVocab((BLANK_TOKEN, "a", "b", "c"))
    out, rep = transfer_init(src, vocab_full, seed=3)
    assert rep.coverage == 1.0 and rep.randomized == ()
    for i, tok in enumerate(vocab_full.tokens):
        assert np.array_equal(out.rows[i], src.rows[src.row_of(tok)])

    vocab_tones = PhonemeVocab((BLANK_TOKEN, "a", "1", "9"))
    out1, rep1 = transfer_init(src, vocab_tones, seed=11)
    out2, _ = transfer_init(src, vocab_tones, seed=11)
    out3, _ = transfer_init(src, vocab_tones, seed=12)
    assert set(rep1.randomized) == {"1", "9"}
    assert not np.array_equal(out1.rows[vocab_tones.index("1")],
                              src.rows[src.row_of("1")])
    assert np.array_equal(out1.rows, out2.rows)
    assert not np.array_equal(out1.rows[2], out3.rows[2])


@criterion(8, "cross-validation folds partition with disjoint dev/test pairs")
def test_cv_splitter():
    ids = [f"utt{i:05d}" for i in range(9761)]
    plan = make_cv_plan(ids, n_folds=10, n_runs=3, seed=13)
    flat = [u for f in plan.folds for u in f]
    assert sorted(flat) == sorted(ids) and len(set(flat)) == len(ids)
    sizes = [len(f) for f in plan.folds]
    assert max(sizes) - min(sizes) <= 1
    used = [k for r in range(3) for k in plan.runs[r][:2]]
    assert len(set(used)) == 6
    for r in range(3):
        dev, test, train = plan.dev_ids(r), plan.test_ids(r), plan.train_ids(r)
        assert not (set(dev) & set(test))
        assert abs(len(dev) - 976.1) <= 1
        assert abs(len(test) - 976.1) <= 1
        assert abs(len(train) - 0.8 * 9761) <= 8


@criterion(9, "bundled five-utterance experiment: WER 0.0 and byte-identical reruns")
def test_end_to_end_fixture(tmp_path):
    start = time.monotonic()
    cfg_path = write_toy_experiment(tmp_path / "toy", seed=0)
    cfg = load_config(cfg_path)

    def run_once(tag):
        cfg.output_dir = tmp_path / tag
        report = run_experiment(cfg)
        digest = {}
        for p in sorted(cfg.output_dir.rglob("*")):
            if p.is_file():
                digest[str(p.relative_to(cfg.output_dir))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        return report, digest

    report1, digest1 = run_once("out1")
    report2, digest2 = run_once("out2")
    assert report1.rate("WER", "no-lm") == 0.0
    assert report1.rate("WER", "with-lm") == 0.0
    assert digest1 == digest2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 9 took {elapsed:.1f}s"


@criterion(10, "language model strictly reduces WER on the homophone fixture")
def test_lm_reduces_wer():
    tree, model, logits, truth = homophone_case()
    em = EmissionMatrix(logits=logits)
    refs = [[truth]] * 5

    def wer(lm, weight):
        cfg = DecodeConfig(beam_size=8, lm_weight=weight)
        reports = []
        for ref in refs:
            hyp = decode_phoneme(em, tree, lm, cfg)[0]
            reports.append(error_rate(ref, list(hyp.words)))
        return pool(reports).rate

    wer_without = wer(model, 0.0)
    wer_with = wer(model, 1.0)
    assert wer_with < wer_without
    assert wer_with == 0.0 and wer_without == 1.0
