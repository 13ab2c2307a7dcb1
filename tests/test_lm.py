import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from mienasr.lm import (BOS, EOS, UNK, ArpaError, arpa_read, arpa_write,
                        lm_score, lm_train, normalization_mass, perplexity,
                        sentence_logprob, uniform_model)

TOY3 = ["a b", "a b", "a c"]  # three-sentence corpus used for hand traces


class TestTraining:
    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            lm_train(TOY3, order=0)

    def test_zero_token_corpus_rejected(self):
        with pytest.raises(ValueError):
            lm_train(["", "   "], order=2)

    def test_unknown_smoothing_rejected(self):
        with pytest.raises(ValueError):
            lm_train(TOY3, order=2, smoothing="laplace")

    def test_mle_unigram_hand_count(self):
        # "a a b": three words + </s> = 4 predicted tokens, one count
        # reserved for <unk>: P(a)=2/5, P(b)=1/5, P(</s>)=1/5, P(unk)=1/5
        m = lm_train(["a a b"], order=1, smoothing="mle")
        assert 10 ** lm_score(m, [], "a") == pytest.approx(2 / 5)
        assert 10 ** lm_score(m, [], "b") == pytest.approx(1 / 5)
        assert 10 ** lm_score(m, [], EOS) == pytest.approx(1 / 5)
        assert 10 ** lm_score(m, [], "never-seen") == pytest.approx(1 / 5)

    def test_histories_always_present(self):
        m = lm_train(["mbuo mienh nyei dorn daaih", "mienh nyei mbuo"], order=4)
        m.validate()
        for n in range(2, 5):
            for gram in m.tables[n]:
                assert gram[:-1] in m.tables[n - 1]


@pytest.fixture(scope="module")
def absolute_model():
    return lm_train(TOY3, order=2, smoothing="absolute")


@pytest.fixture(scope="module")
def kn_model():
    return lm_train(TOY3, order=2, smoothing="kneser_ney")


class TestHandComputedBackoff:
    """Absolute discounting (D=0.75, raw counts) traced by hand on TOY3.

    Unigrams (non-<s>): a:3 b:2 c:1 </s>:3, denominator 9, four observed
    types discounted, gamma1 = 4*0.75/9 = 1/3, uniform share 1/5.
    History (a,): extensions b:2 c:1, denominator 3, gamma = 1.5/3 = 0.5.
    """

    P1_B = (2 - 0.75) / 9 + (1 / 3) * (1 / 5)
    P1_EOS = (3 - 0.75) / 9 + (1 / 3) * (1 / 5)
    P_B_GIVEN_A = (2 - 0.75) / 3 + 0.5 * P1_B

    @pytest.fixture
    def model(self, absolute_model):
        return absolute_model

    def test_unigram(self, model):
        assert 10 ** lm_score(model, [], "b") == pytest.approx(self.P1_B)

    def test_seen_bigram(self, model):
        assert 10 ** lm_score(model, ["a"], "b") == pytest.approx(self.P_B_GIVEN_A)

    def test_unseen_bigram_backs_off(self, model):
        # P(</s>|a) = bow(a) * P1(</s>) with bow(a) = 0.5
        assert 10 ** lm_score(model, ["a"], EOS) == pytest.approx(0.5 * self.P1_EOS)
        bow_a = model.tables[1][("a",)][1]
        p1 = model.tables[1][(EOS,)][0]
        assert lm_score(model, ["a"], EOS) == pytest.approx(bow_a + p1)

    def test_unseen_history_skips_backoff_weight(self, model):
        # (b, a) unseen and (b,) has no bow toward it: score is unigram of a
        assert lm_score(model, ["zzz"], "a") == pytest.approx(
            model.tables[1][("a",)][0])

    def test_oov_maps_to_unk(self, model):
        assert lm_score(model, [], "zzz") == pytest.approx(
            model.tables[1][(UNK,)][0])


class TestKneserNeyHandTrace:
    """Modified KN on TOY3: continuation counts at the unigram level
    (a:1 b:1 c:1 </s>:2, denominator 5, four discounted types so
    gamma1 = 4*0.75/5), discounts degenerate to 0.75."""

    P1_B = (1 - 0.75) / 5 + (4 * 0.75 / 5) * (1 / 5)
    P1_EOS = (2 - 0.75) / 5 + (4 * 0.75 / 5) * (1 / 5)

    @pytest.fixture
    def model(self, kn_model):
        return kn_model

    def test_continuation_unigram(self, model):
        assert 10 ** lm_score(model, [], "b") == pytest.approx(self.P1_B)

    def test_interpolated_bigram(self, model):
        want = (2 - 0.75) / 3 + 0.5 * self.P1_B
        assert 10 ** lm_score(model, ["a"], "b") == pytest.approx(want)

    def test_backoff_unseen(self, model):
        assert 10 ** lm_score(model, ["a"], EOS) == pytest.approx(0.5 * self.P1_EOS)


class TestNormalization:
    @pytest.mark.parametrize("smoothing", ["kneser_ney", "absolute", "mle"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sum_to_one_over_vocab(self, smoothing, order):
        corpus = ["mbuo mienh nyei dorn", "mienh nyei dorn daaih",
                  "mbuo nyei mienh", "dorn daaih mbuo nyei mienh mienh"]
        m = lm_train(corpus, order=order, smoothing=smoothing)
        hists = [()]
        for n in range(1, order):
            hists += [h for h in m.tables[n] if h[-1] != EOS]
        for h in hists:
            assert normalization_mass(m, h) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_mle_with_literal_unk_sums_to_one(self, order):
        # the reserved <unk> count adds to the observed ones
        m = lm_train(["a <unk> b", "a b"], order=order, smoothing="mle")
        hists = [()]
        for n in range(1, order):
            hists += [h for h in m.tables[n] if h[-1] != EOS]
        for h in hists:
            assert normalization_mass(m, h) == pytest.approx(1.0, abs=1e-9)
        assert 10 ** lm_score(m, [], UNK) == pytest.approx(2 / 8)

    def test_bos_carries_no_real_mass(self):
        m = lm_train(TOY3, order=2)
        assert m.tables[1][(BOS,)][0] == -99.0


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        u = uniform_model(["a", "b", "c", EOS, UNK])
        assert perplexity(u, ["a b", "c a b"]) == pytest.approx(5.0)

    def test_trained_beats_uniform_on_training_text(self):
        corpus = ["a a b", "a b b a", "a a a b"]
        m = lm_train(corpus, order=1, smoothing="mle")
        u = uniform_model(sorted({w for s in corpus for w in s.split()} | {EOS, UNK}))
        assert perplexity(m, corpus) < perplexity(u, corpus)

    def test_higher_order_no_worse_on_training_text(self):
        corpus = ["mbuo mienh nyei dorn", "mbuo mienh nyei daaih",
                  "mienh nyei dorn daaih", "mbuo mienh dorn nyei"] * 2
        m4 = lm_train(corpus, order=4)
        m1 = lm_train(corpus, order=1)
        assert perplexity(m4, corpus) <= perplexity(m1, corpus)

    def test_hand_computed_toy_value(self):
        # MLE unigrams on "a b": P(a)=P(b)=P(</s>)=1/4 each (3 tokens + unk)
        m = lm_train(["a b"], order=1, smoothing="mle")
        lp, n = sentence_logprob(m, "a b")
        assert n == 3
        assert lp == pytest.approx(3 * math.log10(1 / 4))
        assert perplexity(m, ["a b"]) == pytest.approx(4.0)

    def test_empty_text_rejected(self):
        m = lm_train(TOY3, order=1)
        with pytest.raises(ValueError):
            perplexity(m, [])


class TestArpaRoundTrip:
    def test_score_identity_within_1e9(self, tmp_path):
        corpus = ["mbuo mienh nyei dorn daaih", "mienh nyei mbuo",
                  "dorn daaih mienh", "mbuo mbuo nyei dorn"]
        m = lm_train(corpus, order=4)
        path = tmp_path / "m.arpa"
        arpa_write(m, path)
        m2 = arpa_read(path)
        for n in range(1, 5):
            assert set(m.tables[n]) == set(m2.tables[n])
            for gram, (logp, bow) in m.tables[n].items():
                logp2, bow2 = m2.tables[n][gram]
                assert abs(logp - logp2) < 1e-9
                if bow is not None:
                    assert abs(bow - bow2) < 1e-9

    def test_write_is_deterministic(self, tmp_path):
        m = lm_train(TOY3, order=2)
        a, b = tmp_path / "a.arpa", tmp_path / "b.arpa"
        arpa_write(m, a)
        arpa_write(m, b)
        assert a.read_bytes() == b.read_bytes()

    def test_declared_count_mismatch_rejected(self, tmp_path):
        m = lm_train(TOY3, order=2)
        path = tmp_path / "m.arpa"
        arpa_write(m, path)
        text = path.read_text(encoding="utf-8").replace("ngram 1=", "ngram 1=9")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ArpaError, match="declared"):
            arpa_read(path)

    def test_dangling_history_rejected(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text(
            "\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n"
            "-0.3\ta\t-0.2\n-0.5\tb\n\n\\2-grams:\n-0.1\tc b\n\n\\end\\\n",
            encoding="utf-8")
        with pytest.raises(ArpaError, match="dangling"):
            arpa_read(path)

    def test_missing_end_marker_rejected(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.1\ta\n",
                        encoding="utf-8")
        with pytest.raises(ArpaError, match="end"):
            arpa_read(path)


GOOD_ARPA = ["\\data\\", "ngram 1=2", "", "\\1-grams:", "-0.3\ta", "-0.5\tb",
             "", "\\end\\"]


class TestArpaReadErrors:
    @pytest.mark.parametrize("lineno, bad", [
        (2, "ngram 1 5"),
        (4, "\\x-grams:"),
        (5, "zero\ta"),
        (5, "-0.3\ta\tnone"),
        (5, "-0.3 a none"),
    ], ids=["data-line-without-eq", "non-numeric-section", "log-prob", "tab-back-off",
            "space-back-off"])
    def test_names_path_and_line(self, tmp_path, lineno, bad):
        path = tmp_path / "bad.arpa"
        lines = list(GOOD_ARPA)
        lines[lineno - 1] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}:{lineno}: ")):
            arpa_read(path)

    def test_nan_log_prob_rejected(self, tmp_path):
        path = tmp_path / "nan.arpa"
        lines = list(GOOD_ARPA)
        lines[4] = "nan\ta"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}: ")):
            arpa_read(path)


EXTERNAL_STYLE_ARPA = """\
\\data\\
ngram 1=5
ngram 2=3

\\1-grams:
-99 <s> -0.30103
-0.69897 </s>
-0.39794 a -0.17609
-0.69897 b -0.30103
-1.0 <unk>

\\2-grams:
-0.30103 <s> a
-0.52288 a b
-0.39794 b </s>

\\end\\
"""


class TestExternalStyleArpa:
    """Space-separated file as emitted by the usual n-gram toolkits."""

    def test_loads_and_scores(self, tmp_path):
        path = tmp_path / "ext.arpa"
        path.write_text(EXTERNAL_STYLE_ARPA, encoding="utf-8")
        m = arpa_read(path)
        assert m.order == 2
        # stored bigram wins
        assert lm_score(m, [BOS], "a") == pytest.approx(-0.30103)
        # unseen bigram: bow(a) + P1(</s>) = -0.17609 + -0.69897
        assert lm_score(m, ["a"], EOS) == pytest.approx(-0.17609 + -0.69897)
        # unseen bigram via history without bow toward it: bow(b) + P1(a)
        assert lm_score(m, ["b"], "a") == pytest.approx(-0.30103 + -0.39794)
        # ten sentences scored against an independent trace of the same file
        sentences = ["a b", "a", "b", "a b b", "b a", "a a", "b b a",
                     "a b a", "b a b", "a a b"]
        for s in sentences:
            lp, _ = sentence_logprob(m, s)
            assert lp == pytest.approx(_trace_score(s), abs=1e-9)


def _trace_score(sentence):
    """Independent two-level backoff walk over the fixture's literal numbers."""
    uni = {"</s>": -0.69897, "a": -0.39794, "b": -0.69897, "<unk>": -1.0}
    uni_bow = {"<s>": -0.30103, "a": -0.17609, "b": -0.30103}
    bi = {("<s>", "a"): -0.30103, ("a", "b"): -0.52288, ("b", "</s>"): -0.39794}
    total = 0.0
    prev = "<s>"
    for w in sentence.split() + ["</s>"]:
        if (prev, w) in bi:
            total += bi[(prev, w)]
        else:
            total += uni_bow.get(prev, 0.0) + uni[w]
        prev = w
    return total


@pytest.fixture(scope="module")
def models_by_order():
    return {n: lm_train(["a b c a", "b c b", "c a a b"], order=n) for n in range(1, 5)}


class TestHistoryTail:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), order=st.integers(1, 4),
           word=st.sampled_from(["a", "b", "c", "oov", EOS]))
    def test_slice_then_map_equals_map_then_slice(self, models_by_order, data, order, word):
        model = models_by_order[order]
        history = tuple(data.draw(st.lists(st.sampled_from(["a", "b", "c", "oov", "zz", BOS]),
                                           min_size=order + 1, max_size=order + 6)))
        mapped = tuple(model.map_word(x) for x in history)
        tail = mapped[max(0, len(history) - order + 1):]
        assert lm_score(model, history, word) == lm_score(model, tail, word)
