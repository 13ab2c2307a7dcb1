import itertools
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from mienasr.lm import (BOS, EOS, UNK, ArpaError, ArpaModel, arpa_read, arpa_write,
                        lm_score, lm_train, normalization_mass, perplexity,
                        sentence_logprob)

from oracles import uniform_lm

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
        ArpaModel(m.order, m.tables)
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
        u = uniform_lm(["a", "b", "c", EOS, UNK])
        assert perplexity(u, ["a b", "c a b"]) == pytest.approx(5.0)

    def test_trained_beats_uniform_on_training_text(self):
        corpus = ["a a b", "a b b a", "a a a b"]
        m = lm_train(corpus, order=1, smoothing="mle")
        u = uniform_lm(sorted({w for s in corpus for w in s.split()} | {EOS, UNK}))
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

    def test_overflow_is_infinite(self, tmp_path):
        path = tmp_path / "tiny.arpa"
        # -323 is near the least log10 whose power of ten is a positive float
        path.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-323\tx\n-323\t</s>\n"
                        "-1.0\t<unk>\n\n\\end\\\n", encoding="utf-8")
        assert perplexity(arpa_read(path), ["x"]) == math.inf

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

    @pytest.mark.parametrize("log10, bow", [(-323.29999999999, None), (-1.0, 308.24999999999)],
                             ids=["log-prob", "back-off"])
    def test_writer_refuses_a_value_its_reader_rejects(self, tmp_path, log10, bow):
        """The value is in range, but written with ten decimals it is the
        range end, -323.3000000000 or 308.2500000000, which arpa_read rejects."""
        m = lm_train(TOY3, order=2)
        m.tables[1][(UNK,)] = (log10, bow)
        ArpaModel(m.order, m.tables)
        path = tmp_path / "m.arpa"
        with pytest.raises(ArpaError, match=re.escape(f"{path}: ") + ".*out-of-range"):
            arpa_write(m, path)
        assert not path.exists()

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


GOOD_ARPA = ["\\data\\", "ngram 1=3", "", "\\1-grams:", "-0.3\ta", "-0.5\tb",
             "-1.0\t<unk>", "", "\\end\\"]


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

    def test_minus_inf_log_prob_rejected(self, tmp_path):
        """With lm_weight 0, a -inf word score would make the decoder's total
        score 0 * -inf = NaN."""
        path = tmp_path / "inf.arpa"
        lines = list(GOOD_ARPA)
        lines[4] = "-inf\ta"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}: ") + ".*non-finite"):
            arpa_read(path)

    def test_missing_unk_rejected(self, tmp_path):
        path = tmp_path / "nounk.arpa"
        lines = [line for line in GOOD_ARPA if "<unk>" not in line]
        lines[1] = "ngram 1=2"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}: ") + ".*<unk>"):
            arpa_read(path)

    @pytest.mark.parametrize("slot, value", [(3, "1e308"), (6, "1e308"), (2, "-1e308"),
                                             (5, "-400"), (3, "309")],
                             ids=["unigram-back-off", "bigram-back-off", "unigram-log-prob",
                                  "bigram-log-prob", "just-over-range"])
    def test_power_of_ten_out_of_range_rejected(self, tmp_path, slot, value):
        """Back-offs of 1e308 once made lm_score inf; a log prob of -400 is 10**-400 = 0."""
        values = list(PROBE_VALUES)
        values[slot] = value
        path = tmp_path / "range.arpa"
        path.write_text(PROBE_ARPA.format(*values), encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}: ") + ".*out-of-range"):
            arpa_read(path)

    def test_log_zero_and_range_ends_load(self, tmp_path):
        values = list(PROBE_VALUES)
        values[0], values[2], values[3], values[6] = "-99", "-323", "308", "-323"
        path = tmp_path / "ends.arpa"
        path.write_text(PROBE_ARPA.format(*values), encoding="utf-8")
        m = arpa_read(path)
        assert math.isfinite(lm_score(m, (BOS, "a"), EOS))

    def test_train_validates_range(self):
        m = lm_train(TOY3, order=2)
        gram = next(iter(m.tables[2]))
        m.tables[2][gram] = (-400.0, None)
        with pytest.raises(ArpaError, match="out-of-range"):
            ArpaModel(m.order, m.tables)


UNIGRAMS = {(BOS,): (-99.0, -0.3), ("a",): (-0.5, -0.2), (EOS,): (-0.5, None),
            (UNK,): (-1.0, None)}


def _with(table, gram, entry):
    return {**table, gram: entry}


class TestModelCheckedAtConstruction:
    """A model built in code is checked as a loaded one is: each fault is an
    ArpaError when the model is built, not a bare error or a NaN at scoring."""

    @pytest.mark.parametrize("unused", [None, {}], ids=["none", "empty-dict"])
    def test_no_unk(self, unused):
        with pytest.raises(ArpaError, match=f"no {UNK} unigram"):
            ArpaModel(order=1, tables=(unused, {("a",): (-1.0, None)}))

    @pytest.mark.parametrize("logp", [math.nan, math.inf, 0.5, -math.inf, -400.0],
                             ids=["nan", "inf", "positive", "minus-inf", "below-range"])
    def test_bad_log_prob(self, logp):
        with pytest.raises(ArpaError, match="log10 probability"):
            ArpaModel(order=1, tables=(None, _with(UNIGRAMS, ("x",), (logp, None))))

    @pytest.mark.parametrize("bow", [math.nan, math.inf, -math.inf, 308.25, -323.3])
    def test_out_of_range_back_off(self, bow):
        with pytest.raises(ArpaError, match="out-of-range back-off"):
            ArpaModel(order=1, tables=(None, _with(UNIGRAMS, ("a",), (-0.5, bow))))

    def test_gram_filed_under_the_wrong_order(self):
        with pytest.raises(ArpaError, match=re.escape("('a', 'a') filed under order 1")):
            ArpaModel(order=1, tables=(None, _with(UNIGRAMS, ("a", "a"), (-0.5, None))))

    def test_dangling_history(self):
        with pytest.raises(ArpaError, match="dangling history"):
            ArpaModel(order=2, tables=(None, dict(UNIGRAMS), {("b", "a"): (-0.1, None)}))

    @pytest.mark.parametrize("order, n_tables", [(2, 2), (1, 1), (1, 3), (0, 1)])
    def test_tables_not_one_per_order_plus_index_zero(self, order, n_tables):
        tables = (None, dict(UNIGRAMS), {(BOS, "a"): (-0.1, None)})[:n_tables]
        with pytest.raises(ArpaError, match=r"order \d+ with \d+ tables"):
            ArpaModel(order=order, tables=tables)

    def test_per_order_checks_come_before_the_unk_check(self):
        with pytest.raises(ArpaError, match="dangling history"):
            ArpaModel(order=2, tables=(None, {("a",): (-0.5, None)}, {("b", "a"): (-0.1, None)}))


# an order-3 model whose eleven log10 values are slots: <s>, </s>, a (prob, back-off),
# <unk>, "<s> a" (prob, back-off), "a a", "a </s>", "<s> a a", "a a </s>"
PROBE_ARPA = """\\data\\
ngram 1=4
ngram 2=3
ngram 3=2

\\1-grams:
{0}\t<s>\t-0.3
{1}\t</s>
{2}\ta\t{3}
{4}\t<unk>

\\2-grams:
{5}\t<s> a\t{6}
{7}\ta a\t-0.1
{8}\ta </s>

\\3-grams:
{9}\t<s> a a
{10}\ta a </s>

\\end\\
"""
PROBE_VALUES = ("-99", "-0.5", "-0.3", "-0.2", "-1.0", "-0.2", "-0.1", "-0.3", "-0.4",
                "-0.1", "-0.2")
EXTREMES = ["-99", "0", "308", "309", "1e308", "-323", "-324", "-1e308", "nan", "inf", "-inf"]


class TestLoadedModelScores:
    """A model that loads gives finite scores: no value the reader accepts
    may make a back-off sum or a power of ten leave the floats."""

    @settings(max_examples=150)
    @given(st.lists(st.one_of(st.sampled_from(EXTREMES),
                              st.floats(-1e4, 1e4).map(repr), st.floats().map(repr)),
                    min_size=len(PROBE_VALUES), max_size=len(PROBE_VALUES)))
    @example([v if k not in (3, 6) else "1e308" for k, v in enumerate(PROBE_VALUES)])
    def test_every_loaded_mutant_scores_finitely(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("arpa") / "m.arpa"
        path.write_text(PROBE_ARPA.format(*values), encoding="utf-8")
        try:
            m = arpa_read(path)
        except ArpaError:
            return
        words = list(m.vocab) + ["oov"]
        for n in range(m.order):
            for history in itertools.product(words, repeat=n):
                for w in words:
                    assert math.isfinite(lm_score(m, history, w)), (history, w)


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
    @settings(max_examples=300)
    @given(data=st.data(), order=st.integers(1, 4),
           word=st.sampled_from(["a", "b", "c", "oov", EOS]))
    def test_slice_then_map_equals_map_then_slice(self, models_by_order, data, order, word):
        model = models_by_order[order]
        history = tuple(data.draw(st.lists(st.sampled_from(["a", "b", "c", "oov", "zz", BOS]),
                                           min_size=order + 1, max_size=order + 6)))
        mapped = tuple(model.map_word(x) for x in history)
        tail = mapped[max(0, len(history) - order + 1):]
        assert lm_score(model, history, word) == lm_score(model, tail, word)


class TestArpaReadStructure:
    def test_missing_data_header_names_file(self, tmp_path):
        path = tmp_path / "no-header.arpa"
        path.write_text("\n".join(GOOD_ARPA[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}: missing \\data\\ header")):
            arpa_read(path)

    def test_undeclared_section_names_line(self, tmp_path):
        path = tmp_path / "undeclared.arpa"
        lines = GOOD_ARPA[:7] + ["", "\\2-grams:", "-0.1\ta b"] + GOOD_ARPA[7:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(f"{path}:9: undeclared section")):
            arpa_read(path)
