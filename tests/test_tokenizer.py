import logging
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mienasr import BLANK_TOKEN, UNK_TOKEN
from mienasr.tokenizer import (MARKER, BpeModel, bpe_decode, bpe_encode, bpe_train,
                               load_bpe, save_bpe)


class TestTrain:
    def test_first_merge_is_most_frequent_pair(self):
        # "aaab" twice: pairs (▁a,a), (a,a), (a,b) all occur twice; the
        # lexicographically smallest of the tied pairs is ("a", "a")
        model = bpe_train(["aaab aaab"], vocab_size=20)
        assert model.merges[0] == ("a", "a")

    def test_single_character_corpus(self):
        model = bpe_train(["b b b"], vocab_size=10)
        assert model.merges == ()
        assert model.vocab == (BLANK_TOKEN, UNK_TOKEN, MARKER + "b")

    def test_vocab_size_reached(self):
        corpus = ["mbuo mienh nyei dorn daaih"] * 3
        model = bpe_train(corpus, vocab_size=30)
        assert len(model.vocab) == 30

    def test_vocab_never_exceeds_target(self):
        for target in (8, 12, 40):
            model = bpe_train(["abc abd abe abc abd"], vocab_size=target)
            assert len(model.vocab) <= target

    def test_unreachable_target_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            model = bpe_train(["a b c"], vocab_size=50)
        assert len(model.vocab) < 50
        assert any("unreachable" in r.message for r in caplog.records)

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ValueError):
            bpe_train(["abcdef"], vocab_size=4)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bpe_train(["   "], vocab_size=10)

    def test_deterministic(self):
        corpus = ["yie mingh", "mingh yie yie", "nyei mingh"]
        a = bpe_train(corpus, vocab_size=25)
        b = bpe_train(corpus, vocab_size=25)
        assert a.merges == b.merges
        assert a.vocab == b.vocab

    def test_marker_in_training_word_rejected(self):
        # "x▁a" would form the token "▁a", already the initial symbol of "a"
        with pytest.raises(ValueError, match=re.escape("'x▁a'") + ".*" + re.escape(repr(MARKER))):
            bpe_train(["x▁a x▁a a"], 20)


class TestEncodeDecode:
    def test_round_trip_on_training_text(self):
        corpus = ["mbuo mienh nyei dorn", "mienh dorn nyei", "nyei nyei mbuo"]
        model = bpe_train(corpus, vocab_size=30)
        for line in corpus:
            assert bpe_decode(bpe_encode(line, model), model) == line

    def test_unseen_character_maps_to_unk(self):
        model = bpe_train(["aaab aaab"], vocab_size=10)
        ids = bpe_encode("axb", model)
        assert model.unk_id in ids
        assert UNK_TOKEN in bpe_decode(ids, model)

    def test_merge_replay_order(self):
        model = bpe_train(["aaab aaab"], vocab_size=20)
        ids = bpe_encode("aaab", model)
        # replaying the learned merges must regroup the word identically to
        # its final training-time segmentation
        assert bpe_decode(ids, model) == "aaab"
        toks = [model.vocab[i] for i in ids]
        assert "".join(toks) == MARKER + "aaab"

    def test_empty_decode(self):
        model = bpe_train(["a a"], vocab_size=5)
        assert bpe_decode([], model) == ""

    def test_out_of_range_id(self):
        model = bpe_train(["a a"], vocab_size=5)
        with pytest.raises(ValueError):
            bpe_decode([99], model)

    def test_decode_splits_into_words(self):
        model = bpe_train(["yie mingh nyei"], vocab_size=25)
        ids = bpe_encode("mingh nyei", model)
        assert bpe_decode(ids, model).split() == ["mingh", "nyei"]


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = bpe_train(["mbuo mienh nyei dorn daaih mingh"] * 2, vocab_size=28)
        path = tmp_path / "bpe.model"
        save_bpe(model, path)
        loaded = load_bpe(path)
        assert loaded == model

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not-a-model\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_bpe(path)

    def test_header_only_file_names_path(self, tmp_path):
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: expected [merges]")):
            load_bpe(path)

    def test_missing_vocab_section_names_path(self, tmp_path):
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n[merges]\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing [vocab]")):
            load_bpe(path)

    def test_merge_without_tab_names_line(self, tmp_path):
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n[merges]\na\tb\nab\n[vocab]\n<blk>\n<unk>\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: expected 'left TAB right'")):
            load_bpe(path)

    @pytest.mark.parametrize("vocab, token", [
        ([BLANK_TOKEN, UNK_TOKEN, "a", "b", "a"], "'a'"),
        ([UNK_TOKEN, BLANK_TOKEN, "a"], repr(UNK_TOKEN)),
        (["a", "b"], "'a'"),
    ], ids=["duplicate", "specials-swapped", "no-specials"])
    def test_bad_vocab_names_path_and_token(self, tmp_path, vocab, token):
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n[merges]\n[vocab]\n" + "\n".join(vocab) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(token)):
            load_bpe(path)

    @pytest.mark.parametrize("vocab, line", [
        ([BLANK_TOKEN, UNK_TOKEN, "", "a"], 6),     # an empty line would shift a's id
        ([BLANK_TOKEN, UNK_TOKEN, "  ", "a"], 6),   # a whitespace-only token
        ([BLANK_TOKEN, UNK_TOKEN, "a b"], 6),       # two tokens on one line
        ([BLANK_TOKEN, " " + UNK_TOKEN], 5),        # a token with a leading space
    ], ids=["empty", "whitespace", "two-tokens", "leading-space"])
    def test_malformed_vocab_line_names_line(self, tmp_path, vocab, line):
        """The [vocab] section follows the phoneme vocabulary file's line rule."""
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n[merges]\n[vocab]\n" + "\n".join(vocab) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "):
            load_bpe(path)

    def test_vocab_trailing_empty_lines_ignored(self, tmp_path):
        path = tmp_path / "bpe.model"
        path.write_text(f"mienasr-bpe v1\n[merges]\n[vocab]\n{BLANK_TOKEN}\n{UNK_TOKEN}\n\n\n",
                        encoding="utf-8")
        assert load_bpe(path).vocab == (BLANK_TOKEN, UNK_TOKEN)

    @pytest.mark.parametrize("merges, vocab, pair", [
        (["▁y\ti"], [BLANK_TOKEN, UNK_TOKEN, "▁y", "i", "e"], "('▁y', 'i')"),
        (["a\tb"], [BLANK_TOKEN, UNK_TOKEN, "a", "ab"], "('a', 'b')"),
        (["a\tb", "a\tb"], [BLANK_TOKEN, UNK_TOKEN, "a", "b", "ab"], "('a', 'b')"),
    ], ids=["result-not-in-vocab", "part-not-in-vocab", "repeated-pair"])
    def test_inconsistent_merges_name_path_and_pair(self, tmp_path, merges, vocab, pair):
        path = tmp_path / "bpe.model"
        path.write_text("mienasr-bpe v1\n[merges]\n" + "\n".join(merges) + "\n[vocab]\n"
                        + "\n".join(vocab) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(pair)):
            load_bpe(path)


# -- reference: the original full-recount trainer and merge replay ----------

def _ref_merge_word(symbols, pair):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _ref_word_symbols(word):
    return (MARKER + word[0],) + tuple(word[1:])


def ref_bpe_train(corpus, vocab_size):
    """(merges, vocab) as the original trainer built them, recounting every step."""
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("empty training corpus")

    words = {w: _ref_word_symbols(w) for w in word_freq}
    alphabet = sorted({s for syms in words.values() for s in syms})
    base = 2 + len(alphabet)  # specials + initial symbols
    if vocab_size <= base:
        raise ValueError(
            f"vocab_size {vocab_size} must exceed specials + distinct characters ({base})"
        )

    merges = []
    merged_tokens = []
    while base + len(merges) < vocab_size:
        pairs = Counter()
        for w, syms in words.items():
            f = word_freq[w]
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += f
        if not pairs:
            break
        top = max(pairs.values())
        if top < 2:
            break
        best = min(p for p, c in pairs.items() if c == top)
        merges.append(best)
        merged_tokens.append(best[0] + best[1])
        words = {w: _ref_merge_word(syms, best) for w, syms in words.items()}

    vocab = (BLANK_TOKEN, UNK_TOKEN) + tuple(alphabet) + tuple(merged_tokens)
    return tuple(merges), vocab


def ref_bpe_encode(text, merges, vocab):
    ids = []
    to_id = {tok: i for i, tok in enumerate(vocab)}
    for word in text.split():
        symbols = _ref_word_symbols(word)
        for pair in merges:
            symbols = _ref_merge_word(symbols, pair)
        ids.extend(to_id.get(s, 1) for s in symbols)
    return ids


# small alphabets force count ties; "a"-heavy ones force overlapping runs
ALPHABETS = st.sampled_from(["a", "ab", "aab", "abc", "aabbc", "abcd", "ab" + MARKER])


@st.composite
def training_case(draw):
    chars = draw(ALPHABETS)
    word = st.text(alphabet=chars, min_size=1, max_size=9)
    lines = draw(st.lists(st.lists(word, max_size=6).map(" ".join), min_size=1, max_size=8))
    vocab_size = draw(st.integers(2, 40))
    # encode seen words, unseen words, and characters never seen in training
    texts = draw(st.lists(st.lists(st.one_of(word, st.text(alphabet=chars + "xz", min_size=1,
                                                           max_size=9)),
                                   max_size=5).map(" ".join), max_size=4))
    return lines, vocab_size, texts


class TestMatchesReference:
    @settings(max_examples=600)
    @given(training_case())
    def test_same_model_file_and_ids(self, case):
        lines, vocab_size, texts = case
        if any(MARKER in line for line in lines):  # the reference trained on these
            with pytest.raises(ValueError, match=re.escape(repr(MARKER))):
                bpe_train(lines, vocab_size)
            return
        try:
            want = BpeModel(*ref_bpe_train(lines, vocab_size))
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                bpe_train(lines, vocab_size)
            return
        got = bpe_train(lines, vocab_size)
        assert got == want
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "got.model", Path(tmp) / "want.model"
            save_bpe(got, paths[0])
            save_bpe(want, paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()
        for text in texts + lines:
            assert bpe_encode(text, got) == ref_bpe_encode(text, want.merges, want.vocab)

    @pytest.mark.parametrize("word", ["aaaa", "aaaaa", "aaaaaaa", "abababa", "aabaab"])
    def test_overlapping_runs(self, word):
        lines = [word, f"{word} {word[:-1]}", word[1:]]
        for vocab_size in range(7, 24):
            want = ref_bpe_train(lines, vocab_size)
            got = bpe_train(lines, vocab_size)
            assert (got.merges, got.vocab) == want
            for text in [word + word, word[:3], word + "x" + word]:
                assert bpe_encode(text, got) == ref_bpe_encode(text, *want)

    def test_memo_keeps_ids_and_hands_out_fresh_lists(self):
        lines = ["aab abab ba", "abab aab", "bba aab aab"]
        model = bpe_train(lines, 12)
        texts = lines + ["aab xab", "ba ba ba", ""]
        want = [ref_bpe_encode(t, model.merges, model.vocab) for t in texts]
        assert [bpe_encode(t, model) for t in texts] == want
        assert [bpe_encode(t, model) for t in texts] == want
        assert [bpe_encode(t, model) for t in reversed(texts)] == want[::-1]
        got = bpe_encode("aab aab", model)
        got.append(-1)
        got[0] = -1
        assert bpe_encode("aab aab", model) == ref_bpe_encode("aab aab", model.merges,
                                                              model.vocab)

    def test_replay_not_greedy_rank_order(self):
        # merge 0 needs "yz", which only merge 1 forms: replay never applies
        # merge 0 here, where "lowest rank present" would, after merge 1
        model = BpeModel(merges=((MARKER + "x", "yz"), ("y", "z")),
                         vocab=(BLANK_TOKEN, UNK_TOKEN, MARKER + "x", "y", "z",
                                MARKER + "xyz", "yz"))
        assert bpe_encode("xyz", model) == ref_bpe_encode("xyz", model.merges, model.vocab)
        assert [model.vocab[i] for i in bpe_encode("xyz", model)] == [MARKER + "x", "yz"]
