import logging
import re

import pytest

from mienasr import BLANK_TOKEN, UNK_TOKEN
from mienasr.tokenizer import (MARKER, bpe_decode, bpe_encode, bpe_train,
                               load_bpe, save_bpe, token_ids_to_words)


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

    def test_token_ids_to_words(self):
        model = bpe_train(["yie mingh nyei"], vocab_size=25)
        ids = bpe_encode("mingh nyei", model)
        assert token_ids_to_words(ids, model) == ["mingh", "nyei"]


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
