import re
import sys

import numpy as np
import pytest

from mienasr import BLANK_TOKEN
from mienasr.lexicon import PhonemeVocab
from mienasr.transfer import (EmbeddingMatrix, match_tokens, read_matrix,
                              transfer_init, write_matrix)


def source_matrix(labels, d=6, seed=42):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rows=rng.normal(size=(len(labels), d)),
                           row_labels=tuple(labels))


class TestMatchTokens:
    def test_exact_by_default(self):
        vocab = PhonemeVocab((BLANK_TOKEN, "n", "n̥"))
        m = match_tokens(["n", "m"], vocab)
        assert m == {"n": 0}

    def test_normalize_strips_diacritics(self):
        vocab = PhonemeVocab((BLANK_TOKEN, "n̥"))
        assert match_tokens(["n", "m"], vocab) == {}
        assert match_tokens(["n", "m"], vocab, normalize=True) == {"n̥": 0}

    def test_identity_on_identical_sets(self):
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b"))
        m = match_tokens([BLANK_TOKEN, "a", "b"], vocab)
        assert m == {"a": 1, "b": 2}

    def test_tone_digits_never_match(self):
        vocab = PhonemeVocab((BLANK_TOKEN, "1", "a"))
        assert match_tokens(["1", "a"], vocab) == {"a": 1}


class TestTransferInit:
    def test_full_overlap_copies_everything(self):
        src = source_matrix([BLANK_TOKEN, "a", "b", "c"])
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b"))
        out, rep = transfer_init(src, vocab, seed=0)
        assert rep.coverage == 1.0
        assert rep.randomized == ()
        for i, tok in enumerate(vocab.tokens):
            assert np.array_equal(out.rows[i], src.rows[src.row_of(tok)])

    def test_disjoint_vocabulary_randomizes_all(self):
        src = source_matrix([BLANK_TOKEN, "x", "y"])
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b"))
        out, rep = transfer_init(src, vocab, seed=1)
        assert rep.coverage == 0.0
        assert set(rep.randomized) == {"a", "b"}
        # blank still copied from the source blank
        assert np.array_equal(out.rows[0], src.rows[0])

    def test_blank_only_vocabulary_has_zero_coverage(self):
        out, rep = transfer_init(source_matrix([BLANK_TOKEN, "a"]), PhonemeVocab((BLANK_TOKEN,)))
        assert (rep.copied, rep.randomized, rep.coverage) == ((), (), 0.0)
        assert out.row_labels == (BLANK_TOKEN,)

    def test_half_overlap_seeded(self):
        src = source_matrix([BLANK_TOKEN, "a", "b"])
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b", "c", "d"))
        out1, rep = transfer_init(src, vocab, seed=7)
        out2, _ = transfer_init(src, vocab, seed=7)
        out3, _ = transfer_init(src, vocab, seed=8)
        assert [t for t, _ in rep.copied] == ["a", "b"]
        assert rep.randomized == ("c", "d")
        assert rep.coverage == pytest.approx(0.5)
        for tok, row in rep.copied:
            assert np.array_equal(out1.rows[vocab.index(tok)], src.rows[row])
        assert np.array_equal(out1.rows, out2.rows)
        assert not np.array_equal(out1.rows[3], out3.rows[3])

    def test_randomized_rows_within_scale(self):
        src = source_matrix([BLANK_TOKEN, "a"])
        vocab = PhonemeVocab((BLANK_TOKEN, "z"))
        out, _ = transfer_init(src, vocab, seed=2, scale=0.01)
        assert np.all(np.abs(out.rows[1]) <= 0.01)

    def test_default_scale_inverse_sqrt_dim(self):
        src = source_matrix([BLANK_TOKEN], d=16)
        vocab = PhonemeVocab((BLANK_TOKEN, "z"))
        out, _ = transfer_init(src, vocab, seed=3)
        assert np.all(np.abs(out.rows[1]) <= 0.25)

    def test_tone_digits_always_randomized(self):
        # even a source that literally contains "1" must not donate its row
        src = source_matrix([BLANK_TOKEN, "1", "a"])
        vocab = PhonemeVocab((BLANK_TOKEN, "1", "a"))
        out, rep = transfer_init(src, vocab, seed=4)
        assert "1" in rep.randomized
        assert not np.array_equal(out.rows[1], src.rows[1])

    def test_partition_of_target_vocab(self):
        src = source_matrix([BLANK_TOKEN, "a", "c"])
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b", "1"))
        _, rep = transfer_init(src, vocab, seed=5)
        covered = {t for t, _ in rep.copied} | set(rep.randomized)
        assert covered == set(vocab.tokens[1:])
        assert len(rep.copied) + len(rep.randomized) == len(vocab) - 1

    def test_source_without_blank_rejected(self):
        src = source_matrix(["a", "b"])
        with pytest.raises(ValueError, match="blank"):
            transfer_init(src, PhonemeVocab((BLANK_TOKEN, "a")))

    def test_bad_scale_rejected(self):
        src = source_matrix([BLANK_TOKEN, "a"])
        with pytest.raises(ValueError):
            transfer_init(src, PhonemeVocab((BLANK_TOKEN, "a")), scale=-1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1e-3, 1e308])
    def test_scale_not_finite_and_positive_names_value(self, scale):
        # the draw spans 2 * scale, so 1e308 would overflow as nan and inf do
        src = source_matrix([BLANK_TOKEN, "a"])
        with pytest.raises(ValueError, match=rf"scale .*got {re.escape(str(scale))}$"):
            transfer_init(src, PhonemeVocab((BLANK_TOKEN, "b")), scale=scale)

    def test_largest_scale_draws_finite_rows(self):
        src = source_matrix([BLANK_TOKEN, "a"])
        out, _ = transfer_init(src, PhonemeVocab((BLANK_TOKEN, "b")), scale=sys.float_info.max / 2)
        assert np.isfinite(out.rows).all()


class TestEmbeddingMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, bad):
        rows = np.zeros((2, 3))
        rows[1, 2] = bad
        with pytest.raises(ValueError, match=re.escape("row 1 ('a') holds NaN or inf")):
            EmbeddingMatrix(rows=rows, row_labels=(BLANK_TOKEN, "a"))


class TestMatrixFile:
    def test_round_trip_exact(self, tmp_path):
        src = source_matrix([BLANK_TOKEN, "n̥", "aːɪ"], d=5)
        path = tmp_path / "emb.txt"
        write_matrix(src, path)
        loaded = read_matrix(path)
        assert loaded.row_labels == src.row_labels
        assert np.array_equal(loaded.rows, src.rows)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 0 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 0 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_empty_file_names_path(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty matrix file")):
            read_matrix(path)

    @pytest.mark.parametrize("text, line", [("x y\na 0\n", 1), ("1 2 3\na 0 0\n", 1),
                                            ("1 -2\na\n", 1), ("\n1 2\na 0 zero\n", 3)])
    def test_non_numeric_header_or_cell_names_line(self, tmp_path, text, line):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}:")):
            read_matrix(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\n{BLANK_TOKEN} 0 1\n\na {cell} 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: row 1 holds NaN or inf")):
            read_matrix(path)


class TestEmbeddingMatrixShape:
    @pytest.mark.parametrize("rows", [np.zeros(3), np.zeros((2, 0))])
    def test_not_v_by_d_rejected(self, rows):
        with pytest.raises(ValueError, match="V x d"):
            EmbeddingMatrix(rows=rows, row_labels=(BLANK_TOKEN, "a"))

    def test_row_and_label_counts_must_agree(self):
        with pytest.raises(ValueError, match="row count"):
            EmbeddingMatrix(rows=np.zeros((3, 2)), row_labels=(BLANK_TOKEN, "a"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingMatrix(rows=np.zeros((2, 2)), row_labels=("a", "a"))
