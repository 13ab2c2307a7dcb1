import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mienasr
from mienasr import cli, experiment
from mienasr.cli import main
from mienasr.ctc import normalize_rows, write_emissions
from mienasr.experiment import load_config, run_experiment, write_lines
from mienasr.fixtures import TOY_UTTS, TOY_WORDS, peaked_emissions, write_toy_experiment
from mienasr.lexicon import default_g2p_table, derive_phoneme_vocab, g2p
from mienasr.lm import arpa_read
from mienasr.orthography import default_inventory
from mienasr.tokenizer import bpe_encode, bpe_train

PACKAGED_G2P = Path(mienasr.__file__).parent / "data" / "iu_mien_g2p.tsv"


@pytest.fixture()
def toy(tmp_path):
    cfg = write_toy_experiment(tmp_path / "toy")
    return tmp_path / "toy", cfg


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_word_args(self, capsys):
        code, out, _ = run(capsys, "parse", "ginghgungv")
        assert code == 0
        assert "gingh=g|-|i|ng|h" in out
        assert "gungv=g|-|u|ng|v" in out

    def test_unparseable_word_errors(self, capsys):
        code, _, err = run(capsys, "parse", "qqq")
        assert code == 1
        assert "error" in err

    def test_no_words_and_no_input_errors(self, capsys):
        code, out, err = run(capsys, "parse")
        assert code == 1 and not out
        assert "provide words as arguments or a file via --input" in err


class TestLexiconVocab:
    def test_build_and_derive(self, capsys, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("mienh\ndorn\nmaaih\n")
        lex = tmp_path / "lex.tsv"
        code, out, _ = run(capsys, "lexicon", "--corpus", str(words), "--output", str(lex))
        assert code == 0 and "3 entries" in out
        vocab = tmp_path / "ph.txt"
        code, out, _ = run(capsys, "vocab", "--lexicon", str(lex), "--output", str(vocab))
        assert code == 0
        assert vocab.read_text().splitlines()[0] == "<blk>"

    def test_failures_reported_on_stderr(self, capsys, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("mienh\nxxxx\n")
        lex = tmp_path / "lex.tsv"
        code, _, err = run(capsys, "lexicon", "--corpus", str(words), "--output", str(lex))
        assert code == 1
        assert "unconvertible\txxxx" in err

    def test_blank_in_g2p_table_names_table_line(self, capsys, tmp_path):
        table = tmp_path / "t.tsv"
        text = PACKAGED_G2P.read_text(encoding="utf-8")
        line = text.splitlines().index("m\tm") + 1
        table.write_text(text.replace("\nm\tm\n", "\nm\t<blk>\n"), encoding="utf-8")
        corpus = tmp_path / "c.tsv"
        corpus.write_text("u1\tmienh dorn\n", encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        code, _, err = run(capsys, "lexicon", "--corpus", corpus, "--g2p-table", table,
                           "--output", lex)
        assert code == 1
        assert f"{table}:{line}: " in err
        assert not lex.exists()

    @pytest.mark.parametrize("allow", [[], ["--allow-failures"]], ids=["strict", "allow-failures"])
    @pytest.mark.parametrize("text", ["xxxx\nqqq\n", "\n", "u1\t\n"],
                             ids=["untranslatable", "no-words", "empty-transcript"])
    def test_corpus_without_an_entry_refused(self, capsys, tmp_path, text, allow):
        corpus = tmp_path / "c.txt"
        corpus.write_text(text, encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        code, out, err = run(capsys, "lexicon", "--corpus", corpus, "--output", lex, *allow)
        assert code == 1 and not out
        assert err.endswith(f"mienasr: lexicon: error: {corpus}: no translatable words\n")
        assert not lex.exists()

    def test_needs_corpus(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["lexicon", "--output", str(tmp_path / "lex.tsv")])
        assert info.value.code == 2
        assert "--corpus" in capsys.readouterr().err
        assert not (tmp_path / "lex.tsv").exists()


class TestBpe:
    def test_train_encode_decode(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("yie mingh nyei\nmingh yie\n")
        model = tmp_path / "bpe.model"
        code, _, _ = run(capsys, "bpe-train", "--corpus", str(corpus),
                         "--vocab-size", "20", "--output", str(model))
        assert code == 0
        code, out, _ = run(capsys, "bpe-encode", "--model", str(model),
                           "--text", "yie mingh")
        assert code == 0
        ids = out.strip()
        code, out, _ = run(capsys, "bpe-decode", "--model", str(model), "--ids", ids)
        assert code == 0
        assert out.strip() == "yie mingh"

    @pytest.fixture()
    def model(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("yie mingh nyei\nmingh yie\n")
        model = tmp_path / "bpe.model"
        run(capsys, "bpe-train", "--corpus", corpus, "--vocab-size", "20", "--output", model)
        return model

    def test_empty_text_and_ids(self, capsys, model):
        assert run(capsys, "bpe-encode", "--model", model, "--text", "") == (0, "\n", "")
        assert run(capsys, "bpe-decode", "--model", model, "--ids", "") == (0, "\n", "")

    @pytest.mark.parametrize("command, flags", [
        ("bpe-encode", ("--text", "--input")),
        ("bpe-decode", ("--ids", "--input")),
    ])
    def test_needs_exactly_one_input(self, capsys, tmp_path, model, command, flags):
        lines = tmp_path / "in.txt"
        lines.write_text("2 3\n")
        for extra in ([], [flags[0], "2", flags[1], str(lines)]):
            with pytest.raises(SystemExit) as info:
                main([command, "--model", str(model)] + extra)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert flags[0] in err and flags[1] in err

    def test_decode_bad_id_names_line(self, capsys, tmp_path, model):
        ids = tmp_path / "ids.txt"
        ids.write_text("2 3\n\n2 x\n")
        code, _, err = run(capsys, "bpe-decode", "--model", model, "--input", ids)
        assert code == 1
        assert f"{ids}:3:" in err and "'x'" in err


class TestLm:
    def test_train_and_ppl(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("u1\tmienh nyei dorn\nu2\tdorn nyei\n")
        arpa = tmp_path / "m.arpa"
        code, out, _ = run(capsys, "lm-train", "--corpus", str(corpus),
                           "--order", "2", "--output", str(arpa))
        assert code == 0
        arpa_read(arpa)  # loads cleanly
        code, out, _ = run(capsys, "lm-ppl", "--model", str(arpa), "--text", str(corpus))
        assert code == 0
        assert float(out.strip()) > 1.0

    def test_corpus_with_one_tab_missing_names_line(self, capsys, tmp_path):
        """A TAB on any line makes the file a corpus, so a line without one is a fault."""
        corpus = tmp_path / "mixed.tsv"
        corpus.write_text("u1\tmaaih mienh\nu2 dorn maaih\n", encoding="utf-8")
        arpa = tmp_path / "m.arpa"
        code, _, err = run(capsys, "lm-train", "--corpus", corpus, "--order", 2, "--output", arpa)
        assert code == 1
        assert f"{corpus}:2: expected 'utt-id TAB text'" in err
        assert not arpa.exists()

    def test_ppl_of_text_without_words_names_the_text(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("u1\ta b\n")
        arpa = tmp_path / "m.arpa"
        run(capsys, "lm-train", "--corpus", corpus, "--order", 2, "--output", arpa)
        text = tmp_path / "empty.txt"
        text.write_text("\n", encoding="utf-8")
        code, out, err = run(capsys, "lm-ppl", "--model", arpa, "--text", text)
        assert code == 1 and not out
        assert f"{text}: cannot compute perplexity of empty text" in err

    def test_ppl_of_a_model_without_unk_names_the_model(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("u1\ta b\n")
        arpa = tmp_path / "m.arpa"
        arpa.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5\ta\n-0.5\tb\n"
                        "-0.5\t</s>\n\n\\end\\\n", encoding="utf-8")
        code, _, err = run(capsys, "lm-ppl", "--model", arpa, "--text", corpus)
        assert code == 1
        assert f"{arpa}: " in err and "<unk>" in err


class TestSplitScore:
    def test_split_manifests(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("\n".join(f"u{i}" for i in range(12)) + "\n")
        out_dir = tmp_path / "folds"
        code, _, _ = run(capsys, "split", "--ids", str(ids), "--folds", "6",
                         "--runs", "2", "--seed", "3", "--output-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "fold5.txt").exists()
        train = (out_dir / "run0.train").read_text().split()
        dev = (out_dir / "run0.dev").read_text().split()
        test = (out_dir / "run0.test").read_text().split()
        assert len(train) + len(dev) + len(test) == 12
        assert not (set(dev) & set(test))

    def test_score(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("u1\ta b c\nu2\ta\n")
        hyp.write_text("u1\ta c\nu2\ta\n")
        code, out, _ = run(capsys, "score", "--metric", "wer",
                           "--ref", str(ref), "--hyp", str(hyp))
        assert code == 0
        assert "S=0" in out and "D=1" in out and "I=0" in out
        assert "rate=0.250000" in out

    def test_wer_normalizes_and_per_compares_verbatim(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("u1\tN  a\n")
        hyp.write_text("u1\tn a\n")
        _, out, _ = run(capsys, "score", "--metric", "wer", "--ref", ref, "--hyp", hyp)
        assert "S=0" in out and "N=2" in out
        _, out, _ = run(capsys, "score", "--metric", "per", "--ref", ref, "--hyp", hyp)
        assert "S=1" in out and "N=2" in out

    def test_score_rejects_duplicate_ids(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("u1\ta\nu1\tb\n")
        for metric in ("wer", "per"):
            code, out, err = run(capsys, "score", "--metric", metric, "--ref", ref, "--hyp", ref)
            assert code == 1 and not out
            assert f"{ref}:2: duplicate utterance id 'u1'" in err

    def test_score_rejects_empty_id(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("u1\ta\n\tmienh dorn\n")
        for metric in ("wer", "per"):
            code, out, err = run(capsys, "score", "--metric", metric, "--ref", ref, "--hyp", ref)
            assert code == 1 and not out
            assert f"{ref}:2: empty utterance id" in err

    def test_score_missing_hyp_errors(self, capsys, tmp_path):
        ref = tmp_path / "ref.txt"
        hyp = tmp_path / "hyp.txt"
        ref.write_text("u1\ta\nu2\tb\n")
        hyp.write_text("u1\ta\n")
        code, _, err = run(capsys, "score", "--ref", str(ref), "--hyp", str(hyp))
        assert code == 1 and "missing" in err


class TestRepeatedCalls:
    """Calls in one process share no parsed option, and a rebound command is what runs."""

    def test_second_call_keeps_no_option_of_the_first(self, capsys, monkeypatch, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("\n".join(f"u{i}" for i in range(12)) + "\n")
        seeds, real = [], cli.cmd_split
        monkeypatch.setattr(cli, "cmd_split", lambda args: seeds.append(args.seed) or real(args))
        for name, extra in (("five", ["--seed", "5"]), ("default", []), ("zero", ["--seed", "0"])):
            code, _, err = run(capsys, "split", "--ids", ids, "--folds", "6", "--runs", "1",
                               "--output-dir", tmp_path / name, *extra)
            assert code == 0, err
        assert seeds == [5, 0, 0]
        folds = {name: [(tmp_path / name / f"fold{k}.txt").read_text() for k in range(6)]
                 for name in ("five", "default", "zero")}
        assert folds["default"] == folds["zero"] != folds["five"]

    @pytest.mark.parametrize("argv,fn", [
        (["score", "--ref", "r.txt", "--hyp", "h.txt"], "cmd_score"),
        (["bpe-decode", "--model", "m.json", "--ids", "1 2"], "cmd_bpe_decode"),
    ])
    def test_main_runs_the_module_attribute(self, monkeypatch, argv, fn):
        calls = []
        monkeypatch.setattr(cli, fn, lambda args: calls.append(args.command) or 7)
        assert main(argv) == 7
        assert calls == [argv[0]]


class TestDecodeCli:
    def test_phoneme_decode_round_trip(self, capsys, toy, tmp_path):
        root, cfg = toy
        lex = tmp_path / "lex.tsv"
        vocab = tmp_path / "ph.txt"
        run(capsys, "lexicon", "--corpus", str(root / "corpus.tsv"), "--output", str(lex))
        run(capsys, "vocab", "--lexicon", str(lex), "--output", str(vocab))
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\nu2\n")
        out = tmp_path / "hyp.txt"
        nbest = tmp_path / "nbest.txt"
        code, _, err = run(capsys, "decode", "--mode", "phoneme",
                           "--emissions", str(root / "emissions"),
                           "--ids", str(ids), "--lexicon", str(lex),
                           "--vocab", str(vocab), "--output", str(out),
                           "--nbest", str(nbest), "--beam", "8")
        assert code == 0, err
        lines = dict(ln.split("\t") for ln in out.read_text().splitlines())
        assert lines["u1"] == "maaih mienh dorn"
        assert nbest.read_text().count("u1\t0\t") == 1

    def test_subword_decode(self, capsys, tmp_path):
        root = tmp_path / "toy"
        write_toy_experiment(root, mode="subword")
        model = tmp_path / "bpe.model"
        code, _, _ = run(capsys, "bpe-train", "--corpus", str(root / "corpus.tsv"),
                         "--vocab-size", "20", "--output", str(model))
        assert code == 0
        ids = tmp_path / "ids.txt"
        ids.write_text("u3\n")
        out = tmp_path / "hyp.txt"
        code, _, err = run(capsys, "decode", "--mode", "subword",
                           "--emissions", str(root / "emissions"),
                           "--ids", str(ids), "--bpe-model", str(model),
                           "--output", str(out), "--beam", "8")
        assert code == 0, err
        assert out.read_text() == "u3\tdorn maaih mienh\n"

    def test_missing_bpe_model_flag_errors(self, capsys, toy, tmp_path):
        root, _ = toy
        code, _, err = run(capsys, "decode", "--mode", "subword", "--emissions", root / "emissions",
                           "--ids", tmp_path / "ids.txt", "--output", tmp_path / "o.txt")
        assert code == 1
        assert "subword mode needs --bpe-model" in err
        assert not (tmp_path / "o.txt").exists()

    def test_missing_lexicon_flag_errors(self, capsys, toy, tmp_path):
        root, _ = toy
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "phoneme",
                           "--emissions", str(root / "emissions"),
                           "--ids", str(ids), "--output", str(tmp_path / "o.txt"))
        assert code == 1
        assert "lexicon" in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_nbest_size_below_one_is_a_usage_error(self, capsys, toy, tmp_path, size):
        root, _ = toy
        with pytest.raises(SystemExit) as info:
            main(["decode", "--mode", "phoneme", "--emissions", str(root / "emissions"),
                  "--ids", str(tmp_path / "ids.txt"), "--output", str(tmp_path / "o.txt"),
                  "--nbest", str(tmp_path / "n.txt"), "--nbest-size", size])
        assert info.value.code == 2
        assert "--nbest-size" in capsys.readouterr().err
        assert not (tmp_path / "n.txt").exists()

    @pytest.mark.parametrize("beam", ["0", "-1"])
    def test_beam_below_one_is_a_usage_error(self, capsys, toy, tmp_path, beam):
        root, _ = toy
        with pytest.raises(SystemExit) as info:
            main(["decode", "--mode", "phoneme", "--emissions", str(root / "emissions"),
                  "--ids", str(tmp_path / "ids.txt"), "--output", str(tmp_path / "o.txt"),
                  "--beam", beam])
        assert info.value.code == 2
        assert "--beam" in capsys.readouterr().err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("spelling", ["-1e-05", "-1E-5"])
    def test_wip_in_exponent_form_is_a_value(self, capsys, monkeypatch, toy, tmp_path, spelling):
        root, _ = toy
        lex, vocab = tmp_path / "lex.tsv", tmp_path / "ph.txt"
        run(capsys, "lexicon", "--corpus", root / "corpus.tsv", "--output", lex)
        run(capsys, "vocab", "--lexicon", lex, "--output", vocab)
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        seen, real = [], experiment.decode

        def spy(em, cfg, **kw):
            seen.append(cfg.word_insertion_penalty)
            return real(em, cfg, **kw)

        monkeypatch.setattr(experiment, "decode", spy)
        code, _, err = run(capsys, "decode", "--mode", "phoneme", "--emissions", root / "emissions",
                           "--ids", ids, "--lexicon", lex, "--vocab", vocab,
                           "--output", tmp_path / "o.txt", "--wip", spelling)
        assert code == 0, err
        assert seen == [-1e-05]

    def staged_lexicon(self, capsys, root, tmp_path):
        lex, vocab = tmp_path / "lex.tsv", tmp_path / "ph.txt"
        run(capsys, "lexicon", "--corpus", root / "corpus.tsv", "--output", lex)
        run(capsys, "vocab", "--lexicon", lex, "--output", vocab)
        return lex, vocab

    def test_overflowing_insertion_term_exits_1(self, capsys, toy, tmp_path):
        root, _ = toy
        lex, vocab = self.staged_lexicon(capsys, root, tmp_path)
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "phoneme", "--emissions", root / "emissions",
                           "--ids", ids, "--lexicon", lex, "--vocab", vocab,
                           "--output", tmp_path / "o.txt", "--wip", "1e308")
        assert code == 1
        assert "word_insertion_penalty" in err

    def test_ids_read_as_split_reads_them(self, capsys, toy, tmp_path):
        """A trailing space or a TAB and transcript after the id is not part of it."""
        root, _ = toy
        lex, vocab = self.staged_lexicon(capsys, root, tmp_path)
        ids = tmp_path / "ids.txt"
        ids.write_text("u1 \nu2\tmienh dorn maaih\n")
        out = tmp_path / "o.txt"
        code, _, err = run(capsys, "decode", "--mode", "phoneme", "--emissions", root / "emissions",
                           "--ids", ids, "--lexicon", lex, "--vocab", vocab, "--output", out)
        assert code == 0, err
        assert out.read_text() == "u1\tmaaih mienh dorn\nu2\tmienh dorn maaih\n"
        code, _, err = run(capsys, "split", "--ids", ids, "--folds", "2", "--runs", "1",
                           "--output-dir", tmp_path / "split")
        assert code == 0, err
        assert sorted((tmp_path / "split" / f"fold{k}.txt").read_text() for k in (0, 1)) \
            == ["u1\n", "u2\n"]

    def test_negative_lm_weight_in_exponent_form_reaches_config_check(self, capsys, toy,
                                                                       tmp_path):
        root, _ = toy
        code, _, err = run(capsys, "decode", "--mode", "phoneme", "--emissions", root / "emissions",
                           "--ids", tmp_path / "ids.txt", "--output", tmp_path / "o.txt",
                           "--lm-weight", "-1e-3")
        assert code == 1
        assert "lm_weight must be finite and >= 0" in err

    def test_width_mismatch_names_emission_file(self, capsys, toy, tmp_path):
        root, _ = toy
        lex = tmp_path / "lex.tsv"
        vocab = tmp_path / "ph.txt"
        run(capsys, "lexicon", "--corpus", str(root / "corpus.tsv"), "--output", str(lex))
        run(capsys, "vocab", "--lexicon", str(lex), "--output", str(vocab))
        em = root / "emissions" / "u2.em"
        write_emissions(em, np.log(np.full((3, 2), 0.5)))
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\nu2\n")
        code, _, err = run(capsys, "decode", "--mode", "phoneme",
                           "--emissions", str(root / "emissions"), "--ids", str(ids),
                           "--lexicon", str(lex), "--vocab", str(vocab),
                           "--output", str(tmp_path / "o.txt"))
        assert code == 1
        assert f"{em}: emission vocab size 2 != lexicon phoneme vocab" in err

    def test_lexicon_token_outside_vocab_names_lexicon_and_word(self, capsys, toy, tmp_path):
        root, _ = toy
        lex, vocab = tmp_path / "lex.tsv", tmp_path / "ph.txt"
        lex.write_text("maaih\tm aːɪ 2\n", encoding="utf-8")
        vocab.write_text("<blk>\nm\n2\n", encoding="utf-8")
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "phoneme",
                           "--emissions", root / "emissions", "--ids", ids,
                           "--lexicon", lex, "--vocab", vocab, "--output", tmp_path / "o.txt")
        assert code == 1
        assert f"{lex}: word 'maaih': token 'aːɪ' not in phoneme vocabulary" in err

    def test_empty_lexicon_names_lexicon_file(self, capsys, toy, tmp_path):
        root, _ = toy
        lex, vocab = self.staged_lexicon(capsys, root, tmp_path)
        lex.write_text("", encoding="utf-8")
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "phoneme",
                           "--emissions", root / "emissions", "--ids", ids,
                           "--lexicon", lex, "--vocab", vocab, "--output", tmp_path / "o.txt")
        assert code == 1
        assert f"error: {lex}: empty lexicon" in err

    def test_lm_of_specials_only_names_lm_file(self, capsys, tmp_path):
        """Subword mode spells the LM's words, so an LM with none gives an empty lexicon."""
        root = tmp_path / "toy"
        write_toy_experiment(root, mode="subword")
        model, arpa = tmp_path / "bpe.model", tmp_path / "spec.arpa"
        run(capsys, "bpe-train", "--corpus", root / "corpus.tsv", "--vocab-size", 20,
            "--output", model)
        arpa.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-99\t<s>\n-0.30103\t</s>\n"
                        "-0.30103\t<unk>\n\n\\end\\\n", encoding="utf-8")
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "subword",
                           "--emissions", root / "emissions", "--ids", ids,
                           "--bpe-model", model, "--lm", arpa, "--output", tmp_path / "o.txt")
        assert code == 1
        assert f"error: {arpa}: empty lexicon" in err

    def test_lm_word_the_bpe_model_cannot_spell_names_word(self, capsys, tmp_path):
        root = tmp_path / "toy"
        write_toy_experiment(root, mode="subword")
        model, arpa = tmp_path / "bpe.model", tmp_path / "lm.arpa"
        run(capsys, "bpe-train", "--corpus", root / "corpus.tsv", "--vocab-size", 20,
            "--output", model)
        text = tmp_path / "lm.txt"
        text.write_text("maaih qxqx\n", encoding="utf-8")
        run(capsys, "lm-train", "--corpus", text, "--order", 2, "--output", arpa)
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\n")
        code, _, err = run(capsys, "decode", "--mode", "subword",
                           "--emissions", root / "emissions", "--ids", ids,
                           "--bpe-model", model, "--lm", arpa, "--output", tmp_path / "o.txt")
        assert code == 1
        assert f"{arpa}: LM word 'qxqx' spells to <unk>" in err


class TestInputFaultNamesFile:
    """A library call's fault in an input file names that file; a flag's fault names none."""

    @pytest.mark.parametrize("command, flag, text, message", [
        ("vocab", "--lexicon", "", "{}: cannot derive a vocabulary from an empty lexicon"),
        ("split", "--ids", "u1\nu2\nu1\n", "{}:3: duplicate utterance id 'u1'"),
        ("split", "--ids", "u1\n\tmienh dorn\nu2\n", "{}:2: empty utterance id"),
        ("lm-train", "--corpus", "u1\t\nu2\t \n", "{}: corpus has zero tokens"),
        ("bpe-train", "--corpus", "u1\t\n", "{}: empty training corpus"),
        ("bpe-train", "--corpus", "u1\ta\u2581b\n",
         "{}: training word 'a\u2581b' holds the word-boundary marker"),
    ], ids=["empty-lexicon", "repeated-id", "empty-id", "wordless-lm-corpus",
            "wordless-bpe-corpus", "marker-in-word"])
    def test_fault_names_file(self, capsys, tmp_path, command, flag, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        out = (["--output-dir", tmp_path / "out", "--folds", 2, "--runs", 1]
               if command == "split" else ["--output", tmp_path / "out"])
        code, _, err = run(capsys, command, flag, path, *out)
        assert code == 1
        assert message.format(path) in err

    def test_order_below_one_is_a_usage_error(self, capsys, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(["lm-train", "--corpus", str(corpus), "--order", "0",
                  "--output", str(tmp_path / "m.arpa")])
        assert info.value.code == 2
        assert "--order" in capsys.readouterr().err

    def test_runs_beyond_folds_name_no_file(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\nu2\n", encoding="utf-8")
        code, _, err = run(capsys, "split", "--ids", ids, "--folds", 2, "--runs", 2,
                           "--output-dir", tmp_path / "out")
        assert code == 1
        assert "2 runs need 4 distinct folds" in err and str(ids) not in err


class TestTransferCli:
    def test_round_trip(self, capsys, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("2 3\n<blk> 0.1 0.2 0.3\nn 1 2 3\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("<blk>\nn\nɲ\n")
        out = tmp_path / "out.txt"
        code, msg, _ = run(capsys, "transfer-init", "--src", str(src),
                           "--tgt-vocab", str(vocab), "--seed", "1",
                           "--output", str(out))
        assert code == 0
        assert "copied 1" in msg and "randomized 1" in msg
        lines = out.read_text().splitlines()
        assert lines[0] == "3 3"
        assert lines[2].split()[0] == "n"
        assert [float(x) for x in lines[2].split()[1:]] == [1.0, 2.0, 3.0]

    def test_negative_scale_in_exponent_form_reaches_scale_check(self, capsys, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("1 2\n<blk> 0.1 0.2\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("<blk>\nn\n")
        code, _, err = run(capsys, "transfer-init", "--src", src, "--tgt-vocab", vocab,
                           "--scale", "-1e-3", "--output", tmp_path / "out.txt")
        assert code == 1
        assert "scale" in err and "-0.001" in err
        assert not (tmp_path / "out.txt").exists()


class TestExperimentCli:
    def test_end_to_end(self, capsys, toy):
        _, cfg = toy
        code, out, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 0, err
        assert "avg\tWER\t0.0000\t0.0000" in out


def write_rows(path, rows):
    path.write_text("".join(f"{u}\t{t}\n" for u, t in rows), encoding="utf-8")


class TestStagesMatchExperiment:
    """The README's stage-by-stage path writes what ``run_experiment`` writes."""

    @pytest.mark.parametrize("mode", ["phoneme", "subword"])
    def test_stage_outputs_byte_identical(self, capsys, tmp_path, mode):
        root = tmp_path / "toy"
        cfg_path = write_toy_experiment(root, mode=mode)
        rows = [(u, "  ".join(w.upper() if i % 2 else w.capitalize()
                              for i, w in enumerate(t.split()))) for u, t in TOY_UTTS]
        write_rows(root / "corpus.tsv", rows)
        code, _, err = run(capsys, "experiment", "--config", cfg_path)
        assert code == 0, err
        run0 = root / "out" / "run0"
        by_id = dict(rows)
        train, ref = tmp_path / "train.tsv", tmp_path / "ref.tsv"
        for manifest, path in (("manifest.train", train), ("manifest.test", ref)):
            write_rows(path, [(u, by_id[u]) for u in (run0 / manifest).read_text().split()])

        stages = tmp_path / "stages"
        stages.mkdir()
        if mode == "phoneme":
            argvs = {"lexicon.tsv": ["lexicon", "--corpus", train],
                     "phonemes.txt": ["vocab", "--lexicon", stages / "lexicon.tsv"]}
        else:
            argvs = {"bpe.model": ["bpe-train", "--corpus", train, "--vocab-size", 20]}
        argvs["lm.arpa"] = ["lm-train", "--corpus", train, "--order", 2]
        for name, argv in argvs.items():
            code, _, err = run(capsys, *argv, "--output", stages / name)
            assert code == 0, err
            assert (stages / name).read_bytes() == (run0 / name).read_bytes(), name

        report = (root / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
        wo_lm, with_lm = next(ln for ln in report if ln.startswith("0\tWER")).split("\t")[2:]
        for hyp, reported in (("hyp_with_lm.txt", with_lm), ("hyp_without_lm.txt", wo_lm)):
            code, out, err = run(capsys, "score", "--metric", "wer", "--ref", ref,
                                 "--hyp", run0 / hyp)
            assert code == 0, err
            assert f"{float(out.split('rate=')[1]):.4f}" == reported, hyp

    def test_subword_decode_writes_run0_hypotheses(self, capsys, tmp_path):
        root = tmp_path / "toy"
        code, _, err = run(capsys, "experiment", "--config",
                           write_toy_experiment(root, mode="subword"))
        assert code == 0, err
        run0 = root / "out" / "run0"
        for hyp, lm in (("hyp_with_lm.txt", ["--lm", run0 / "lm.arpa"]),
                        ("hyp_without_lm.txt", [])):
            out = tmp_path / hyp
            code, _, err = run(capsys, "decode", "--mode", "subword",
                               "--emissions", root / "emissions", "--ids", run0 / "manifest.test",
                               "--bpe-model", run0 / "bpe.model", *lm, "--beam", 8,
                               "--lm-weight", 0.5, "--output", out)
            assert code == 0, err
            assert out.read_bytes() == (run0 / hyp).read_bytes(), hyp

    def test_split_matches_manifests(self, capsys, tmp_path):
        root = tmp_path / "toy"
        cfg = load_config(write_toy_experiment(root))
        cfg.runs, cfg.seed = 2, 7
        run_experiment(cfg)
        folds = tmp_path / "folds"
        code, _, err = run(capsys, "split", "--ids", cfg.corpus, "--folds", cfg.folds,
                           "--runs", cfg.runs, "--seed", cfg.seed, "--output-dir", folds)
        assert code == 0, err
        for r in range(cfg.runs):
            for name in ("train", "dev", "test"):
                assert ((folds / f"run{r}.{name}").read_bytes()
                        == (cfg.output_dir / f"run{r}" / f"manifest.{name}").read_bytes())


ROUTE_WORDS = TOY_WORDS + ("mbuo", "nyei", "daaih")


@st.composite
def route_case(draw):
    """A permutation corpus whose every train fold shares one token inventory."""
    words = draw(st.lists(st.sampled_from(ROUTE_WORDS), min_size=2, max_size=4, unique=True))
    # four or more folds leave at least two train utterances, so every BPE
    # pair occurs twice on every fold and the folds train one model
    folds = draw(st.integers(4, 5))
    n = draw(st.integers(folds, folds + 2))
    texts = [" ".join(draw(st.permutations(words))) for _ in range(n)]
    return {
        "texts": texts, "folds": folds,
        "seed": draw(st.integers(0, 2 ** 16)),
        "beam": draw(st.integers(1, 8)),
        "lm_weight": draw(st.floats(0, 2, allow_subnormal=False)),
        "wip": draw(st.floats(-2, 2, allow_subnormal=False)),
        "noise": draw(st.floats(0, 6)),
        "lm_order": draw(st.integers(1, 3)),
        "bpe_extra": draw(st.integers(1, 12)),
    }


def quiet_main(*argv):
    """``main`` with its output swallowed; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


class TestRouteEquivalence:
    """On generated corpora the CLI stages write the bytes ``run_experiment`` writes."""

    @pytest.mark.parametrize("mode", ["phoneme", "subword"])
    @settings(max_examples=60)
    @given(case=route_case())
    def test_stages_write_run0_bytes(self, mode, case):
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), mode, case)

    def check(self, root, mode, case):
        texts = case["texts"]
        utts = [(f"u{i}", t) for i, t in enumerate(texts)]
        if mode == "phoneme":
            inv, table = default_inventory(), default_g2p_table()
            entries = {w: g2p(w, table, inv) for w in texts[0].split()}
            vocab = derive_phoneme_vocab(list(entries.values()))
            ids_of = lambda text: [vocab.index(t) for w in text.split() for t in entries[w].pron]
            width, extra = len(vocab), []
        else:
            # a size never reached leaves vocab minus merges: the floor a size must exceed
            full = bpe_train(texts, 10 ** 6)
            bpe_size = len(full.vocab) - len(full.merges) + case["bpe_extra"]
            bpe = bpe_train(texts, bpe_size)
            ids_of = lambda text: bpe_encode(text, bpe)
            width, extra = len(bpe.vocab), [f"bpe_vocab_size = {bpe_size}"]
        rng = np.random.default_rng(case["seed"])
        (root / "emissions").mkdir()
        for utt, text in utts:
            clean = peaked_emissions(ids_of(text), width)
            write_emissions(root / "emissions" / f"{utt}.em",
                            normalize_rows(clean + case["noise"] * rng.standard_normal(clean.shape)))
        write_rows(root / "corpus.tsv", utts)
        write_lines(root / "config.ini", [
            "[experiment]", "corpus = corpus.tsv", "emissions_dir = emissions",
            "output_dir = out", f"mode = {mode}", f"beam_size = {case['beam']}",
            f"lm_weight = {case['lm_weight']!r}",
            f"word_insertion_penalty = {case['wip']!r}",
            f"lm_order = {case['lm_order']}", f"folds = {case['folds']}", "runs = 1",
            f"seed = {case['seed']}", *extra])
        code, err = quiet_main("experiment", "--config", root / "config.ini")
        assert code == 0, err

        run0, stages = root / "out" / "run0", root / "stages"
        stages.mkdir()
        train = stages / "train.tsv"
        write_rows(train, [utts[int(u[1:])] for u in (run0 / "manifest.train").read_text().split()])
        if mode == "phoneme":
            argvs = {"lexicon.tsv": ["lexicon", "--corpus", train],
                     "phonemes.txt": ["vocab", "--lexicon", stages / "lexicon.tsv"]}
            model = ["--lexicon", stages / "lexicon.tsv", "--vocab", stages / "phonemes.txt"]
        else:
            argvs = {"bpe.model": ["bpe-train", "--corpus", train, "--vocab-size", bpe_size]}
            model = ["--bpe-model", stages / "bpe.model"]
        argvs["lm.arpa"] = ["lm-train", "--corpus", train, "--order", case["lm_order"]]
        for name, argv in argvs.items():
            code, err = quiet_main(*argv, "--output", stages / name)
            assert code == 0, err
        for hyp, lm in (("hyp_with_lm.txt", ["--lm", stages / "lm.arpa"]),
                        ("hyp_without_lm.txt", [])):
            code, err = quiet_main(
                "decode", "--mode", mode, "--emissions", root / "emissions",
                "--ids", run0 / "manifest.test", *model, *lm, "--beam", case["beam"],
                f"--lm-weight={case['lm_weight']!r}", f"--wip={case['wip']!r}",
                "--output", stages / hyp)
            assert code == 0, err
        for name in [*argvs, "hyp_with_lm.txt", "hyp_without_lm.txt"]:
            assert (stages / name).read_bytes() == (run0 / name).read_bytes(), name
