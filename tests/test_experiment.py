import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

from mienasr.ctc import write_emissions
from mienasr.experiment import (_CONFIG_KEYS, PipelineConfig, PipelineError,
                                load_config, read_corpus, run_experiment)
from mienasr.fixtures import TOY_UTTS, TOY_WORDS, peaked_emissions, write_toy_experiment
from mienasr.lexicon import default_g2p_table, derive_phoneme_vocab, g2p
from mienasr.orthography import default_inventory


def toy_lexicon():
    inv, table = default_inventory(), default_g2p_table()
    entries = [g2p(w, table, inv) for w in TOY_WORDS]
    return entries, derive_phoneme_vocab(entries)


def prefix_emissions():
    """Toy-width emissions peaking on the first phoneme of "maaih" only.

    That is a strict prefix of a pronunciation, so a beam-1 phoneme decode
    ends inside the trie and returns no hypothesis.
    """
    entries, vocab = toy_lexicon()
    return peaked_emissions([vocab.index(entries[0].pron[0])], len(vocab))


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    cfg_path = write_toy_experiment(root)
    return root, cfg_path


class TestConfig:
    def test_load(self, toy):
        root, cfg_path = toy
        cfg = load_config(cfg_path)
        assert cfg.mode == "phoneme"
        assert cfg.folds == 5 and cfg.runs == 1
        assert cfg.corpus == root / "corpus.tsv"

    def test_custom_inventory_and_table_paths(self, toy, tmp_path):
        root, cfg_path = toy
        import mienasr.lexicon as lx
        import mienasr.orthography as orth
        from pathlib import Path as P
        inv_copy = tmp_path / "inv.txt"
        tab_copy = tmp_path / "g2p.tsv"
        data = P(orth.__file__).parent / "data"
        inv_copy.write_bytes((data / "iu_mien_inventory.txt").read_bytes())
        tab_copy.write_bytes((data / "iu_mien_g2p.tsv").read_bytes())
        text = cfg_path.read_text() + f"inventory = {inv_copy}\ng2p_table = {tab_copy}\n"
        cfg2 = root / "cfg_custom.ini"  # keep relative corpus paths resolvable
        cfg2.write_text(text)
        cfg = load_config(cfg2)
        assert cfg.inventory == inv_copy
        cfg.output_dir = tmp_path / "out"
        assert run_experiment(cfg).wer_with_lm == 0.0

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\ncorpus=x\nemissions_dir=y\noutput_dir=z\nbogus=1\n")
        with pytest.raises(PipelineError, match="unknown key"):
            load_config(p)

    def test_missing_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[other]\n")
        with pytest.raises(PipelineError, match="experiment"):
            load_config(p)

    def test_missing_required_keys_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[experiment]\ncorpus=x\n")
        with pytest.raises(PipelineError, match="missing required"):
            load_config(p)

    def test_missing_emissions_dir_fails_before_work(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.emissions_dir = tmp_path / "nowhere"
        with pytest.raises(PipelineError, match="config"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_keys_match_fields_and_readme_example(self, tmp_path):
        assert set(_CONFIG_KEYS) == {f.name for f in dataclasses.fields(PipelineConfig)}
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(\[experiment\]\n.*?)```", readme, re.S).group(1)
        assert sorted(re.findall(r"^(\w+) =", example, re.M)) == sorted(_CONFIG_KEYS)
        path = tmp_path / "config.ini"
        path.write_text(example, encoding="utf-8")
        load_config(path)  # the example loads as written

    def test_missing_emission_file_detected(self, toy, tmp_path):
        root, cfg_path = toy
        cfg = load_config(cfg_path)
        broken = tmp_path / "partial"
        broken.mkdir()
        for p in list(Path(cfg.emissions_dir).glob("*.em"))[:-1]:
            (broken / p.name).write_bytes(p.read_bytes())
        cfg.emissions_dir = broken
        with pytest.raises(PipelineError, match="missing emission"):
            run_experiment(cfg)


class TestStageErrors:
    """Bad settings fail as a PipelineError of the stage that meets them."""

    @pytest.mark.parametrize("mode, setting, stage, message", [
        ("phoneme", "beam_size = 0", "config", "beam_size"),
        ("phoneme", "beam_size = ten", "config", "config.ini: key 'beam_size'"),
        ("phoneme", "lm_weight = nan", "config", "lm_weight"),
        ("phoneme", "mode = grapheme", "config", "mode"),
        ("phoneme", "folds = 6", "split", "need at least 6 utterances"),
        ("phoneme", "runs = 3", "split", "3 runs need 6 distinct folds"),
        ("phoneme", "runs = 0", "split", "at least one run"),
        ("subword", "bpe_vocab_size = 3", "bpe", "vocab_size 3"),
    ])
    def test_bad_setting(self, tmp_path, mode, setting, stage, message):
        cfg_path = write_toy_experiment(tmp_path / "toy", mode=mode)
        key = setting.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", setting, cfg_path.read_text(), flags=re.M)
        cfg_path.write_text(text)
        with pytest.raises(PipelineError, match=re.escape(message)) as info:
            run_experiment(load_config(cfg_path))
        assert info.value.stage == stage


class TestToyExperiment:
    def test_wer_zero(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        report = run_experiment(cfg)
        assert report.wer_no_lm == 0.0
        assert report.wer_with_lm == 0.0
        assert report.runs[0].per_with_lm == 0.0

    def test_artifacts_written(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        run_experiment(cfg)
        run0 = cfg.output_dir / "run0"
        for name in ("manifest.train", "manifest.dev", "manifest.test",
                     "lexicon.tsv", "phonemes.txt", "lm.arpa",
                     "hyp_with_lm.txt", "hyp_without_lm.txt", "scores.txt"):
            assert (run0 / name).exists(), name
        assert (cfg.output_dir / "report.txt").exists()

    def test_rerun_byte_identical(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out1"
        run_experiment(cfg)
        first = tree_digest(cfg.output_dir)
        cfg.output_dir = tmp_path / "out2"
        run_experiment(cfg)
        assert tree_digest(cfg.output_dir) == first

    def test_workers_do_not_change_results(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "seq"
        run_experiment(cfg)
        seq = tree_digest(cfg.output_dir)
        cfg.workers = 3
        cfg.output_dir = tmp_path / "par"
        run_experiment(cfg)
        assert tree_digest(cfg.output_dir) == seq

    def test_report_layout(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        report = run_experiment(cfg)
        text = (cfg.output_dir / "report.txt").read_text(encoding="utf-8")
        assert text == report.to_text()
        lines = text.splitlines()
        assert lines[0] == "model\tphoneme-ctc"
        assert lines[1] == "run\tmetric\ttest-wo-lm\ttest-with-lm"
        assert any(ln.startswith("avg\tWER") for ln in lines)

    def test_empty_decode_scores_as_deletions(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        for utt, _ in TOY_UTTS:
            write_emissions(tmp_path / "toy" / "emissions" / f"{utt}.em",
                            prefix_emissions())
        cfg = load_config(cfg_path)
        cfg.beam_size = 1
        cfg.output_dir = tmp_path / "out"
        report = run_experiment(cfg)
        assert report.wer_no_lm == 1.0 and report.wer_with_lm == 1.0
        assert report.runs[0].per_with_lm == 1.0
        for name in ("hyp_with_lm.txt", "hyp_without_lm.txt"):
            line = (cfg.output_dir / "run0" / name).read_text(encoding="utf-8")
            assert line.endswith("\t\n") and line.count("\n") == 1


    def test_truncated_emission_header_is_a_decode_error(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        for utt, _ in TOY_UTTS:
            (tmp_path / "toy" / "emissions" / f"{utt}.em").write_bytes(b"EMISMAT1\x05")
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        with pytest.raises(PipelineError, match="truncated emission header") as info:
            run_experiment(cfg)
        assert info.value.stage == "decode"


class TestSubwordExperiment:
    def test_wer_zero_and_reproducible(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy", mode="subword")
        cfg = load_config(cfg_path)
        assert cfg.mode == "subword"
        cfg.output_dir = tmp_path / "out1"
        report = run_experiment(cfg)
        assert report.wer_no_lm == 0.0 and report.wer_with_lm == 0.0
        assert report.runs[0].per_no_lm is None  # PER is a phoneme-mode metric
        first = tree_digest(cfg.output_dir)
        cfg.output_dir = tmp_path / "out2"
        run_experiment(cfg)
        assert tree_digest(cfg.output_dir) == first
        assert (tmp_path / "out1" / "run0" / "bpe.model").exists()


class TestCorpusReader:
    def test_requires_tabs(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("u1 no tab here\n")
        with pytest.raises(PipelineError, match="TAB"):
            read_corpus(p)

    def test_lowercases(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("u1\tMienh  DORN\n")
        assert read_corpus(p) == [("u1", "mienh dorn")]

