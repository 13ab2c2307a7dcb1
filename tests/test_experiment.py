import dataclasses
import hashlib
import os
import re
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mienasr
import mienasr.experiment as experiment
from mienasr.cli import main
from mienasr.ctc import normalize_rows, read_emissions, write_emissions
from mienasr.decoder import DecodeConfig, build_prefix_tree, spell_lm_words
from mienasr.evaluate import make_cv_plan
from mienasr.experiment import (ExperimentReport, PipelineConfig, PipelineError, RunResult,
                                decode_utterances, load_config, read_corpus, run_experiment)
from mienasr.fixtures import (BPE_TOY_SIZE, TOY_UTTS, TOY_WORDS, peaked_emissions,
                              write_toy_experiment)
from mienasr.inputs import write_lines
from mienasr.lexicon import (default_g2p_table, derive_phoneme_vocab, g2p, write_lexicon,
                             write_vocab)
from mienasr.lm import arpa_write, lm_train
from mienasr.orthography import default_inventory
from mienasr.tokenizer import bpe_encode, bpe_train

PACKAGED_G2P = Path(mienasr.__file__).parent / "data" / "iu_mien_g2p.tsv"


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
        assert run_experiment(cfg).rate("WER", "with-lm") == 0.0

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
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(\[experiment\]\n.*?)```", readme, re.S).group(1)
        assert (sorted(re.findall(r"^(\w+) =", example, re.M))
                == sorted(f.name for f in dataclasses.fields(PipelineConfig)))
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


class TestConfigFileErrors:
    """Every way the INI file itself is bad is a config error naming the file."""

    @pytest.mark.parametrize("text, detail", [
        ("[experiment]\ncorpus = a\ncorpus = b\n", "option 'corpus'"),
        ("[experiment]\ncorpus = a\n[experiment]\nseed = 1\n", "section 'experiment'"),
        ("corpus = a\n[experiment]\n", "no section headers"),
        ("[experiment]\nno equals sign\n", "parsing errors"),
        ("[experiment]\ncorpus = 50%\n", "'%'"),
    ], ids=["duplicate-option", "duplicate-section", "no-section-header", "no-equals",
            "bad-interpolation"])
    def test_parser_error(self, tmp_path, text, detail):
        path = tmp_path / "c.ini"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"[config] {path}: ")) as info:
            load_config(path)
        assert info.value.stage == "config" and detail in str(info.value)

    def test_doubled_percent_is_a_literal_percent(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\ncorpus = data%%20.tsv\nemissions_dir = em\n"
                        "output_dir = out\n", encoding="utf-8")
        assert load_config(path).corpus == tmp_path / "data%20.tsv"

    @pytest.mark.parametrize("key", ["corpus", "emissions_dir", "output_dir",
                                     "inventory", "g2p_table"])
    def test_empty_path_value(self, tmp_path, key):
        path = write_toy_experiment(tmp_path / "toy")
        text = re.sub(rf"^{key} = .*\n", "", path.read_text(encoding="utf-8"), flags=re.M)
        path.write_text(f"{text}{key} =\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"[config] {path}: key '{key}'")):
            load_config(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.ini"
        with pytest.raises(PipelineError, match=re.escape(f"[config] {path}: ")) as info:
            load_config(path)
        assert "No such file" in str(info.value)


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

    def test_unparseable_reference_word_names_run_and_utterance(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        corpus = tmp_path / "toy" / "corpus.tsv"
        corpus.write_text("".join(f"{u}\t{t} qxqx\n" for u, t in TOY_UTTS), encoding="utf-8")
        with pytest.raises(PipelineError, match=r"run 0: utterance u\d: .*'qxqx'") as info:
            run_experiment(load_config(cfg_path))
        assert info.value.stage == "score"

    def test_no_translatable_training_word_is_a_lexicon_error(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        corpus = tmp_path / "toy" / "corpus.tsv"
        corpus.write_text("".join(f"{u}\tqxqx\n" for u, _ in TOY_UTTS), encoding="utf-8")
        with pytest.raises(PipelineError, match="run 0: no translatable training words") as info:
            run_experiment(load_config(cfg_path))
        assert info.value.stage == "lexicon"

    def test_blank_in_g2p_table_is_a_config_error(self, tmp_path):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        cfg.g2p_table = tmp_path / "t.tsv"
        text = PACKAGED_G2P.read_text(encoding="utf-8")
        line = text.splitlines().index("m\tm") + 1
        cfg.g2p_table.write_text(text.replace("\nm\tm\n", "\nm\t<blk>\n"), encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(f"{cfg.g2p_table}:{line}: ")) as info:
            run_experiment(cfg)
        assert info.value.stage == "config"
        assert not cfg.output_dir.exists()

    @pytest.mark.parametrize("workers", [0, 3])
    def test_workers_other_than_one_rejected(self, tmp_path, workers):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        cfg.workers = workers
        with pytest.raises(PipelineError, match=re.escape(f"workers must be 1, got {workers}")) as info:
            run_experiment(cfg)
        assert info.value.stage == "config"

    def test_run_dir_naming_a_file_is_a_split_error(self, tmp_path):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        cfg.output_dir.mkdir()
        (cfg.output_dir / "run0").write_text("kept\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape("[split] run 0: ")) as info:
            run_experiment(cfg)
        assert info.value.stage == "split"
        assert isinstance(info.value.__cause__, FileExistsError)

    def test_lm_arpa_naming_a_directory_is_an_lm_error(self, tmp_path):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        (cfg.output_dir / "run0" / "lm.arpa").mkdir(parents=True)
        with pytest.raises(PipelineError, match=re.escape("[lm] run 0: ")) as info:
            run_experiment(cfg)
        assert info.value.stage == "lm"
        assert isinstance(info.value.__cause__, IsADirectoryError)

    def test_output_dir_naming_a_file(self, tmp_path):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        cfg.output_dir.write_text("kept\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=re.escape(str(cfg.output_dir))) as info:
            run_experiment(cfg)
        assert info.value.stage == "config"
        assert cfg.output_dir.read_text(encoding="utf-8") == "kept\n"


class TestToyExperiment:
    def test_wer_zero(self, toy, tmp_path):
        _, cfg_path = toy
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        report = run_experiment(cfg)
        assert report.rate("WER", "no-lm") == 0.0
        assert report.rate("WER", "with-lm") == 0.0
        assert report.runs[0].rates["PER", "with-lm"] == 0.0

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
        assert report.rate("WER", "no-lm") == 1.0 and report.rate("WER", "with-lm") == 1.0
        assert report.runs[0].rates["PER", "with-lm"] == 1.0
        for name in ("hyp_with_lm.txt", "hyp_without_lm.txt"):
            line = (cfg.output_dir / "run0" / name).read_text(encoding="utf-8")
            assert line.endswith("\t\n") and line.count("\n") == 1


    def test_overflowing_insertion_term_is_a_decode_error(self, tmp_path):
        cfg = load_config(write_toy_experiment(tmp_path / "toy"))
        cfg.word_insertion_penalty = 1e308
        cfg.output_dir = tmp_path / "out"
        with pytest.raises(PipelineError, match="word_insertion_penalty") as info:
            run_experiment(cfg)
        assert info.value.stage == "decode"

    def test_truncated_emission_header_is_a_decode_error(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        for utt, _ in TOY_UTTS:
            (tmp_path / "toy" / "emissions" / f"{utt}.em").write_bytes(b"EMISMAT1\x05")
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        with pytest.raises(PipelineError, match="truncated emission header") as info:
            run_experiment(cfg)
        assert info.value.stage == "decode"

    def test_width_mismatch_names_emission_file(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        for utt, _ in TOY_UTTS:
            write_emissions(tmp_path / "toy" / "emissions" / f"{utt}.em",
                            np.log(np.full((3, 2), 0.5)))
        cfg = load_config(cfg_path)
        cfg.output_dir = tmp_path / "out"
        with pytest.raises(PipelineError) as info:
            run_experiment(cfg)
        assert info.value.stage == "decode"
        assert re.search(r"run 0: \S*[/\\]u\d\.em: emission vocab size 2 != ", str(info.value))


class TestSubwordExperiment:
    def test_wer_zero_and_reproducible(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy", mode="subword")
        cfg = load_config(cfg_path)
        assert cfg.mode == "subword"
        cfg.output_dir = tmp_path / "out1"
        report = run_experiment(cfg)
        assert report.rate("WER", "no-lm") == 0.0 and report.rate("WER", "with-lm") == 0.0
        assert ("PER", "no-lm") not in report.runs[0].rates  # PER is a phoneme-mode metric
        first = tree_digest(cfg.output_dir)
        cfg.output_dir = tmp_path / "out2"
        run_experiment(cfg)
        assert tree_digest(cfg.output_dir) == first
        assert (tmp_path / "out1" / "run0" / "bpe.model").exists()

    def test_marker_in_corpus_is_a_bpe_error(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy", mode="subword")
        corpus = tmp_path / "toy" / "corpus.tsv"
        corpus.write_text(corpus.read_text(encoding="utf-8").replace("\t", "\tx\u2581maaih "),
                          encoding="utf-8")
        with pytest.raises(PipelineError, match="x\u2581maaih.*marker") as info:
            run_experiment(load_config(cfg_path))
        assert info.value.stage == "bpe"


def cpus(monkeypatch, n: int) -> None:
    """Let this process run on CPUs 0..n-1; a decode may start one process per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def noisy_decode_case(root: Path, mode: str, n: int = 16):
    """Ids ``v0``..., their noisy emission files under ``root`` over the toy
    texts, the LMs ``(ngram, None)`` and the models that decode them."""
    texts = [text for _, text in TOY_UTTS]
    ngram = lm_train(texts, order=2)
    if mode == "phoneme":
        entries, vocab = toy_lexicon()
        pron = {e.word: e.pron for e in entries}
        ids_of = lambda text: [vocab.index(p) for w in text.split() for p in pron[w]]
        width, models = len(vocab), {"lex": build_prefix_tree(entries, vocab)}
    else:
        bpe = bpe_train(texts, BPE_TOY_SIZE)
        ids_of = lambda text: bpe_encode(text, bpe)
        width, models = len(bpe.vocab), {"lex": spell_lm_words(bpe, ngram), "bpe": bpe}
    rng = np.random.default_rng(0)
    ids = [f"v{k}" for k in range(n)]
    for k, utt in enumerate(ids):
        clean = peaked_emissions(ids_of(texts[k % len(texts)]), width)
        write_emissions(root / f"{utt}.em",
                        normalize_rows(clean + 2.0 * rng.standard_normal(clean.shape)))
    return ids, (ngram, None), models


def lengthen(path: Path, times: int = 60) -> None:
    """Repeat an emission file's frames, so its id decodes last of all."""
    write_emissions(path, np.vstack([read_emissions(path).logits] * times))


def live_children() -> list[int]:
    """Pids of this process's children that are not yet reaped, zombies too."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]   # "pid (comm) state ppid ..."
        except OSError:   # the process ended while the list was read
            continue
        if int(ppid) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


def fail_in_child(monkeypatch, utt: str, fail) -> None:
    """Make a forked child call ``fail()`` when it comes to decode ``utt``."""
    caller, decode_one = os.getpid(), experiment._decode_one

    def decode(u, *args, **kwargs):
        if u == utt and os.getpid() != caller:
            fail()
        return decode_one(u, *args, **kwargs)

    monkeypatch.setattr(experiment, "_decode_one", decode)


class TestForkedDecode:
    """A call of 16 or more ids on 2 CPUs decodes every other id in this process
    and the rest in 1 forked child, with serial decoding's results and errors,
    and leaves no process behind."""

    @staticmethod
    def decode(monkeypatch, n_cpus, root, ids, lms, models):
        cpus(monkeypatch, n_cpus)
        return decode_utterances(root, ids, DecodeConfig(beam_size=8), lms, **models)

    @pytest.mark.parametrize("mode", ["phoneme", "subword"])
    def test_nbest_lists_equal_serial(self, monkeypatch, tmp_path, mode):
        # (ngram, None): phoneme mode with and without an LM, subword with an LM and greedy
        case = noisy_decode_case(tmp_path, mode)
        serial = list(self.decode(monkeypatch, 1, tmp_path, *case))
        assert any(len(hyps) > 1 for _, nbests in serial for hyps in nbests)
        forked = self.decode(monkeypatch, 2, tmp_path, *case)
        first = next(forked)
        assert len(live_children()) == 1
        assert repr([first, *forked]) == repr(serial)
        assert live_children() == []

    def test_ids_yielded_in_order_when_a_later_id_finishes_first(self, monkeypatch, tmp_path):
        ids, lms, models = noisy_decode_case(tmp_path, "phoneme")
        lengthen(tmp_path / "v0.em")
        assert [utt for utt, _ in self.decode(monkeypatch, 2, tmp_path, ids, lms, models)] == ids

    def test_earliest_failing_id_raises_serial_error(self, monkeypatch, tmp_path):
        case = noisy_decode_case(tmp_path, "phoneme")
        # the child fails at v1 while this process decodes v0; v6 (this
        # process's share) and v7 fail later in id order
        lengthen(tmp_path / "v0.em")
        write_emissions(tmp_path / "v1.em", np.log(np.full((3, 2), 0.5)))
        for utt in ("v6", "v7"):
            (tmp_path / f"{utt}.em").write_bytes(b"EMISMAT1\x05")
        seen = []
        for n_cpus in (1, 2):
            done = []
            with pytest.raises(ValueError) as info:
                for utt, _ in self.decode(monkeypatch, n_cpus, tmp_path, *case):
                    done.append(utt)
            seen.append((done, type(info.value), str(info.value)))
            assert live_children() == []
        assert seen[1] == seen[0]
        assert seen[0][0] == ["v0"]
        assert seen[0][2].startswith(f"{tmp_path / 'v1.em'}: emission vocab size 2 != ")

    def test_closed_early_leaves_no_process(self, monkeypatch, tmp_path):
        decoding = self.decode(monkeypatch, 2, tmp_path, *noisy_decode_case(tmp_path, "phoneme"))
        next(decoding)
        assert live_children()
        decoding.close()
        assert live_children() == []

    def test_child_dying_mid_share_yields_serial_results(self, monkeypatch, tmp_path):
        case = noisy_decode_case(tmp_path, "phoneme")
        serial = list(self.decode(monkeypatch, 1, tmp_path, *case))
        fail_in_child(monkeypatch, "v5", lambda: os._exit(1))   # after v1 and v3
        assert repr(list(self.decode(monkeypatch, 2, tmp_path, *case))) == repr(serial)
        assert live_children() == []

    def test_child_raising_system_exit_never_runs_callers_code(self, monkeypatch, tmp_path):
        case = noisy_decode_case(tmp_path, "phoneme")
        serial = list(self.decode(monkeypatch, 1, tmp_path, *case))
        fail_in_child(monkeypatch, "v3", lambda: sys.exit(3))
        caller, escaped = os.getpid(), tmp_path / "escaped"
        try:
            forked = list(self.decode(monkeypatch, 2, tmp_path, *case))
        finally:
            if os.getpid() != caller:   # a child unwound into this test: record it, stop it
                escaped.write_text(f"{os.getpid()}\n")
                os._exit(0)
        assert not escaped.exists()
        assert repr(forked) == repr(serial)
        assert live_children() == []

    @pytest.mark.parametrize("n_ids, n_cpus", [(10, 2), (15, 2), (16, 1)])
    def test_few_ids_or_one_cpu_start_no_process(self, monkeypatch, tmp_path, n_ids, n_cpus):
        decoding = self.decode(monkeypatch, n_cpus, tmp_path,
                               *noisy_decode_case(tmp_path, "phoneme", n_ids))
        next(decoding)
        assert live_children() == []
        decoding.close()

    def test_process_running_another_thread_starts_no_process(self, monkeypatch, tmp_path):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            decoding = self.decode(monkeypatch, 2, tmp_path,
                                   *noisy_decode_case(tmp_path, "phoneme"))
            next(decoding)
            assert live_children() == []
            decoding.close()
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_calls_in_turn_each_fork(self, monkeypatch, tmp_path):
        case = noisy_decode_case(tmp_path, "phoneme")
        for _ in range(2):
            decoding = self.decode(monkeypatch, 2, tmp_path, *case)
            next(decoding)
            assert len(live_children()) == 1
            assert len(list(decoding)) == 15
        assert threading.active_count() == 1

    def test_cli_decode_same_files_and_error_line(self, monkeypatch, capsys, tmp_path):
        ids, (ngram, _), models = noisy_decode_case(tmp_path, "phoneme")
        entries, vocab = toy_lexicon()
        write_lexicon(entries, tmp_path / "lex.tsv")
        write_vocab(vocab, tmp_path / "ph.txt")
        arpa_write(ngram, tmp_path / "lm.arpa")
        write_lines(tmp_path / "ids.txt", ids)

        def decode_cli(n_cpus, out):
            cpus(monkeypatch, n_cpus)
            code = main([str(a) for a in (
                "decode", "--mode", "phoneme", "--emissions", tmp_path, "--ids",
                tmp_path / "ids.txt", "--lexicon", tmp_path / "lex.tsv", "--vocab",
                tmp_path / "ph.txt", "--lm", tmp_path / "lm.arpa", "--beam", 8,
                "--output", out / "hyp.txt", "--nbest", out / "nbest.txt")])
            return code, capsys.readouterr().err, tree_digest(out)

        for n_cpus in (1, 2):
            (tmp_path / f"out{n_cpus}").mkdir()
        assert decode_cli(1, tmp_path / "out1") == decode_cli(2, tmp_path / "out2")
        (tmp_path / "v3.em").write_bytes(b"junk")
        (tmp_path / "v9.em").unlink()
        failed = decode_cli(1, tmp_path / "out1")
        assert failed == decode_cli(2, tmp_path / "out1")
        assert failed[:2] == (1, f"mienasr: decode: error: {tmp_path / 'v3.em'}:1: "
                                 "expected a 'T V' header line\n")

    def test_experiment_same_tree_and_error(self, monkeypatch, tmp_path):
        root = tmp_path / "toy"
        cfg = load_config(write_toy_experiment(root))
        utts = [(f"w{k}", TOY_UTTS[k % 5]) for k in range(48)]
        write_lines(cfg.corpus, [f"{w}\t{text}" for w, (_, text) in utts])
        for w, (utt, _) in utts:
            shutil.copy(root / "emissions" / f"{utt}.em", root / "emissions" / f"{w}.em")
        cfg.folds, cfg.runs = 3, 1   # 16 test ids
        trees = []
        for n_cpus in (1, 2):
            cpus(monkeypatch, n_cpus)
            cfg.output_dir = tmp_path / f"out{n_cpus}"
            run_experiment(cfg)
            trees.append(tree_digest(cfg.output_dir))
        assert trees[1] == trees[0]
        test = make_cv_plan([w for w, _ in utts], cfg.folds, cfg.runs, cfg.seed).test_ids(0)
        (root / "emissions" / f"{test[1]}.em").write_bytes(b"junk")
        (root / "emissions" / f"{test[9]}.em").write_bytes(b"EMISMAT1\x05")
        errors = []
        for n_cpus in (1, 2):
            cpus(monkeypatch, n_cpus)
            with pytest.raises(PipelineError) as info:
                run_experiment(cfg)
            errors.append((info.value.stage, str(info.value)))
        assert errors[1] == errors[0]
        assert errors[0] == ("decode", f"[decode] run 0: {root / 'emissions' / test[1]}.em:1: "
                                       "expected a 'T V' header line")


class TestCorpusReader:
    def test_requires_tabs(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("u1 no tab here\n")
        with pytest.raises(PipelineError, match="TAB"):
            read_corpus(p)

    def test_duplicate_id_named_at_path_and_line(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("u1\ta\nu2\tb\n\nu1\tc\n")
        with pytest.raises(PipelineError, match=re.escape(f"{p}:4: duplicate utterance id 'u1'")):
            read_corpus(p)

    @pytest.mark.parametrize("line", ["\tmienh dorn", "  \tmienh dorn"], ids=["tab", "spaces"])
    def test_empty_id_named_at_path_and_line(self, tmp_path, line):
        p = tmp_path / "c.tsv"
        p.write_text(f"u1\ta\n{line}\n")
        with pytest.raises(PipelineError, match=re.escape(f"{p}:2: empty utterance id")):
            read_corpus(p)

    def test_duplicate_corpus_id_is_a_corpus_error(self, tmp_path):
        cfg_path = write_toy_experiment(tmp_path / "toy")
        corpus = tmp_path / "toy" / "corpus.tsv"
        with corpus.open("a", encoding="utf-8") as f:
            f.write("u2\tdorn mienh maaih\n")
        with pytest.raises(PipelineError, match=re.escape(f"{corpus}:6: duplicate utterance id 'u2'")) as info:
            run_experiment(load_config(cfg_path))
        assert info.value.stage == "corpus"

    def test_lowercases(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("u1\tMienh  DORN\n")
        assert read_corpus(p) == [("u1", "mienh dorn")]


    def test_blank_lines_only_is_no_utterances(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text("\n  \n")
        with pytest.raises(PipelineError, match=re.escape(f"{p}: no utterances")):
            read_corpus(p)


class TestFixtureModes:
    @pytest.mark.parametrize("mode, digest", [
        ("phoneme", "1ae1576977f0f72c5b830834da90292bab193c0f5ba997508c1bb4b2ddb3d058"),
        ("subword", "01a503e2268fe6a28f5234760a9727c6be1d2d0dfaca8ae7317888dc3aac8897"),
    ])
    def test_toy_tree_bytes_are_pinned(self, tmp_path, mode, digest):
        """The corpus, emissions (peaked at 0.98) and config the fixture writes, byte for byte."""
        write_toy_experiment(tmp_path / "toy", mode=mode)
        files = sorted(tree_digest(tmp_path / "toy").items())
        assert hashlib.sha256(repr(files).encode()).hexdigest() == digest

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fixture mode 'grapheme'"):
            write_toy_experiment(tmp_path / "toy", mode="grapheme")


class TestReportText:
    """report.txt rows come from each run's rates table, in scores.txt's metric order."""

    def test_rows_and_averages(self):
        runs = [RunResult(0, {("WER", "with-lm"): 0.25, ("WER", "no-lm"): 0.5,
                              ("PER", "with-lm"): 0.125, ("PER", "no-lm"): 0.375}),
                RunResult(1, {("WER", "with-lm"): 0.75, ("WER", "no-lm"): 1.0,
                              ("PER", "with-lm"): 0.0, ("PER", "no-lm"): 0.5})]
        report = ExperimentReport("phoneme-ctc", runs)
        assert report.to_text() == (
            "model\tphoneme-ctc\nrun\tmetric\ttest-wo-lm\ttest-with-lm\n"
            "0\tWER\t0.5000\t0.2500\n0\tPER\t0.3750\t0.1250\n"
            "1\tWER\t1.0000\t0.7500\n1\tPER\t0.5000\t0.0000\n"
            "avg\tWER\t0.7500\t0.5000\navg\tPER\t0.4375\t0.0625\n")
        assert (report.rate("WER", "no-lm"), report.rate("WER", "with-lm")) == (0.75, 0.5)
        assert report.rate("PER", "no-lm") == 0.4375

    def test_wer_only_runs(self):
        report = ExperimentReport("subword-ctc", [RunResult(0, {("WER", "with-lm"): 0.5,
                                                                ("WER", "no-lm"): 0.25})])
        assert report.to_text().splitlines()[2:] == ["0\tWER\t0.2500\t0.5000",
                                                     "avg\tWER\t0.2500\t0.5000"]
