"""End-to-end experiment driver: split, lexicon/BPE, LM, decode, score.

A declarative INI config names the corpus, the emissions directory and the
pipeline parameters; the driver then executes the full recognition chain for
each cross-validation run and writes every intermediate artifact (fold
manifests, lexicon, ARPA model, hypothesis files, per-run scores) plus a
final report laying out with/without-LM rates per run and averaged, so any
stage can be re-run from its persisted inputs.  All randomness flows from
the single top-level seed and every artifact is written deterministically,
making reruns byte-identical.
"""

from __future__ import annotations

import configparser
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import lm as lm_mod
from .ctc import read_emissions
from .decoder import DecodeConfig, PrefixTree, build_prefix_tree, decode
from .evaluate import aggregate, error_rate, make_cv_plan, pool
from .lexicon import (LexiconEntry, build_lexicon, default_g2p_table,
                      derive_phoneme_vocab, g2p, load_g2p_table, write_lexicon,
                      write_vocab)
from .orthography import default_inventory, load_inventory
from .tokenizer import bpe_train, save_bpe


class PipelineError(RuntimeError):
    """Configuration or stage failure with stage attribution."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(stage: str, context: str = ""):
    """Report a ValueError or OSError raised inside as a PipelineError."""
    try:
        yield
    except (ValueError, OSError) as e:
        raise PipelineError(stage, f"{context}{e}") from e


@dataclass
class PipelineConfig:
    corpus: Path
    emissions_dir: Path
    output_dir: Path
    mode: str = "phoneme"
    inventory: Optional[Path] = None     # None = packaged default
    g2p_table: Optional[Path] = None
    beam_size: int = 32
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0
    lm_order: int = 4
    lm_smoothing: str = "kneser_ney"
    bpe_vocab_size: int = 500
    folds: int = 10
    runs: int = 3
    seed: int = 0
    workers: int = 1

    def validate(self) -> DecodeConfig:
        """Check the settings and input paths; return the decoder settings."""
        with _stage("config"):
            decode_cfg = DecodeConfig(beam_size=self.beam_size, lm_weight=self.lm_weight,
                                      word_insertion_penalty=self.word_insertion_penalty,
                                      mode=self.mode)
        for name in ("corpus", "emissions_dir", "inventory", "g2p_table"):
            p = getattr(self, name)
            if p is not None and not Path(p).exists():
                raise PipelineError("config", f"{name} path does not exist: {p}")
        return decode_cfg


_CONFIG_KEYS = {
    "corpus": Path, "emissions_dir": Path, "output_dir": Path, "mode": str,
    "inventory": Path, "g2p_table": Path, "beam_size": int, "lm_weight": float,
    "word_insertion_penalty": float, "lm_order": int, "lm_smoothing": str,
    "bpe_vocab_size": int, "folds": int, "runs": int, "seed": int, "workers": int,
}


def load_config(path) -> PipelineConfig:
    """Read an [experiment] INI section; relative paths resolve against it."""
    path = Path(path)
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read or "experiment" not in parser:
        raise PipelineError("config", f"{path}: missing [experiment] section")
    section = parser["experiment"]
    kwargs = {}
    for key, value in section.items():
        if key not in _CONFIG_KEYS:
            raise PipelineError("config", f"{path}: unknown key {key!r}")
        conv = _CONFIG_KEYS[key]
        if conv is Path:
            p = Path(value)
            kwargs[key] = p if p.is_absolute() else (path.parent / p)
        else:
            with _stage("config", f"{path}: key {key!r}: "):
                kwargs[key] = conv(value)
    missing = {"corpus", "emissions_dir", "output_dir"} - set(kwargs)
    if missing:
        raise PipelineError("config", f"{path}: missing required keys {sorted(missing)}")
    return PipelineConfig(**kwargs)


@dataclass
class RunResult:
    run: int
    wer_no_lm: float
    wer_with_lm: float
    per_no_lm: Optional[float] = None
    per_with_lm: Optional[float] = None


@dataclass
class ExperimentReport:
    model_id: str
    runs: list[RunResult] = field(default_factory=list)

    @property
    def wer_no_lm(self) -> float:
        return aggregate([r.wer_no_lm for r in self.runs])

    @property
    def wer_with_lm(self) -> float:
        return aggregate([r.wer_with_lm for r in self.runs])

    def to_text(self) -> str:
        lines = [f"model\t{self.model_id}",
                 "run\tmetric\ttest-wo-lm\ttest-with-lm"]
        for r in self.runs:
            lines.append(f"{r.run}\tWER\t{r.wer_no_lm:.4f}\t{r.wer_with_lm:.4f}")
            if r.per_no_lm is not None:
                lines.append(f"{r.run}\tPER\t{r.per_no_lm:.4f}\t{r.per_with_lm:.4f}")
        lines.append(f"avg\tWER\t{self.wer_no_lm:.4f}\t{self.wer_with_lm:.4f}")
        pers = [r.per_no_lm for r in self.runs]
        if all(p is not None for p in pers):
            lines.append(
                f"avg\tPER\t{aggregate(pers):.4f}"
                f"\t{aggregate([r.per_with_lm for r in self.runs]):.4f}"
            )
        return "\n".join(lines) + "\n"


def normalize_text(text: str) -> str:
    """Transcripts are compared lowercased, with single spaces between words."""
    return " ".join(text.lower().split())


def read_tagged(path) -> list[tuple[str, str]]:
    """Non-blank "utt-id TAB text" lines; text is kept verbatim."""
    utts = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise PipelineError("corpus", f"{path}:{lineno}: expected 'utt-id TAB text'")
        utt, text = line.split("\t", 1)
        utts.append((utt.strip(), text))
    if not utts:
        raise PipelineError("corpus", f"{path}: no utterances")
    return utts


def read_corpus(path) -> list[tuple[str, str]]:
    """``read_tagged`` with each transcript normalized by ``normalize_text``."""
    return [(utt, normalize_text(text)) for utt, text in read_tagged(path)]


def emission_path(emissions_dir, utt: str) -> Path:
    """Where the emission matrix of utterance ``utt`` lives."""
    return Path(emissions_dir) / f"{utt}.em"


def best_words(hyps) -> tuple[str, ...]:
    """Top hypothesis words; an empty decode is the empty word sequence."""
    return hyps[0].words if hyps else ()


def tagged_line(utt: str, words) -> str:
    """An "utt-id TAB words" line, as in corpus, reference and hypothesis files."""
    return f"{utt}\t{' '.join(words)}"


def write_lines(path, lines) -> None:
    """Write id manifests, hypothesis files and scores: one item per line."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(cfg: PipelineConfig) -> ExperimentReport:
    """Execute the whole chain per cross-validation run, writing artifacts.

    Any stage failure raises PipelineError with the stage name; partial
    outputs written so far are preserved in ``output_dir``.
    """
    decode_cfg = cfg.validate()
    with _stage("corpus"):
        utts = read_corpus(cfg.corpus)
    texts = dict(utts)
    missing = [u for u, _ in utts if not emission_path(cfg.emissions_dir, u).exists()]
    if missing:
        raise PipelineError("config", f"missing emission files for: {missing[:5]}"
                            + ("..." if len(missing) > 5 else ""))

    with _stage("config"):
        inv = load_inventory(cfg.inventory) if cfg.inventory else default_inventory()
        table = load_g2p_table(cfg.g2p_table) if cfg.g2p_table else default_g2p_table()
    with _stage("split"):
        plan = make_cv_plan([u for u, _ in utts], cfg.folds, cfg.runs, cfg.seed)

    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)

    model_id = f"{cfg.mode}-ctc"
    report = ExperimentReport(model_id=model_id)
    for r in range(cfg.runs):
        report.runs.append(
            _run_one(cfg, decode_cfg, r, plan, texts, inv, table, out_root / f"run{r}")
        )
    (out_root / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return report


def _run_one(cfg, decode_cfg, r, plan, texts, inv, table, out_dir: Path) -> RunResult:
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ids = plan.train_ids(r)
    dev_ids = plan.dev_ids(r)
    test_ids = plan.test_ids(r)
    write_lines(out_dir / "manifest.train", train_ids)
    write_lines(out_dir / "manifest.dev", dev_ids)
    write_lines(out_dir / "manifest.test", test_ids)

    train_texts = [texts[u] for u in train_ids]

    lex_tree: Optional[PrefixTree] = None
    bpe = None
    entries: list[LexiconEntry] = []
    if cfg.mode == "phoneme":
        words = [w for t in train_texts for w in t.split()]
        entries, failures = build_lexicon(words, table, inv)
        if not entries:
            raise PipelineError("lexicon", f"run {r}: no translatable training words")
        write_lexicon(entries, out_dir / "lexicon.tsv")
        (out_dir / "lexicon.failures").write_text(
            "\n".join(f"{w}\t{e}" for w, e in failures) + ("\n" if failures else ""),
            encoding="utf-8")
        vocab = derive_phoneme_vocab(entries)
        write_vocab(vocab, out_dir / "phonemes.txt")
        lex_tree = build_prefix_tree(entries, vocab)
    else:
        with _stage("bpe", f"run {r}: "):
            bpe = bpe_train(train_texts, cfg.bpe_vocab_size)
        save_bpe(bpe, out_dir / "bpe.model")

    with _stage("lm", f"run {r}: "):
        ngram = lm_mod.lm_train(train_texts, order=cfg.lm_order, smoothing=cfg.lm_smoothing)
    lm_mod.arpa_write(ngram, out_dir / "lm.arpa")

    def decode_one(utt):
        em = read_emissions(emission_path(cfg.emissions_dir, utt))
        with_lm = decode(em, decode_cfg, lex=lex_tree, bpe=bpe, lm=ngram)
        without = decode(em, decode_cfg, lex=lex_tree, bpe=bpe, lm=None)
        return utt, best_words(with_lm), best_words(without)

    with _stage("decode", f"run {r}: "):
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
                decoded = list(ex.map(decode_one, test_ids))
        else:
            decoded = [decode_one(u) for u in test_ids]

    pron_of: dict[str, tuple[str, ...]] = {e.word: e.pron for e in entries}

    def phones(words_seq) -> list[str]:
        out = []
        for w in words_seq:
            pron = pron_of.get(w)
            if pron is None:
                pron = g2p(w, table, inv).pron
            out.extend(pron)
        return out

    wer_with, wer_wo, per_with, per_wo = [], [], [], []
    for utt, w_with, w_wo in decoded:
        ref_words = texts[utt].split()
        wer_with.append(error_rate(ref_words, list(w_with)))
        wer_wo.append(error_rate(ref_words, list(w_wo)))
        if cfg.mode == "phoneme":
            ref_phones = phones(ref_words)
            per_with.append(error_rate(ref_phones, phones(w_with)))
            per_wo.append(error_rate(ref_phones, phones(w_wo)))
    write_lines(out_dir / "hyp_with_lm.txt", [tagged_line(u, w) for u, w, _ in decoded])
    write_lines(out_dir / "hyp_without_lm.txt", [tagged_line(u, w) for u, _, w in decoded])

    result = RunResult(
        run=r,
        wer_no_lm=pool(wer_wo).rate,
        wer_with_lm=pool(wer_with).rate,
        per_no_lm=pool(per_wo).rate if per_wo else None,
        per_with_lm=pool(per_with).rate if per_with else None,
    )
    scores = [f"WER\tno-lm\t{result.wer_no_lm:.6f}", f"WER\twith-lm\t{result.wer_with_lm:.6f}"]
    if result.per_no_lm is not None:
        scores += [f"PER\tno-lm\t{result.per_no_lm:.6f}",
                   f"PER\twith-lm\t{result.per_with_lm:.6f}"]
    write_lines(out_dir / "scores.txt", scores)
    return result
