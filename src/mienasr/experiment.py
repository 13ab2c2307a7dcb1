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
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Optional, get_type_hints

from . import lm as lm_mod
from .ctc import read_emissions
from .decoder import DecodeConfig, build_prefix_tree, decode, spell_lm_words
from .evaluate import aggregate, error_rate, make_cv_plan, pool
from .inputs import located, read_utf8, write_lines
from .lexicon import (build_lexicon, derive_phoneme_vocab, g2p, load_g2p_table,
                      write_lexicon, write_vocab)
from .orthography import load_inventory
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
    workers: int = 1   # only 1; does not set the decode processes (decode_utterances)

    def validate(self) -> DecodeConfig:
        """Check the settings and input paths; return the decoder settings."""
        if self.mode not in ("phoneme", "subword"):
            raise PipelineError("config", f"unknown mode {self.mode!r}")
        if self.workers != 1:
            raise PipelineError("config", f"workers must be 1, got {self.workers}")
        with _stage("config"):
            decode_cfg = DecodeConfig(beam_size=self.beam_size, lm_weight=self.lm_weight,
                                      word_insertion_penalty=self.word_insertion_penalty)
        for name in ("corpus", "emissions_dir", "inventory", "g2p_table"):
            p = getattr(self, name)
            if p is not None and not Path(p).exists():
                raise PipelineError("config", f"{name} path does not exist: {p}")
        return decode_cfg


def load_config(path) -> PipelineConfig:
    """Read an [experiment] INI section; relative paths resolve against it.

    The keys are ``PipelineConfig``'s fields, each converted by its type and
    required if it has no default; a ``Path`` value must not be empty.
    """
    path = Path(path)
    types = get_type_hints(PipelineConfig)
    with located(path, partial(PipelineError, "config")):
        parser = configparser.ConfigParser()
        try:
            parser.read_string(read_utf8(path), source=str(path))
            if "experiment" not in parser:
                raise ValueError("missing [experiment] section")
            items = list(parser["experiment"].items())
        except (OSError, configparser.Error) as e:
            raise ValueError(e) from None
        kwargs = {}
        for key, value in items:
            if key not in types:
                raise ValueError(f"unknown key {key!r}")
            with located(f"key {key!r}"):
                if types[key] in (Path, Optional[Path]):
                    if not value:
                        raise ValueError("empty path")
                    kwargs[key] = path.parent / value   # an absolute value replaces the base
                else:
                    kwargs[key] = types[key](value)
        missing = {f.name for f in fields(PipelineConfig)
                   if f.default is MISSING and f.default_factory is MISSING} - set(kwargs)
        if missing:
            raise ValueError(f"missing required keys {sorted(missing)}")
    return PipelineConfig(**kwargs)


@dataclass
class RunResult:
    run: int
    rates: dict[tuple[str, str], float]   # (metric, "no-lm" or "with-lm") -> rate, as in scores.txt


@dataclass
class ExperimentReport:
    model_id: str
    runs: list[RunResult] = field(default_factory=list)

    def rate(self, metric: str, lm: str) -> float:
        """One rate averaged over the runs."""
        return aggregate([r.rates[metric, lm] for r in self.runs])

    def to_text(self) -> str:
        metrics = dict.fromkeys(m for r in self.runs for m, _ in r.rates)   # WER, then PER
        rows = [(r.run, m, r.rates[m, "no-lm"], r.rates[m, "with-lm"])
                for r in self.runs for m in metrics]
        rows += [("avg", m, self.rate(m, "no-lm"), self.rate(m, "with-lm")) for m in metrics]
        lines = [f"model\t{self.model_id}", "run\tmetric\ttest-wo-lm\ttest-with-lm"]
        lines += [f"{run}\t{m}\t{no_lm:.4f}\t{with_lm:.4f}" for run, m, no_lm, with_lm in rows]
        return "\n".join(lines) + "\n"


def normalize_text(text: str) -> str:
    """Transcripts are compared lowercased, with single spaces between words."""
    return " ".join(text.lower().split())


def read_tagged(path) -> list[tuple[str, str]]:
    """Non-blank "utt-id TAB text" lines with distinct, non-empty ids; text is kept verbatim."""
    utts, seen = [], set()
    with located(path, partial(PipelineError, "corpus")) as at:
        for at.line, line in enumerate(read_utf8(path).splitlines(), 1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError("expected 'utt-id TAB text'")
            utt, text = line.split("\t", 1)
            utt = utt.strip()
            if not utt:
                raise ValueError("empty utterance id")
            if utt in seen:
                raise ValueError(f"duplicate utterance id {utt!r}")
            seen.add(utt)
            utts.append((utt, text))
        at.line = None
        if not utts:
            raise ValueError("no utterances")
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


def _decode_one(utt, emissions_dir, cfg, lms, lex, bpe):
    path = emission_path(emissions_dir, utt)
    em = read_emissions(path)
    with located(path):
        return [decode(em, cfg, lex=lex, bpe=bpe, lm=lm) for lm in lms]


def _decode_processes(n_ids: int) -> int:
    """Processes that decode a call of ``n_ids`` ids, this one included: one
    per CPU this process may run on, but no fewer than 8 ids each.  1 means
    in-process, as it is where ``fork`` or CPU affinity is missing, and in a
    process that runs other threads: a forked child could find a lock of
    theirs held forever."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_ids // 8))


def _fork_share(decode_one, share):
    """Fork a child that decodes the ids of ``share`` in order, writing each
    id's pickled n-best lists to a pipe, flushed per id.  It stops at the
    first id whose decode raises, so the pipe's end is its failure marker.
    Returns the child's pid and the pipe's reading end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # every way out of the child is os._exit: an exception that unwound
        # into the caller's stack would go on running the caller's code
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C is the caller's to handle
            os.close(r)
            with open(w, "wb") as out:
                for utt in share:
                    pickle.dump(decode_one(utt), out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pipe):
    """The next n-best lists a child wrote to ``pipe``, or None once it stopped:
    it failed, or it died mid-share."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):   # the end, or a cut-off last record
        return None


def decode_utterances(emissions_dir, ids, cfg: DecodeConfig, lms, *, lex=None, bpe=None):
    """Yield ``(utt, n-best lists)`` for each id in order, one list per LM in
    ``lms`` (None for no LM); a width mismatch is the emission file's fault.

    With ``n = _decode_processes(len(ids))`` above 1, this process decodes
    ``ids[0::n]`` and n-1 forked children decode ``ids[1::n]`` ...
    ``ids[n-1::n]``; they inherit the models copy-on-write and send back
    only n-best lists.  The results and any error are serial decoding's: an
    id whose child failed or died is decoded again in this process, which
    raises its error.  No process outlives the call, even when the caller
    stops early.
    """
    decode_one = partial(_decode_one, emissions_dir=emissions_dir, cfg=cfg, lms=lms,
                         lex=lex, bpe=bpe)
    ids = list(ids)
    n = _decode_processes(len(ids))
    children = []   # (pid, pipe) of the child that decodes ids[k::n], k = 1..n-1
    try:
        for k in range(1, n):
            children.append(_fork_share(decode_one, ids[k::n]))
        for i, utt in enumerate(ids):
            nbests = _receive(children[i % n - 1][1]) if i % n else None
            yield utt, decode_one(utt) if nbests is None else nbests
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def run_experiment(cfg: PipelineConfig) -> ExperimentReport:
    """Execute the whole chain per cross-validation run, writing artifacts.

    Fails only with a PipelineError naming the stage; each step runs, with
    the artifacts it writes, inside one stage.  Partial outputs written so
    far are preserved in ``output_dir``.
    """
    decode_cfg = cfg.validate()
    with _stage("corpus"):
        utts = read_corpus(cfg.corpus)
    texts = dict(utts)
    with _stage("config"):
        missing = [u for u, _ in utts if not emission_path(cfg.emissions_dir, u).exists()]
        if missing:
            raise ValueError(f"missing emission files for: {missing[:5]}"
                             + ("..." if len(missing) > 5 else ""))
        inv, table = load_inventory(cfg.inventory), load_g2p_table(cfg.g2p_table)
    with _stage("split"):
        plan = make_cv_plan([u for u, _ in utts], cfg.folds, cfg.runs, cfg.seed)

    out_root = Path(cfg.output_dir)
    with _stage("config", "output_dir: "):
        out_root.mkdir(parents=True, exist_ok=True)

    report = ExperimentReport(model_id=f"{cfg.mode}-ctc")
    for r in range(cfg.runs):
        report.runs.append(
            _run_one(cfg, decode_cfg, r, plan, texts, inv, table, out_root / f"run{r}"))
    with _stage("score"):
        (out_root / "report.txt").write_text(report.to_text(), encoding="utf-8")
    return report


def _run_one(cfg, decode_cfg, r, plan, texts, inv, table, out_dir: Path) -> RunResult:
    run = f"run {r}: "
    with _stage("split", run):
        out_dir.mkdir(exist_ok=True)
        train_ids, test_ids = plan.train_ids(r), plan.test_ids(r)
        write_lines(out_dir / "manifest.train", train_ids)
        write_lines(out_dir / "manifest.dev", plan.dev_ids(r))
        write_lines(out_dir / "manifest.test", test_ids)

    train_texts = [texts[u] for u in train_ids]
    lex_tree = bpe = None
    units = {"WER": list}   # metric -> the units a word sequence is scored in
    if cfg.mode == "phoneme":
        with _stage("lexicon", run):
            entries, failures = build_lexicon([w for t in train_texts for w in t.split()],
                                              table, inv)
            if not entries:
                raise ValueError("no translatable training words")
            write_lexicon(entries, out_dir / "lexicon.tsv")
            (out_dir / "lexicon.failures").write_text(
                "\n".join(f"{w}\t{e}" for w, e in failures) + ("\n" if failures else ""),
                encoding="utf-8")
            vocab = derive_phoneme_vocab(entries)
            write_vocab(vocab, out_dir / "phonemes.txt")
            lex_tree = build_prefix_tree(entries, vocab)
        pron_of = {e.word: e.pron for e in entries}
        units["PER"] = lambda words: [   # g2p converts a reference word outside the lexicon
            p for w in words for p in (pron_of[w] if w in pron_of else g2p(w, table, inv).pron)]
    else:
        with _stage("bpe", run):
            bpe = bpe_train(train_texts, cfg.bpe_vocab_size)
            save_bpe(bpe, out_dir / "bpe.model")

    with _stage("lm", run):
        ngram = lm_mod.lm_train(train_texts, order=cfg.lm_order, smoothing=cfg.lm_smoothing)
        lm_mod.arpa_write(ngram, out_dir / "lm.arpa")
        if bpe is not None:   # the LM's words are the training words, which the BPE model spells
            lex_tree = spell_lm_words(bpe, ngram)

    with _stage("decode", run):
        decoded = [(utt, [best_words(hyps) for hyps in nbests]) for utt, nbests in
                   decode_utterances(cfg.emissions_dir, test_ids, decode_cfg, (ngram, None),
                                     lex=lex_tree, bpe=bpe)]
        for k, name in enumerate(("hyp_with_lm.txt", "hyp_without_lm.txt")):
            write_lines(out_dir / name, [tagged_line(utt, words[k]) for utt, words in decoded])

    with _stage("score", run):
        rates = {}
        for metric, unit in units.items():
            reports = ([], [])   # with the LM, without it: the decode order above
            for utt, hyps in decoded:
                with located(f"utterance {utt}"):
                    ref = unit(texts[utt].split())
                    for report, words in zip(reports, hyps):
                        report.append(error_rate(ref, unit(words)))
            rates[metric, "with-lm"], rates[metric, "no-lm"] = (pool(rep).rate for rep in reports)
        write_lines(out_dir / "scores.txt", [f"{metric}\t{lm}\t{rates[metric, lm]:.6f}"
                                             for metric in units for lm in ("no-lm", "with-lm")])
    return RunResult(run=r, rates=rates)
