"""The three benchmark workloads: inputs, one timed pass, output checks.

Each workload generates its inputs from the seed once, then runs passes.
A pass writes every artifact under a fresh directory; ``check`` inspects
that directory and returns the number of checks made and the failures.
Package functions are reached through their module attributes at call
time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import mienasr.cli
import mienasr.experiment
from mienasr import ctc, evaluate, lexicon, lm, orthography, tokenizer, transfer

import gen

FOLDS = 10
BEAM = 32
LM_ORDER = 4

_SCORE_LINE = re.compile(
    r"^(WER|PER)\tS=(\d+)\tD=(\d+)\tI=(\d+)\tN=(\d+)\trate=(\d+\.\d{6})$")


class StageError(RuntimeError):
    """A stage of the program under test failed."""


def edit_errors(ref, hyp) -> int:
    """Levenshtein distance, written here so checks do not trust the package."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def pooled_rate(pairs) -> float:
    errors = sum(edit_errors(r, h) for r, h in pairs)
    return errors / max(1, sum(len(r) for r, _ in pairs))


def greedy_labels(logits: np.ndarray) -> list[int]:
    best = np.argmax(logits, axis=1)
    keep = np.ones(len(best), dtype=bool)
    keep[1:] = best[1:] != best[:-1]
    return [int(k) for k in best[keep] if k != 0]


def cli(argv) -> str:
    """Run one ``mienasr`` subcommand in-process; its stdout on success."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = mienasr.cli.main([str(a) for a in argv])
    if rc != 0:
        raise StageError(f"mienasr {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def read_tagged(path: Path) -> list[tuple[str, list[str]]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        utt, _, text = line.partition("\t")
        rows.append((utt, text.split()))
    return rows


def parse_score(text: str) -> tuple[int, int, float]:
    """(errors, reference length, rate) from ``mienasr score`` output."""
    m = _SCORE_LINE.match(text.strip())
    if m is None:
        raise ValueError(f"unparseable score output {text!r}")
    s, d, i, n = (int(g) for g in m.groups()[1:5])
    return s + d + i, n, float(m.group(6))


class Checks:
    def __init__(self):
        self.made = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.made += 1
        if not ok:
            self.failures.append(message)


class StagedPhoneme:
    """README stage-by-stage CLI path, phoneme mode, open vocabulary."""

    name = "staged-phoneme"
    UTTS, WORDS, LENGTHS, FRAMES, RUNS = 300, 1000, (1, 3), 48, 3

    def __init__(self, seed: int, work: Path, inv, table):
        rng = np.random.default_rng(seed)
        self.seed = seed
        words = gen.cover_first(gen.random_words(rng, inv, table, self.WORDS), table, inv)
        self.corpus = gen.zipf_corpus(rng, words, self.UTTS, self.LENGTHS)
        self.corpus_path = work / "corpus.tsv"
        gen.write_corpus(self.corpus_path, self.corpus.utts)
        self.em_dir = work / "emissions"
        self.em_dir.mkdir()
        info = gen.phoneme_setup(rng, inv, table, self.corpus, FOLDS, self.RUNS, seed,
                                 self.FRAMES, self.em_dir)
        self.props = info["props"]
        self.plan = info["plan"]
        self.items = sum(len(self.plan.test_ids(r)) for r in range(self.RUNS))
        labels = info["labels"]
        test = [u for r in range(self.RUNS) for u in self.plan.test_ids(r)]
        self.greedy_per = pooled_rate(
            [(labels[u], greedy_labels(ctc.read_emissions(self.em_dir / f"{u}.em").logits))
             for u in test])

    def run(self, out: Path) -> int:
        folds = out / "folds"
        cli(["split", "--ids", self.corpus_path, "--folds", FOLDS, "--runs", self.RUNS,
             "--seed", self.seed, "--output-dir", folds])
        ops = 1
        by_id = dict(self.corpus.utts)
        for r in range(self.RUNS):
            d = out / f"run{r}"
            d.mkdir()
            train = (folds / f"run{r}.train").read_text(encoding="utf-8").split()
            test = (folds / f"run{r}.test").read_text(encoding="utf-8").split()
            gen.write_corpus(d / "train.tsv", [(u, by_id[u]) for u in train])
            gen.write_corpus(d / "ref.txt", [(u, by_id[u]) for u in test])
            cli(["lexicon", "--corpus", d / "train.tsv", "--output", d / "lexicon.tsv"])
            cli(["vocab", "--lexicon", d / "lexicon.tsv", "--output", d / "phonemes.txt"])
            cli(["lm-train", "--corpus", d / "train.tsv", "--order", LM_ORDER,
                 "--output", d / "lm.arpa"])
            ops += 3
            for tag, lm_args in (("with_lm", ["--lm", d / "lm.arpa"]), ("without_lm", [])):
                cli(["decode", "--mode", "phoneme", "--emissions", self.em_dir,
                     "--ids", folds / f"run{r}.test", "--lexicon", d / "lexicon.tsv",
                     "--vocab", d / "phonemes.txt", *lm_args, "--beam", BEAM,
                     "--output", d / f"hyp_{tag}.txt"])
                score = cli(["score", "--metric", "wer", "--ref", d / "ref.txt",
                             "--hyp", d / f"hyp_{tag}.txt"])
                (d / f"score_{tag}.txt").write_text(score, encoding="utf-8")
                ops += 2
        return ops

    def check(self, out: Path) -> Checks:
        c = Checks()
        self.rates = {"with_lm": [], "without_lm": []}
        self.empty = 0
        for r in range(self.RUNS):
            d = out / f"run{r}"
            test = list(self.plan.test_ids(r))
            refs = dict(read_tagged(d / "ref.txt"))
            for tag, rates in self.rates.items():
                hyps = read_tagged(d / f"hyp_{tag}.txt")
                c.expect([u for u, _ in hyps] == test,
                         f"run {r} {tag}: hypothesis ids differ from the test fold")
                self.empty += sum(not h for _, h in hyps)
                try:
                    errors, n, rate = parse_score((d / f"score_{tag}.txt").read_text())
                except ValueError as e:
                    c.expect(False, f"run {r} {tag}: {e}")
                    continue
                pairs = [(refs[u], h) for u, h in hyps if u in refs]
                c.expect(errors == sum(edit_errors(a, b) for a, b in pairs)
                         and n == sum(len(a) for a, _ in pairs)
                         and abs(rate - errors / n) < 5e-7,
                         f"run {r} {tag}: score output disagrees with recomputed WER")
                rates.append(rate)
        return c

    def quality(self, out: Path) -> dict:
        ppl = []
        for r in range(self.RUNS):
            model = lm.arpa_read(out / f"run{r}" / "lm.arpa")
            ppl.append(lm.perplexity(model, self.corpus.texts(self.plan.test_ids(r))))
        return {"wer_with_lm": float(np.mean(self.rates["with_lm"])),
                "wer_no_lm": float(np.mean(self.rates["without_lm"])),
                "test_ppl": float(np.mean(ppl)), "greedy_per": self.greedy_per,
                "empty_hyps": self.empty}


class CvSubword:
    """``run_experiment`` in subword mode over flat emissions, one CV run."""

    name = "cv-subword"
    UTTS, WORDS, LENGTHS, FRAMES, BPE_SIZE = 100, 200, (2, 2), 12, 150

    def __init__(self, seed: int, work: Path, inv, table):
        rng = np.random.default_rng(seed)
        self.seed = seed
        words = gen.random_words(rng, inv, table, self.WORDS, max_syllables=2)
        self.corpus = gen.zipf_corpus(rng, words, self.UTTS, self.LENGTHS)
        self.corpus_path = work / "corpus.tsv"
        gen.write_corpus(self.corpus_path, self.corpus.utts)
        self.em_dir = work / "emissions"
        self.em_dir.mkdir()
        info = gen.subword_setup(rng, self.corpus, FOLDS, self.BPE_SIZE, seed, self.FRAMES,
                                 self.em_dir)
        self.props = info["props"]
        self.test = list(info["plan"].test_ids(0))
        self.items = len(self.test)
        self.ref_path = work / "ref.txt"
        gen.write_corpus(self.ref_path, list(zip(self.test, self.corpus.texts(self.test))))
        labels = info["labels"]
        self.greedy_ter = pooled_rate(
            [(labels[u], greedy_labels(ctc.read_emissions(self.em_dir / f"{u}.em").logits))
             for u in self.test])

    def run(self, out: Path) -> int:
        cfg = mienasr.experiment.PipelineConfig(
            corpus=self.corpus_path, emissions_dir=self.em_dir, output_dir=out,
            mode="subword", beam_size=BEAM, lm_order=LM_ORDER,
            bpe_vocab_size=self.BPE_SIZE, folds=FOLDS, runs=1, seed=self.seed, workers=1)
        mienasr.experiment.run_experiment(cfg)
        return 1

    def check(self, out: Path) -> Checks:
        c = Checks()
        self.report = {}
        for line in (out / "report.txt").read_text(encoding="utf-8").splitlines()[2:]:
            run, metric, wo, with_ = line.split("\t")
            self.report[(run, metric)] = (float(wo), float(with_))
        c.expect(set(self.report) == {("0", "WER"), ("avg", "WER")},
                 f"report.txt rows {sorted(self.report)}")
        wo, with_ = self.report.get(("0", "WER"), (None, None))
        for tag, reported in (("with_lm", with_), ("without_lm", wo)):
            hyp = out / "run0" / f"hyp_{tag}.txt"
            c.expect([u for u, _ in read_tagged(hyp)] == self.test,
                     f"{tag}: hypothesis ids differ from the test fold")
            _, _, rate = parse_score(cli(["score", "--metric", "wer", "--ref", self.ref_path,
                                          "--hyp", hyp]))
            c.expect(reported is not None and f"{rate:.4f}" == f"{reported:.4f}",
                     f"{tag}: mienasr score gives {rate:.4f}, report.txt {reported}")
        return c

    def quality(self, out: Path) -> dict:
        wo, with_ = self.report[("0", "WER")]
        model = lm.arpa_read(out / "run0" / "lm.arpa")
        return {"wer_with_lm": with_, "wer_no_lm": wo,
                "test_ppl": lm.perplexity(model, self.corpus.texts(self.test)),
                "greedy_ter": self.greedy_ter}


class Build:
    """Training and serialization layers, no beam search."""

    name = "build"
    TOKENS, WORDS, BAD_SHARE = 6000, 2000, 0.1
    SENTENCES, HELD_OUT, LENGTHS, BPE_SIZE = 400, 40, (3, 8), 300
    CTC_UTTS, CTC_WORDS, CTC_FRAMES, DIM = 24, (8, 12), 256, 128

    def __init__(self, seed: int, work: Path, inv, table):
        rng = np.random.default_rng(seed)
        self.inv, self.table = inv, table
        words = gen.cover_first(gen.random_words(rng, inv, table, self.WORDS), table, inv)
        bad = gen.unparseable_tokens(rng, inv, self.WORDS // 10)
        good = gen.zipf_corpus(rng, words, 1, (self.TOKENS, self.TOKENS)).utts[0][1].split()
        self.tokens = [bad[rng.integers(len(bad))] if rng.random() < self.BAD_SHARE else w
                       for w in good]
        self.bad = set(bad) & set(self.tokens)
        sents = [t for _, t in gen.zipf_corpus(rng, words, self.SENTENCES, self.LENGTHS).utts]
        self.train, self.held_out = sents[self.HELD_OUT:], sents[:self.HELD_OUT]
        self.sentences = sents
        self.items = len(sents)
        entries, _ = lexicon.build_lexicon(words, table, inv)
        self.vocab = lexicon.derive_phoneme_vocab(entries)
        pron = {e.word: e.pron for e in entries}
        self.ctc_refs, self.ctc_items = [], []
        for _, text in gen.zipf_corpus(rng, words, self.CTC_UTTS, self.CTC_WORDS).utts:
            phones = [p for w in text.split() for p in pron[w]]
            ids = [self.vocab.index(p) for p in phones]
            self.ctc_refs.append(phones)
            self.ctc_items.append((ctc.EmissionMatrix(
                gen.peaky_emissions(rng, ids, len(self.vocab), self.CTC_FRAMES)), ids))
        src_labels = sorted(set(self.vocab.tokens[1:]) - {
            t for t in self.vocab.tokens if rng.random() < 0.3})
        self.src = transfer.EmbeddingMatrix(
            rng.normal(0, 1, (len(src_labels) + 1, self.DIM)),
            (self.vocab.tokens[0],) + tuple(src_labels))
        self.props = {"tokens": len(self.tokens), "distinct_tokens": len(set(self.tokens)),
                      "unparseable_token_share": sum(t in self.bad for t in self.tokens)
                      / len(self.tokens),
                      "sentences": len(sents), "V": len(self.vocab),
                      "ctc_mean_frames": float(np.mean([e.frames for e, _ in self.ctc_items])),
                      "ctc_mean_labels": float(np.mean([len(i) for _, i in self.ctc_items]))}

    def run(self, out: Path) -> int:
        inv, table = self.inv, self.table
        parses, failures = orthography.report_coverage(self.tokens, inv)
        (out / "coverage.txt").write_text(
            "".join(f"{t}\t{e}\n" for t, e in failures), encoding="utf-8")
        entries, lex_failures = lexicon.build_lexicon(self.tokens, table, inv)
        lexicon.write_lexicon(entries, out / "lexicon.tsv")
        vocab = lexicon.derive_phoneme_vocab(entries)
        lexicon.write_vocab(vocab, out / "phonemes.txt")
        ops = 5

        bpe = tokenizer.bpe_train(self.sentences, self.BPE_SIZE)
        tokenizer.save_bpe(bpe, out / "bpe.model")
        encoded = [tokenizer.bpe_encode(s, bpe) for s in self.sentences]
        decoded = [tokenizer.bpe_decode(ids, bpe) for ids in encoded]
        (out / "bpe.txt").write_text("".join(
            f"{' '.join(map(str, ids))}\t{text}\n" for ids, text in zip(encoded, decoded)),
            encoding="utf-8")
        ops += 2 + 2 * len(self.sentences)

        model = lm.lm_train(self.train, order=LM_ORDER)
        lm.arpa_write(model, out / "lm.arpa")
        ppl = lm.perplexity(lm.arpa_read(out / "lm.arpa"), self.held_out)
        ops += 4

        lines = []
        for em, ids in self.ctc_items:
            loss, grad = ctc.ctc_loss(em, ids, with_grad=True)
            rows = grad.sum(axis=1)
            lines.append(f"{loss:.6f}\t{rows.min():.6f}\t{rows.max():.6f}")
        (out / "ctc.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        hyps = [[vocab.tokens[k] for k in ctc.greedy_decode(em)] for em, _ in self.ctc_items]
        reports = [evaluate.error_rate(ref, hyp) for ref, hyp in zip(self.ctc_refs, hyps)]
        per = evaluate.pool(reports).rate
        ops += 3 * len(self.ctc_items) + 1

        mat, rep = transfer.transfer_init(self.src, vocab, seed=0)
        transfer.write_matrix(mat, out / "init.mat")
        back = transfer.read_matrix(out / "init.mat")
        ops += 3
        (out / "summary.txt").write_text(
            f"ppl\t{ppl:.6f}\nper\t{per:.6f}\ncoverage\t{rep.coverage:.6f}\n"
            f"parses\t{len(parses)}\nlexicon\t{len(entries)}\t{len(lex_failures)}\n",
            encoding="utf-8")
        self.result = {"failures": {t for t, _ in failures},
                       "lex_failures": {t for t, _ in lex_failures},
                       "decoded": decoded, "model": model, "ppl": ppl, "per": per,
                       "mat": mat, "back": back, "vocab": vocab}
        return ops

    def check(self, out: Path) -> Checks:
        c, res = Checks(), self.result
        c.expect(res["failures"] == self.bad, "report_coverage failures are not the "
                 "generated unparseable tokens")
        c.expect(res["lex_failures"] == self.bad, "build_lexicon failures are not the "
                 "generated unparseable tokens")
        c.expect(res["vocab"].tokens == self.vocab.tokens, "phoneme vocabulary changed")
        c.expect(res["decoded"] == [" ".join(s.split()) for s in self.sentences],
                 "bpe_decode(bpe_encode(s)) != s")
        c.expect(abs(lm.perplexity(res["model"], self.held_out) / res["ppl"] - 1) < 1e-4,
                 "ARPA round trip changed the held-out perplexity")
        sums = [line.split("\t") for line in
                (out / "ctc.txt").read_text(encoding="utf-8").splitlines()]
        c.expect(all(np.isfinite(float(l)) and abs(float(lo) + 1) < 1e-5
                     and abs(float(hi) + 1) < 1e-5 for l, lo, hi in sums),
                 "CTC loss not finite or gradient rows do not sum to -1")
        c.expect(np.array_equal(res["mat"].rows, res["back"].rows)
                 and res["mat"].row_labels == res["back"].row_labels,
                 "write_matrix/read_matrix round trip is not exact")
        return c

    def quality(self, out: Path) -> dict:
        return {"test_ppl": self.result["ppl"], "greedy_per": self.result["per"]}


WORKLOADS = {w.name: w for w in (StagedPhoneme, CvSubword, Build)}
