#!/usr/bin/env python3
"""Committed mutants: each small fault planted in ``src/`` must fail its named tests.

    python3 tools/mutants.py

A mutant is a file under ``src/mienasr``, an exact snippet that must occur
there once, its replacement and the test ids expected to fail.  For each
mutant the runner copies ``src/`` to a temporary directory, applies the
mutant to the copy and runs the named tests against it with pytest (the
copy replaces the checkout's ``src`` on pytest's ``pythonpath``).  First the
union of all named tests runs once against an unmutated copy: a test that
fails there would count every mutant as killed, so the run stops.

One line per mutant reports it:
- killed: a named test failed;
- survived: every named test passed, so no test guards that code any more;
  a survivor needs a new test, not an edit to an existing one;
- stale: the snippet is not in the file exactly once, or pytest found no
  test under a named id; update or drop the mutant.

The exit code is 0 when every mutant is killed, else 1.  The checkout's
``src/`` is never changed, and one pytest process runs at a time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # relative to src/mienasr
    snippet: str
    replacement: str
    tests: tuple[str, ...]    # pytest ids relative to the checkout


MUTANTS = (
    # -- decoder search --------------------------------------------------------
    Mutant("cut-sorted-on-score-and-key", "decoder.py",
           "        scored.sort()\n",
           "        scored.sort(key=lambda s: (s[0], s[3]))\n",
           ("tests/test_decoder.py::TestBeamFloor::test_ties_break_on_words_not_on_first_seen_order",)),
    Mutant("pooling-shortcut-keeps-minus-inf", "decoder.py",
           "                # log-adding into -inf gives the other term back (masses are never -0.0)\n"
           "                entry[1] = mass if entry[1] == NEG_INF else _lae(entry[1], mass)\n",
           "                # log-adding into -inf gives the other term back (masses are never -0.0)\n"
           "                entry[1] = NEG_INF if entry[1] == NEG_INF else _lae(entry[1], mass)\n",
           ("tests/test_decoder.py::TestMatchesReference::test_same_nbest_bit_for_bit",
            "tests/test_decoder.py::TestGoldenNBest")),
    Mutant("floor-padded-with-best-bound", "decoder.py",
           "        best = [NEG_INF] * (beam_size - len(floor)) + sorted(floor)\n",
           "        best = [max(floor)] * (beam_size - len(floor)) + sorted(floor)\n",
           ("tests/test_decoder.py::TestLexiconSized",)),
    Mutant("eos-before-the-last-word", "decoder.py",
           "        lm10 = (records[words][1] if words in records\n"
           "                else records[words[:-1]][1] + _lm10(lm, (BOS,) + words[:-1], words[-1]))\n"
           "        score_lm = LN10 * (lm10 + _lm10(lm, (BOS,) + words, EOS))\n",
           "        eos = _lm10(lm, (BOS,) + words, EOS)\n"
           "        lm10 = (records[words][1] + eos if words in records else records[words[:-1]][1]\n"
           "                + eos + _lm10(lm, (BOS,) + words[:-1], words[-1]))\n"
           "        score_lm = LN10 * lm10\n",
           ("tests/test_decoder.py::TestFinalLmSum",)),
    Mutant("insertion-bound-only-nan-checked", "decoder.py",
           "    if not -math.inf < wip * frames < math.inf:\n",
           "    if wip * frames != wip * frames:\n",
           ("tests/test_decoder.py::TestInsertionTermOverflow",)),
    Mutant("floor-walk-stops-at-a-tie", "decoder.py",
           "                    if score < best[0]:\n"
           "                        if k == last:",
           "                    if score <= best[0]:\n"
           "                        if k == last:",
           ("tests/test_decoder.py::TestBeamFloor::test_ties_break_on_words_not_on_first_seen_order",
            "tests/test_decoder.py::TestBeamFloor::test_narrow_beams_match_reference")),
    Mutant("floor-walk-ends-at-low-repeat-token", "decoder.py",
           "                        if k == last:   # scored from pb; later children may score higher\n"
           "                            continue\n"
           "                        break\n",
           "                        break\n",
           ("tests/test_decoder.py::TestGoldenNBest::test_nbest_matches_recorded",
            "tests/test_decoder.py::TestBeamFloor::test_narrow_beams_match_reference")),
    Mutant("arcs-into-states-dropped-below-floor", "decoder.py",
           "                entry = beam.get(new_key)\n"
           "                if entry is not None:   # a state pools every arc into it\n",
           "                if mass + lm_term + wip_term < best[0]:\n"
           "                    continue\n"
           "                entry = beam.get(new_key)\n"
           "                if entry is not None:   # a state pools every arc into it\n",
           ("tests/test_decoder.py::TestBeamFloor::test_two_pronunciations_reenter_together",
            "tests/test_decoder.py::TestBeamFloor::test_narrow_beams_match_reference")),
    Mutant("reentries-into-held-states-walked", "decoder.py",
           "                held = roots if new_base in shared else into.get(new_base, ())\n",
           "                held = roots if new_base in shared else ()\n",
           ("tests/test_decoder.py::TestGoldenNBest::test_nbest_matches_recorded",
            "tests/test_decoder.py::TestBeamFloor::test_narrow_beams_match_reference")),
    Mutant("shared-reentries-walked-best-first", "decoder.py",
           "                held = roots if new_base in shared else into.get(new_base, ())\n",
           "                held = into.get(new_base, ())\n",
           ("tests/test_decoder.py::TestBeamFloor::test_two_pronunciations_reenter_together",
            "tests/test_decoder.py::TestBeamFloor::test_narrow_beams_match_reference")),
    # -- orthography, scoring, CTC ---------------------------------------------
    Mutant("syllable-length-without-tone-letter", "orthography.py",
           "                           + max(map(len, self.finals), default=0) + 1)\n",
           "                           + max(map(len, self.finals), default=0))\n",
           ("tests/test_orthography.py::TestIterativeParse",)),
    Mutant("myers-boundary-bit-dropped", "evaluate.py",
           "        hp = (hp << 1) | 1                # row 0 rises by one per column\n",
           "        hp = hp << 1\n",
           ("tests/test_evaluate.py::TestMatchesReference",)),
    Mutant("myers-vp-unmasked", "evaluate.py",
           "        vp = ((hn << 1) | ~(hp | d0)) & full\n",
           "        vp = (hn << 1) | ~(hp | d0)\n",
           ("tests/test_evaluate.py::TestMatchesReference",)),
    Mutant("myers-match-dropped-from-d0", "evaluate.py",
           "        d0 = ((vp + (x & vp)) ^ vp) | x   # where D[i][j] = D[i-1][j-1]\n",
           "        d0 = (vp + (x & vp)) ^ vp\n",
           ("tests/test_acceptance.py::test_error_rate_oracle",)),
    Mutant("insertion-before-substitution", "evaluate.py",
           "        if d == diag + cost:\n"
           "            subs += cost\n"
           "            i, j, d = i - 1, j - 1, diag\n"
           "        elif d == left + 1:\n"
           "            ins += 1\n"
           "            j, d = j - 1, left\n",
           "        if d == left + 1:\n"
           "            ins += 1\n"
           "            j, d = j - 1, left\n"
           "        elif d == diag + cost:\n"
           "            subs += cost\n"
           "            i, j, d = i - 1, j - 1, diag\n",
           ("tests/test_evaluate.py::TestMatchesReference",)),
    Mutant("row-reduction-reversed", "ctc.py",
           "    return np.logaddexp.reduce(np.ascontiguousarray(a.T), axis=0)\n",
           "    return np.logaddexp.reduce(np.ascontiguousarray(a.T[::-1]), axis=0)\n",
           ("tests/test_ctc.py::TestRowReductionMatchesAxis1",)),
    Mutant("forward-nests-prev-and-skip", "ctc.py",
           "        np.logaddexp(last[2:], last[1:-1], out=row)\n"
           "        np.logaddexp(row, last[:-2], out=row, where=skip_ok)\n",
           "        skip = np.where(skip_ok, last[:-2], NEG_INF)\n"
           "        np.logaddexp(last[2:], np.logaddexp(last[1:-1], skip), out=row)\n",
           ("tests/test_ctc.py::TestMatchesReference",)),
    Mutant("forward-skip-mask-dropped", "ctc.py",
           "        np.logaddexp(row, last[:-2], out=row, where=skip_ok)\n",
           "        np.logaddexp(row, last[:-2], out=row)\n",
           ("tests/test_ctc.py::TestMatchesReference",)),
    Mutant("gradient-folded-in-descending-s", "ctc.py",
           "    for k, occ in zip(ext.tolist(), occupancy):\n",
           "    for k, occ in reversed(list(zip(ext.tolist(), occupancy))):\n",
           ("tests/test_ctc.py::TestMatchesReference",)),
    # -- experiment report, LM vocabulary, artifact lines -----------------------
    Mutant("report-rows-out-of-order", "experiment.py",
           "        metrics = dict.fromkeys(m for r in self.runs for m, _ in r.rates)",
           "        metrics = sorted(dict.fromkeys(m for r in self.runs for m, _ in r.rates))",
           ("tests/test_experiment.py::TestReportText",)),
    Mutant("map-word-reads-the-top-order", "lm.py",
           "        return w if (w,) in self.tables[1] else UNK\n",
           "        return w if (w,) in self.tables[self.order] else UNK\n",
           ("tests/test_lm.py::TestHandComputedBackoff",)),
    Mutant("artifact-without-final-newline", "inputs.py",
           '    Path(path).write_text("\\n".join(lines) + "\\n", encoding="utf-8")\n',
           '    Path(path).write_text("\\n".join(lines), encoding="utf-8")\n',
           ("tests/test_experiment.py::TestToyExperiment::test_empty_decode_scores_as_deletions",
            "tests/test_lm.py::TestArpaRoundTrip")),
    # -- lexicon and CLI inputs -------------------------------------------------
    Mutant("checked-only-tone-keyed-open", "lexicon.py",
           "        tone_map.update(((mark, CHECKED), digit) for mark, digit in tones[CHECKED].items())\n",
           "        tone_map.update(((mark, OPEN), digit) for mark, digit in tones[CHECKED].items())\n",
           ("tests/test_lexicon.py::TestCheckedOnlyTone",)),
    Mutant("empty-pronunciation-loads", "lexicon.py",
           "        if not self.pron:\n",
           "        if self.pron is None:\n",
           ("tests/test_lexicon.py::TestLexiconFiles::test_pronunciation_without_phones_names_line",
            "tests/test_decoder.py::TestPrefixTreeErrors::test_empty_pronunciation_names_word")),
    Mutant("trie-accepts-empty-lexicon", "decoder.py",
           "    if not lexicon:\n"
           "        raise ValueError(\"empty lexicon\")\n",
           "",
           ("tests/test_decoder.py::TestDecodePhoneme::test_empty_lexicon_rejected",
            "tests/test_cli.py::TestDecodeCli::test_empty_lexicon_names_lexicon_file")),
    Mutant("bpe-vocab-unchecked", "tokenizer.py",
           "        PhonemeVocab(self.vocab)   # the blank at id 0, no token twice\n",
           "",
           ("tests/test_tokenizer.py::TestModelFile::test_bad_vocab_names_path_and_token",)),
    Mutant("bare-g2p-key-shadows-qualified", "lexicon.py",
           "        onset = {**graphemes[\"\"], **graphemes[\"initial\"]}\n",
           "        onset = {**graphemes[\"initial\"], **graphemes[\"\"]}\n",
           ("tests/test_lexicon.py::TestTableQualifiers::"
            "test_qualified_key_shadows_bare_key_in_either_order",)),
    Mutant("transcripts-tagged-per-line", "cli.py",
           "    lines = _read_lines(path)\n"
           "    if any(\"\\t\" in ln for ln in lines):\n"
           "        return [text for _, text in read_corpus(path)]\n"
           "    return [normalize_text(ln) for ln in lines]\n",
           "    return [normalize_text(ln.split(\"\\t\", 1)[1] if \"\\t\" in ln else ln)\n"
           "            for ln in _read_lines(path)]\n",
           ("tests/test_cli.py::TestLm::test_corpus_with_one_tab_missing_names_line",)),
    Mutant("empty-id-listed", "cli.py",
           "            if not utt:\n"
           "                raise ValueError(\"empty utterance id\")\n",
           "",
           ("tests/test_cli.py::TestInputFaultNamesFile::test_fault_names_file[empty-id]",)),
    Mutant("empty-id-in-corpus", "experiment.py",
           "            if not utt:\n"
           "                raise ValueError(\"empty utterance id\")\n",
           "",
           ("tests/test_experiment.py::TestCorpusReader::test_empty_id_named_at_path_and_line",
            "tests/test_cli.py::TestSplitScore::test_score_rejects_empty_id")),
    Mutant("decode-reads-raw-id-lines", "cli.py",
           "decode_utterances(args.emissions, _read_ids(args.ids),",
           "decode_utterances(args.emissions, _read_lines(args.ids),",
           ("tests/test_cli.py::TestDecodeCli::test_ids_read_as_split_reads_them",)),
    # -- decoding in forked processes ------------------------------------------
    Mutant("forked-decode-yields-own-share-first", "experiment.py",
           "        for i, utt in enumerate(ids):\n",
           "        for i, utt in sorted(enumerate(ids), key=lambda iu: iu[0] % n):\n",
           ("tests/test_experiment.py::TestForkedDecode::"
            "test_ids_yielded_in_order_when_a_later_id_finishes_first",)),
    Mutant("forked-decode-raises-first-error-to-arrive", "experiment.py",
           "        for i, utt in enumerate(ids):\n"
           "            nbests = _receive(children[i % n - 1][1]) if i % n else None\n",
           "        own = {utt: decode_one(utt) for utt in ids[0::n]}\n"
           "        for i, utt in enumerate(ids):\n"
           "            nbests = _receive(children[i % n - 1][1]) if i % n else own[utt]\n",
           ("tests/test_experiment.py::TestForkedDecode::"
            "test_earliest_failing_id_raises_serial_error",)),
    Mutant("forked-shares-read-out-of-id-order", "experiment.py",
           "            nbests = _receive(children[i % n - 1][1]) if i % n else None\n",
           "            nbests = _receive(children[i % n - 1][1]) if (i + 1) % n else None\n",
           ("tests/test_experiment.py::TestForkedDecode::test_nbest_lists_equal_serial",)),
    Mutant("forked-child-returns-on-exit", "experiment.py",
           "                    out.flush()\n"
           "        finally:\n"
           "            os._exit(0)\n",
           "                    out.flush()\n"
           "            os._exit(0)\n"
           "        except Exception:\n"
           "            os._exit(1)\n",
           ("tests/test_experiment.py::TestForkedDecode::"
            "test_child_raising_system_exit_never_runs_callers_code",)),
    Mutant("forked-children-not-reaped", "experiment.py",
           "            os.waitpid(pid, 0)\n",
           "",
           ("tests/test_experiment.py::TestForkedDecode::test_closed_early_leaves_no_process",)),
    Mutant("forked-decode-beside-threads", "experiment.py",
           "    if threading.active_count() > 1:\n"
           "        return 1\n",
           "",
           ("tests/test_experiment.py::TestForkedDecode::"
            "test_process_running_another_thread_starts_no_process",)),
    Mutant("forked-decode-without-ids-per-process", "experiment.py",
           "    return max(1, min(len(os.sched_getaffinity(0)), n_ids // 8))\n",
           "    return max(1, len(os.sched_getaffinity(0)))\n",
           ("tests/test_experiment.py::TestForkedDecode::test_few_ids_or_one_cpu_start_no_process",)),
    # -- values derived in one place, and the inputs that feed them ------------
    Mutant("inventory-lookup-is-a-parameter", "orthography.py",
           "    _syllable_len: int = field(init=False, repr=False, compare=False)\n",
           "    _syllable_len: int = field(default=0, repr=False, compare=False)\n",
           ("tests/test_orthography.py::TestParseWord::test_derived_fields_are_not_parameters",)),
    Mutant("transfer-coverage-counts-the-blank", "transfer.py",
           "        n_real = len(self.copied) + len(self.randomized)\n",
           "        n_real = len(self.copied) + len(self.randomized) + 1\n",
           ("tests/test_transfer.py::TestTransferInit",)),
    Mutant("train-folds-in-descending-order", "evaluate.py",
           "        return tuple(u for k, fold in enumerate(self.folds) if k not in held for u in fold)\n",
           "        return tuple(u for k, fold in reversed(list(enumerate(self.folds)))\n"
           "                     if k not in held for u in fold)\n",
           ("tests/test_evaluate.py::TestCvPlan::test_train_ids_are_the_other_folds_in_order",)),
    Mutant("fixture-peak-moved", "fixtures.py",
           "    peak = 0.98\n",
           "    peak = 0.9\n",
           ("tests/test_experiment.py::TestFixtureModes::test_toy_tree_bytes_are_pinned",)),
    Mutant("lexicon-corpus-optional", "cli.py",
           '    sp.add_argument("--corpus", required=True, help="utt TAB text or plain text lines")\n',
           '    sp.add_argument("--corpus", help="utt TAB text or plain text lines")\n',
           ("tests/test_cli.py::TestLexiconVocab::test_needs_corpus",)),
    Mutant("aggregate-takes-the-largest-rate", "evaluate.py",
           "    return sum(rates) / len(rates)\n",
           "    return max(rates)\n",
           ("tests/test_evaluate.py::TestAggregate",)),
    Mutant("report-rate-ignores-lm", "experiment.py",
           "        return aggregate([r.rates[metric, lm] for r in self.runs])\n",
           "        return aggregate([r.rates[metric, \"with-lm\"] for r in self.runs])\n",
           ("tests/test_experiment.py::TestReportText",)),
    Mutant("g2p-table-accepts-blank", "lexicon.py",
           "            if BLANK_TOKEN in value.split():   # no prefix-tree path can spell it\n",
           "            if False:\n",
           ("tests/test_lexicon.py::TestLexiconFiles::test_table_blank_token_names_line",
            "tests/test_cli.py::TestLexiconVocab::test_blank_in_g2p_table_names_table_line",
            "tests/test_experiment.py::TestStageErrors::test_blank_in_g2p_table_is_a_config_error")),
    Mutant("lm-ppl-unlocated", "cli.py",
           "    with located(args.text):\n"
           "        ppl = lm_mod.perplexity(model, texts)\n",
           "    ppl = lm_mod.perplexity(model, texts)\n",
           ("tests/test_cli.py::TestLm::test_ppl_of_text_without_words_names_the_text",)),
    Mutant("bpe-vocab-drops-empty-lines", "tokenizer.py",
           "        vocab = token_lines(lines[end + 1:], at, end + 2)\n",
           "        vocab = token_lines([ln for ln in lines[end + 1:] if ln], at, end + 2)\n",
           ("tests/test_tokenizer.py::TestModelFile::test_malformed_vocab_line_names_line",)),
    Mutant("emission-writer-unchecked", "ctc.py",
           "    with located(path):\n"
           "        _from_cells(cells)\n",
           "",
           ("tests/test_ctc.py::TestEmissionFiles::test_writer_refuses_a_frame_its_reader_rejects",)),
    Mutant("emission-writer-checks-float64", "ctc.py",
           "    with located(path):\n"
           "        _from_cells(cells)\n",
           "    with located(path):\n"
           "        _from_cells(logits)\n",
           ("tests/test_ctc.py::TestEmissionFiles::"
            "test_cell_past_float32_range_refused_binary_only",)),
    Mutant("emission-writer-checks-frames-only", "ctc.py",
           "    with located(path):\n"
           "        _from_cells(cells)\n",
           "    with located(path):\n"
           "        if cells.size and not np.isfinite(cells.max(axis=1)).all():\n"
           "            raise ValueError(\"a frame holds NaN or +inf, or no finite cell\")\n",
           ("tests/test_ctc.py::TestEmissionFiles::test_writer_refuses_rows_that_do_not_renormalize",)),
    Mutant("emission-writer-shape-unchecked", "ctc.py",
           "    with located(path):\n"
           "        _check_shape(logits)\n",
           "",
           ("tests/test_ctc.py::TestEmissionFiles::test_writer_refuses_a_shape_its_reader_rejects",)),
    Mutant("arpa-writer-checks-unwritten-values", "lm.py",
           "        ArpaModel(order=model.order, tables=tuple(read_back)).validate()\n",
           "        ArpaModel(order=model.order, tables=model.tables).validate()\n",
           ("tests/test_lm.py::TestArpaRoundTrip::test_writer_refuses_a_value_its_reader_rejects",)),
)


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)


def outcome(proc: subprocess.CompletedProcess) -> str:
    # pytest exits 0 when all passed, 1 when some failed, 5 when none ran, and 4 on a
    # usage error: a named id that is not found, or the mutant failing at import
    if proc.returncode in (0, 1):
        return ("survived", "killed")[proc.returncode]
    missing = proc.returncode == 5 or "not found" in proc.stdout + proc.stderr
    return "stale" if missing else "killed"


def run_mutant(m: Mutant) -> tuple[str, str]:
    with tempfile.TemporaryDirectory(prefix="mienasr-mutant-") as tmp:
        src = copy_src(Path(tmp))
        path = src / "mienasr" / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            return "stale", f"snippet found {text.count(m.snippet)} times in {m.file}"
        path.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        proc = run_tests(src, m.tests)
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return outcome(proc), lines[-1] if lines else ""


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mienasr-mutant-") as tmp:
        base = run_tests(copy_src(Path(tmp)), sorted({t for m in MUTANTS for t in m.tests}))
    if base.returncode != 0:
        print(f"baseline: the named tests do not pass unmutated (pytest exit "
              f"{base.returncode})\n{base.stdout[-2000:]}{base.stderr[-2000:]}", file=sys.stderr)
        return 1
    tally: dict[str, int] = {}
    for m in MUTANTS:
        status, detail = run_mutant(m)
        tally[status] = tally.get(status, 0) + 1
        print(f"{status:8} {m.name}  ({m.file}): {detail}", flush=True)
    print(" ".join(f"{k} {v}" for k, v in sorted(tally.items())), f"of {len(MUTANTS)}")
    return 0 if tally.get("killed", 0) == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
