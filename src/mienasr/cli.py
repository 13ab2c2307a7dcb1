"""Command-line entry point exposing every pipeline stage.

Each subcommand is a thin wrapper over one library call; the ``experiment``
subcommand drives the whole chain from a declarative config file.  Errors
print a stage-attributed diagnostic on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import lm as lm_mod
from . import transfer as transfer_mod
from .decoder import DecodeConfig, build_prefix_tree, spell_lm_words
from .evaluate import error_rate, make_cv_plan, pool
from .experiment import (best_words, decode_utterances, load_config, normalize_text,
                         read_corpus, read_tagged, run_experiment, tagged_line,
                         tagged_lines)
from .inputs import located, read_utf8, write_lines
from .lexicon import (build_lexicon, derive_phoneme_vocab, load_g2p_table, read_lexicon,
                      read_vocab, write_lexicon, write_vocab)
from .orthography import load_inventory, parse_word
from .tokenizer import bpe_decode, bpe_encode, bpe_train, load_bpe, save_bpe


# argparse takes "-1e-05" for an option: read negative numbers in exponent form, inf and nan too
_NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_lines(path):
    with located(path):
        return [ln for ln in read_utf8(path).splitlines() if ln.strip()]


def _read_ids(path):
    """The ids of ``tagged_lines``, where a line without a TAB is all id, so
    "utt TAB text" files serve."""
    with located(path) as at:
        return [utt for utt, _ in tagged_lines(read_utf8(path), at, tab_required=False)]


def _read_transcripts(path):
    """Normalized transcripts: a file with a TAB on any line is a corpus, else plain lines."""
    lines = _read_lines(path)
    if any("\t" in ln for ln in lines):
        return [text for _, text in read_corpus(path)]
    return [normalize_text(ln) for ln in lines]


def cmd_parse(args):
    inv = load_inventory(args.inventory)
    if not args.words and not args.input:
        raise ValueError("provide words as arguments or a file via --input")
    words = args.words or _read_lines(args.input)
    for w in words:
        parse = parse_word(w.lower(), inv)
        slots = " ".join(
            f"{s.surface}={s.initial or '-'}|{s.medial or '-'}|{s.main}"
            f"|{s.final or '-'}|{s.tone_mark or '-'}"
            for s in parse.syllables
        )
        print(f"{w}\t{slots}")
    return 0


def cmd_lexicon(args):
    inv, table = load_inventory(args.inventory), load_g2p_table(args.g2p_table)
    words = [w for text in _read_transcripts(args.corpus) for w in text.split()]
    entries, failures = build_lexicon(words, table, inv)
    for word, err in failures:
        print(f"unconvertible\t{word}\t{err}", file=sys.stderr)
    if not entries:   # vocab would reject the empty lexicon; --allow-failures does not help
        with located(args.corpus):
            raise ValueError("no translatable words")
    write_lexicon(entries, args.output)
    print(f"{len(entries)} entries, {len(failures)} failures -> {args.output}")
    return 0 if not failures or args.allow_failures else 1


def cmd_vocab(args):
    entries = read_lexicon(args.lexicon)
    with located(args.lexicon):
        vocab = derive_phoneme_vocab(entries, strip_diacritics=args.strip_diacritics)
    write_vocab(vocab, args.output)
    print(f"{len(vocab) - 1} phoneme tokens (+blank) -> {args.output}")
    return 0


def cmd_bpe_train(args):
    texts = _read_transcripts(args.corpus)
    with located(args.corpus):
        model = bpe_train(texts, args.vocab_size)
    save_bpe(model, args.output)
    print(f"{len(model.vocab)} tokens, {len(model.merges)} merges -> {args.output}")
    return 0


def cmd_bpe_encode(args):
    model = load_bpe(args.model)
    lines = [normalize_text(args.text)] if args.text is not None else _read_transcripts(args.input)
    for line in lines:
        print(" ".join(str(i) for i in bpe_encode(line, model)))
    return 0


def cmd_bpe_decode(args):
    model = load_bpe(args.model)
    with located("--ids" if args.ids is not None else args.input) as at:
        if args.ids is not None:
            lines = [(None, args.ids)]
        else:
            lines = [(n, ln) for n, ln in enumerate(read_utf8(args.input).splitlines(), 1)
                     if ln.strip()]
        for at.line, line in lines:
            print(bpe_decode([int(x) for x in line.split()], model))
    return 0


def cmd_lm_train(args):
    texts = _read_transcripts(args.corpus)
    with located(args.corpus):
        model = lm_mod.lm_train(texts, order=args.order, smoothing=args.smoothing)
    lm_mod.arpa_write(model, args.output)
    counts = ", ".join(f"{n}-grams: {len(model.tables[n])}" for n in range(1, model.order + 1))
    print(f"{counts} -> {args.output}")
    return 0


def cmd_lm_ppl(args):
    model = lm_mod.arpa_read(args.model)
    texts = _read_transcripts(args.text)
    with located(args.text):
        ppl = lm_mod.perplexity(model, texts)
    print(f"{ppl:.6f}")
    return 0


def cmd_decode(args):
    cfg = DecodeConfig(beam_size=args.beam, lm_weight=args.lm_weight,
                       word_insertion_penalty=args.wip)
    lex = bpe = None
    if args.mode == "phoneme":
        if not args.lexicon or not args.vocab:
            raise ValueError("phoneme mode needs --lexicon and --vocab")
        entries, vocab = read_lexicon(args.lexicon), read_vocab(args.vocab)
        with located(args.lexicon):   # a pronunciation token that --vocab lacks
            lex = build_prefix_tree(entries, vocab)
    else:
        if not args.bpe_model:
            raise ValueError("subword mode needs --bpe-model")
        bpe = load_bpe(args.bpe_model)
    ngram = lm_mod.arpa_read(args.lm) if args.lm else None
    if bpe is not None and ngram is not None:
        with located(args.lm):   # an LM word the BPE model cannot spell
            lex = spell_lm_words(bpe, ngram)

    out_lines, nbest_lines = [], []
    for utt, (hyps,) in decode_utterances(args.emissions, _read_ids(args.ids), cfg, (ngram,),
                                          lex=lex, bpe=bpe):
        out_lines.append(tagged_line(utt, best_words(hyps)))
        nbest_lines += [f"{utt}\t{rank}\t{h.score:.6f}\t{h.score_ac:.6f}\t{h.score_lm:.6f}"
                        f"\t{' '.join(h.words)}" for rank, h in enumerate(hyps[:args.nbest_size])]
    write_lines(args.output, out_lines)
    if args.nbest:
        write_lines(args.nbest, nbest_lines)
    print(f"decoded {len(out_lines)} utterances -> {args.output}")
    return 0


def cmd_transfer_init(args):
    src = transfer_mod.read_matrix(args.src)
    vocab = read_vocab(args.tgt_vocab)
    mat, rep = transfer_mod.transfer_init(src, vocab, seed=args.seed,
                                          scale=args.scale, normalize=args.normalize)
    transfer_mod.write_matrix(mat, args.output)
    print(f"copied {len(rep.copied)}, randomized {len(rep.randomized)}, "
          f"coverage {rep.coverage:.3f} -> {args.output}")
    return 0


def cmd_split(args):
    plan = make_cv_plan(_read_ids(args.ids), n_folds=args.folds, n_runs=args.runs, seed=args.seed)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, fold in enumerate(plan.folds):
        write_lines(out / f"fold{k}.txt", fold)
    for r in range(args.runs):
        write_lines(out / f"run{r}.train", plan.train_ids(r))
        write_lines(out / f"run{r}.dev", plan.dev_ids(r))
        write_lines(out / f"run{r}.test", plan.test_ids(r))
    print(f"{args.folds} folds, {args.runs} runs -> {out}")
    return 0


def cmd_score(args):
    # phone symbols are case-sensitive, so PER compares tokens verbatim
    read = read_corpus if args.metric == "wer" else read_tagged
    refs, hyps = dict(read(args.ref)), dict(read(args.hyp))
    missing = sorted(set(refs) - set(hyps))
    if missing:
        raise ValueError(f"hypotheses missing for utterances: {missing[:5]}")
    reports = [error_rate(refs[u].split(), hyps[u].split()) for u in sorted(refs)]
    total = pool(reports)
    print(f"{args.metric.upper()}\tS={total.substitutions}\tD={total.deletions}"
          f"\tI={total.insertions}\tN={total.reference_length}\trate={total.rate:.6f}")
    return 0


def cmd_experiment(args):
    report = run_experiment(load_config(args.config))
    sys.stdout.write(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mienasr", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(fn=fn)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        return sp

    sp = add("parse", cmd_parse, "syllabify IMUC words")
    sp.add_argument("words", nargs="*", help="words to parse")
    sp.add_argument("--input", help="file with one word per line")
    sp.add_argument("--inventory")

    sp = add("lexicon", cmd_lexicon, "build the pronunciation lexicon")
    sp.add_argument("--corpus", required=True, help="utt TAB text or plain text lines")
    sp.add_argument("--g2p-table", dest="g2p_table")
    sp.add_argument("--inventory")
    sp.add_argument("--output", required=True)
    sp.add_argument("--allow-failures", action="store_true")

    sp = add("vocab", cmd_vocab, "derive the phoneme vocabulary")
    sp.add_argument("--lexicon", required=True)
    sp.add_argument("--strip-diacritics", action="store_true")
    sp.add_argument("--output", required=True)

    sp = add("bpe-train", cmd_bpe_train, "train the subword tokenizer")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--vocab-size", type=int, default=500)
    sp.add_argument("--output", required=True)

    sp = add("bpe-encode", cmd_bpe_encode, "encode text to token ids")
    sp.add_argument("--model", required=True)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="one line of text")
    source.add_argument("--input", help="text lines or utt TAB text file")

    sp = add("bpe-decode", cmd_bpe_decode, "decode token ids to text")
    sp.add_argument("--model", required=True)
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--ids", help="one line of space-separated ids")
    source.add_argument("--input", help="one id sequence per line")

    sp = add("lm-train", cmd_lm_train, "train an ARPA n-gram model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--order", type=_positive_int, default=4)
    sp.add_argument("--smoothing", default="kneser_ney",
                    choices=["kneser_ney", "absolute", "mle"])
    sp.add_argument("--output", required=True)

    sp = add("lm-ppl", cmd_lm_ppl, "perplexity of text under a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--text", required=True)

    sp = add("decode", cmd_decode, "beam-search decode emission files")
    sp.description = ("Beam-search decode emission files.  Subword mode without --lm gives "
                      "the greedy 1-best: --beam, --lm-weight and --nbest-size do not apply "
                      "to it.  --wip does not change that 1-best, but it is added to its "
                      "score, and its bound (--wip times the frame count is finite) is checked.")
    sp.add_argument("--mode", choices=["subword", "phoneme"], required=True)
    sp.add_argument("--emissions", required=True, help="directory of <utt>.em files")
    sp.add_argument("--ids", required=True, help="id list or utt TAB text file")
    sp.add_argument("--lexicon")
    sp.add_argument("--vocab")
    sp.add_argument("--bpe-model", dest="bpe_model")
    sp.add_argument("--lm")
    sp.add_argument("--beam", type=_positive_int, default=32)
    sp.add_argument("--lm-weight", dest="lm_weight", type=float, default=1.0)
    sp.add_argument("--wip", type=float, default=0.0)
    sp.add_argument("--output", required=True)
    sp.add_argument("--nbest")
    sp.add_argument("--nbest-size", dest="nbest_size", type=_positive_int, default=10)

    sp = add("transfer-init", cmd_transfer_init, "initialize a target head matrix")
    sp.add_argument("--src", required=True)
    sp.add_argument("--tgt-vocab", dest="tgt_vocab", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--output", required=True)

    sp = add("split", cmd_split, "write cross-validation fold manifests")
    sp.add_argument("--ids", required=True, help="id list or utt TAB text file")
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--runs", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output-dir", dest="output_dir", required=True)

    sp = add("score", cmd_score, "WER/PER against references")
    sp.add_argument("--metric", choices=["wer", "per"], default="wer")
    sp.add_argument("--ref", required=True)
    sp.add_argument("--hyp", required=True)

    sp = add("experiment", cmd_experiment, "run the full pipeline from a config")
    sp.add_argument("--config", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # uniform stage-attributed diagnostics
        print(f"mienasr: {args.command}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
