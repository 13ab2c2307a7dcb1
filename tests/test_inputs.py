"""Every input file is decoded in one place and every fault names its file.

The guard tests parse the package source, so a reader that decodes a file
itself, or decodes outside a ``located`` block, fails here.  The fuzz gate
mutates files the toolkit writes and requires each mutant to load or to fail
with the reader's own error type naming the file.  The round-trip properties
check that each writer's output reads back as what was written.
"""

import ast
import contextlib
import io
import math
import random
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mienasr import BLANK_ID, BLANK_TOKEN, orthography
from mienasr.cli import main
from mienasr.ctc import normalize_rows, read_emissions, write_emissions
from mienasr.decoder import DecodeConfig, build_prefix_tree
from mienasr.experiment import (PipelineError, decode_utterances, emission_path, load_config,
                                read_tagged, tagged_line, write_lines)
from mienasr.fixtures import TOY_UTTS, write_toy_experiment
from mienasr.inputs import located
from mienasr.lexicon import (LexiconEntry, PhonemeVocab, TableError, load_g2p_table,
                             read_lexicon, read_vocab, write_lexicon, write_vocab)
from mienasr.lm import ArpaError, arpa_read, arpa_write, lm_train
from mienasr.orthography import InventoryError, load_inventory
from mienasr.tokenizer import bpe_train, load_bpe, save_bpe
from mienasr.transfer import EmbeddingMatrix, read_matrix, write_matrix

SRC = Path(__file__).parents[1] / "src" / "mienasr"
TESTS = Path(__file__).parent
DATA = Path(orthography.__file__).parent / "data"
HELPER = "inputs.py"
CORPUS = ["mienh nyei dorn", "dorn maaih mienh", "maaih mienh nyei nyei", "nyei dorn"]


class TestLocated:
    def test_prefixes_path_then_line(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape("f.txt: bad")):
            with located("f.txt"):
                raise ValueError("bad")
        with pytest.raises(ArpaError, match=re.escape("f.txt:7: bad")):
            with located("f.txt", ArpaError) as at:
                at.line = 7
                raise ValueError("bad")

    def test_other_errors_pass_through(self):
        with pytest.raises(KeyError):
            with located("f.txt"):
                raise KeyError("k")

    def test_nested_prefixes_compose(self):
        with pytest.raises(ValueError, match=re.escape("c.ini: key 'x': bad")):
            with located("c.ini"):
                with located("key 'x'"):
                    raise ValueError("bad")


# -- files the toolkit writes, and the reader of each ------------------------

def _arpa(d):
    arpa_write(lm_train(CORPUS, order=3), d / "lm.arpa")
    return d / "lm.arpa"


def _bpe(d):
    save_bpe(bpe_train(CORPUS, 20), d / "bpe.model")
    return d / "bpe.model"


def _emissions(d, binary):
    logits = normalize_rows(np.random.default_rng(0).normal(size=(4, 5)))
    write_emissions(d / "x.em", logits, binary=binary)
    return d / "x.em"


def _matrix(d):
    rows = np.random.default_rng(1).normal(size=(4, 3))
    write_matrix(EmbeddingMatrix(rows=rows, row_labels=(BLANK_TOKEN, "a", "b", "c")), d / "m.txt")
    return d / "m.txt"


def _lexicon(d):
    write_lexicon([LexiconEntry("mienh", ("m", "i", "e", "n", "1")),
                   LexiconEntry("dorn", ("t", "o", "n", "3"))], d / "lexicon.tsv")
    return d / "lexicon.tsv"


def _vocab(d):
    write_vocab(PhonemeVocab((BLANK_TOKEN, "m", "i", "e", "n", "1")), d / "tokens.txt")
    return d / "tokens.txt"


def _packaged(name):
    def copy(d):
        (d / name).write_bytes((DATA / name).read_bytes())
        return d / name
    return copy


def _corpus(d):
    write_lines(d / "corpus.tsv", [tagged_line(u, t.split()) for u, t in TOY_UTTS])
    return d / "corpus.tsv"


def _config(d):
    return write_toy_experiment(d / "toy")


READERS = {  # kind: (write a file into a directory, read it, the reader's error type)
    "arpa": (_arpa, arpa_read, ArpaError),
    "bpe": (_bpe, load_bpe, ValueError),
    "emissions-binary": (lambda d: _emissions(d, True), read_emissions, ValueError),
    "emissions-text": (lambda d: _emissions(d, False), read_emissions, ValueError),
    "matrix": (_matrix, read_matrix, ValueError),
    "lexicon": (_lexicon, read_lexicon, TableError),
    "vocab": (_vocab, read_vocab, ValueError),
    "inventory": (_packaged("iu_mien_inventory.txt"), load_inventory, InventoryError),
    "g2p-table": (_packaged("iu_mien_g2p.tsv"), load_g2p_table, TableError),
    "corpus": (_corpus, read_tagged, PipelineError),
    "config": (_config, load_config, PipelineError),
}


class TestNotUtf8:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_reader_names_file(self, tmp_path, kind):
        write, read, error = READERS[kind]
        path = write(tmp_path)
        read(path)  # the file as written loads
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(error, match=re.escape(f"{path}: ")) as info:
            read(path)
        assert not isinstance(info.value, UnicodeDecodeError)
        assert "byte 0xff at offset 0" in str(info.value)

    def test_emissions_keep_their_message(self, tmp_path):
        path = tmp_path / "x.em"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match=re.escape(f"{path}: neither an EMISMAT1 file")):
            read_emissions(path)

    @pytest.mark.parametrize("command", ["split", "bpe-decode"])
    def test_cli_line_readers_name_file(self, tmp_path, capsys, command):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"u1\tmienh\n\xffu2\tdorn\n")
        if command == "split":
            argv = ["split", "--ids", path, "--output-dir", tmp_path / "out"]
        else:
            argv = ["bpe-decode", "--model", _bpe(tmp_path), "--input", path]
        assert main([str(a) for a in argv]) == 1
        assert f"{path}: not UTF-8 text: byte 0xff at offset 9" in capsys.readouterr().err


# -- the invariant: one decode site, and every decode inside located ---------

def _modules():
    return [(p.name, ast.parse(p.read_text(encoding="utf-8")))
            for p in sorted(SRC.glob("*.py")) if p.name != HELPER]


def _called(node, name):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


class TestOneDecodePath:
    def test_no_reader_decodes_a_file_itself(self):
        offenders = []
        for name, tree in _modules():
            parsers = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                       and _called(node.value, "ConfigParser")
                       for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                parser_read = (isinstance(func, ast.Attribute)
                               and func.attr in ("read", "read_file")
                               and isinstance(func.value, ast.Name) and func.value.id in parsers)
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                text_open = _called(node, "open") and not (
                    isinstance(mode, ast.Constant) and "b" in mode.value)
                if _called(node, "read_text") or parser_read or text_open:
                    offenders.append(f"{name}:{node.lineno}")
        assert offenders == []

    def test_every_decode_is_located(self):
        unlocated = []
        for name, tree in _modules():
            inside = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.With) and any(_called(i.context_expr, "located")
                                                      for i in node.items):
                    inside.update(id(n) for stmt in node.body for n in ast.walk(stmt))
            unlocated += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if _called(node, "read_utf8") and id(node) not in inside]
        assert unlocated == []


# -- no module imports a name it never uses -----------------------------------

class TestNoUnusedImports:
    def test_every_imported_name_is_used(self):
        unused = []
        for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
            tree = ast.parse(p.read_text(encoding="utf-8"))
            imported = {}   # bound name -> line
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                    and node.module != "__future__"):
                    for alias in node.names:
                        imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{p.relative_to(SRC.parents[1])}:{line}: {name}"
                       for name, line in imported.items() if name not in used]
        assert unused == []


# -- no module defines a private name it never uses ----------------------------

class TestNoUnusedPrivateNames:
    def test_every_private_top_level_name_is_used(self):
        unused = []
        for p in sorted(SRC.glob("*.py")):
            tree = ast.parse(p.read_text(encoding="utf-8"))
            defined = {}   # private top-level function, class or constant -> line
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = node.lineno
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update((t.id, node.lineno) for t in targets
                                   if isinstance(t, ast.Name))
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{p.name}:{line}: {name}" for name, line in defined.items()
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
        assert unused == []


# -- no public function that only tests call -------------------------------------

class TestNoUncalledPublicFunctions:
    def test_every_public_top_level_function_is_referenced(self):
        """Each public top-level function's name occurs outside its own ``def``
        in the package, the demos, the benchmark, the tools or README.md."""
        root = SRC.parents[1]
        texts = {p: p.read_text(encoding="utf-8") for d in ("src", "demos", "bench", "tools")
                 for p in sorted((root / d).rglob("*.py"))}
        texts[root / "README.md"] = (root / "README.md").read_text(encoding="utf-8")
        unreferenced = []
        for p in sorted(SRC.glob("*.py")):
            lines = texts[p].splitlines()
            for node in ast.parse(texts[p]).body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
                name = re.compile(rf"\b{node.name}\b")
                if not any(name.search(rest if q == p else t) for q, t in texts.items()):
                    unreferenced.append(f"{p.name}:{node.lineno}: {node.name}")
        assert unreferenced == []


# -- no recursion whose depth the input sets ---------------------------------

# lm._backoff recurses once per history word it drops, so it is at most the
# LM order deep, whatever the input; no other function may call itself.
BOUNDED_RECURSION = {"lm.py: _backoff"}


def _calls_itself(fn):
    for node in ast.walk(fn):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Name) and func.id == fn.name
                or isinstance(func, ast.Attribute) and func.attr == fn.name
                and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
            return True
    return False


class TestNoSelfRecursion:
    def test_no_function_calls_itself(self):
        recursive = set()
        for p in sorted(SRC.glob("*.py")):
            tree = ast.parse(p.read_text(encoding="utf-8"))
            recursive |= {f"{p.name}: {fn.name}" for fn in ast.walk(tree)
                          if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and _calls_itself(fn)}
        assert sorted(recursive - BOUNDED_RECURSION) == []


# -- fuzz gate ----------------------------------------------------------------

def mutate(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    how = rng.choice(["truncate", "flip", "delete", "duplicate-line", "insert-ff"])
    i = rng.randrange(len(data))
    if how == "truncate":
        return data[:i], f"{how} at {i}"
    if how == "flip":
        return data[:i] + bytes([data[i] ^ rng.randrange(1, 256)]) + data[i + 1:], f"{how} {i}"
    if how == "delete":
        n = rng.randint(1, 8)
        return data[:i] + data[i + n:], f"{how} {n} at {i}"
    if how == "insert-ff":
        return data[:i] + b"\xff" + data[i:], f"{how} at {i}"
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    return b"".join(lines[:k + 1] + lines[k:]), f"{how} {k + 1}"


class TestFuzzGate:
    MUTANTS = 300

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_mutant_loads_or_names_file(self, tmp_path, kind):
        write, read, error = READERS[kind]
        path = write(tmp_path)
        original = path.read_bytes()
        rng = random.Random(f"fuzz-{kind}")
        for _ in range(self.MUTANTS):
            data, how = mutate(original, rng)
            path.write_bytes(data)
            try:
                read(path)
            except error as e:
                assert str(path) in str(e), f"{how}: {e}"
            except Exception as e:
                pytest.fail(f"{how}: {type(e).__name__}: {e}")


# -- round trips ----------------------------------------------------------------

WORDS = st.sampled_from(["a", "b", "c", "dd"])
SENTENCES = st.lists(st.lists(WORDS, min_size=1, max_size=6).map(" ".join),
                     min_size=1, max_size=6)
# no whitespace, so no line or field breaks inside a token
TOKENS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=6).filter(lambda t: not any(c.isspace() for c in t))


class TestRoundTrips:
    @settings(max_examples=40)
    @given(SENTENCES, st.integers(1, 3), st.sampled_from(["kneser_ney", "absolute", "mle"]))
    def test_arpa(self, tmp_path_factory, sentences, order, smoothing):
        path = tmp_path_factory.mktemp("arpa") / "lm.arpa"
        model = lm_train(sentences, order=order, smoothing=smoothing)
        arpa_write(model, path)
        back = arpa_read(path)
        assert back.order == model.order and back.vocab == model.vocab
        for n in range(1, order + 1):
            assert back.tables[n].keys() == model.tables[n].keys()
            for gram, (logp, bow) in model.tables[n].items():
                assert back.tables[n][gram][0] == pytest.approx(logp, abs=1e-10)
                assert (back.tables[n][gram][1] is None) == (bow is None)
        written = path.read_bytes()
        arpa_write(back, path)
        assert path.read_bytes() == written

    @settings(max_examples=40)
    @given(SENTENCES, st.integers(8, 30))
    def test_bpe(self, tmp_path_factory, sentences, vocab_size):
        path = tmp_path_factory.mktemp("bpe") / "bpe.model"
        try:
            model = bpe_train(sentences, vocab_size)
        except ValueError:  # vocab_size below the alphabet
            return
        save_bpe(model, path)
        assert load_bpe(path) == model

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_emissions(self, tmp_path_factory, T, V, seed, binary):
        path = tmp_path_factory.mktemp("em") / "x.em"
        logits = normalize_rows(np.random.default_rng(seed).normal(scale=5, size=(T, V)))
        write_emissions(path, logits, binary=binary)
        got = read_emissions(path).logits
        if binary:  # float32 storage, renormalized on load
            assert np.array_equal(got, normalize_rows(logits.astype("<f4").astype(np.float64)))
        else:
            np.testing.assert_allclose(got, logits, rtol=0, atol=1e-6)

    @settings(max_examples=40)
    @given(st.lists(TOKENS, min_size=1, max_size=5, unique=True), st.integers(1, 4), st.data())
    def test_matrix(self, tmp_path_factory, labels, dim, data):
        path = tmp_path_factory.mktemp("mat") / "m.txt"
        cells = st.floats(allow_nan=False, allow_infinity=False, width=64)
        rows = np.array(data.draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                           min_size=len(labels), max_size=len(labels))))
        mat = EmbeddingMatrix(rows=rows.reshape(len(labels), dim), row_labels=tuple(labels))
        write_matrix(mat, path)
        back = read_matrix(path)
        assert back.row_labels == mat.row_labels and np.array_equal(back.rows, mat.rows)

    @settings(max_examples=40)
    @given(st.lists(st.tuples(TOKENS, st.lists(TOKENS.filter(lambda t: t != BLANK_TOKEN),
                                               min_size=1, max_size=5).map(tuple)), max_size=6))
    def test_lexicon(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("lex") / "lexicon.tsv"
        entries = [LexiconEntry(word, pron) for word, pron in pairs]
        write_lexicon(entries, path)
        assert read_lexicon(path) == entries

    @settings(max_examples=40)
    @given(st.lists(TOKENS.filter(lambda t: t != BLANK_TOKEN), max_size=8, unique=True))
    def test_vocab(self, tmp_path_factory, tokens):
        path = tmp_path_factory.mktemp("vocab") / "tokens.txt"
        vocab = PhonemeVocab((BLANK_TOKEN, *tokens))
        write_vocab(vocab, path)
        assert read_vocab(path) == vocab


# -- a lexicon and a vocabulary that load build a prefix tree ----------------

# fields from a small alphabet; the blank, whitespace and empty fields are the rarer draws
LEX_WORD = st.sampled_from(["x", "y", "xy"] * 3 + ["", " ", "x y"])
LEX_PRON = st.lists(st.sampled_from(["a", "b", "c", "d"] * 2 + [BLANK_TOKEN, "", " "]),
                    min_size=1, max_size=3).map(" ".join)
LEX_LINE = st.one_of(*[st.tuples(LEX_WORD, LEX_PRON).map("\t".join)] * 4,
                     st.sampled_from(["", " ", "x"]))
LEX_TEXT = st.lists(LEX_LINE, min_size=1, max_size=4).map(lambda lines: "".join(ln + "\n" for ln in lines))
VOCAB_TEXT = st.tuples(
    st.sampled_from([[BLANK_TOKEN]] * 4 + [[]]),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True),
    st.sampled_from([[]] * 4 + [[BLANK_TOKEN], ["", "c"], [" a"]]),
).map(lambda parts: "".join(t + "\n" for part in parts for t in part))


def _tree_words(node):
    """The words at or below ``node``, whose arcs never spell the blank."""
    assert BLANK_ID not in node.children
    return set(node.words).union(*(_tree_words(child) for child in node.children.values()))


class TestLoadedLexiconBuildsTrie:
    """Every entry rule lives where a lexicon entry is built, so once a lexicon
    and a vocabulary load, the only faults left are a token outside the
    vocabulary, which names its word, or no word at all."""

    @settings(max_examples=80, deadline=None)
    @given(LEX_TEXT, VOCAB_TEXT)
    def test_tree_spells_every_word_or_names_the_fault(self, tmp_path_factory, lex_text,
                                                       vocab_text):
        d = tmp_path_factory.mktemp("trie")
        lex, vocab_path = d / "lex.tsv", d / "tokens.txt"
        lex.write_text(lex_text, encoding="utf-8")
        vocab_path.write_text(vocab_text, encoding="utf-8")
        try:
            entries, vocab = read_lexicon(lex), read_vocab(vocab_path)
        except ValueError:
            return
        unspelled = next((e.word for e in entries if not set(e.pron) <= set(vocab.tokens)), None)
        if not entries:
            fault = "empty lexicon"
        elif unspelled is not None:
            fault = f"word {unspelled!r}: "
        else:
            fault = None
            assert _tree_words(build_prefix_tree(entries, vocab).root) == {e.word for e in entries}
        if fault is not None:
            with pytest.raises(ValueError, match=re.escape(fault)):
                build_prefix_tree(entries, vocab)

        (d / "em").mkdir()
        write_emissions(d / "em" / "u1.em", normalize_rows(np.zeros((3, len(vocab)))))
        (d / "ids.txt").write_text("u1\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in ("decode", "--mode", "phoneme", "--emissions", d / "em",
                                          "--ids", d / "ids.txt", "--lexicon", lex,
                                          "--vocab", vocab_path, "--output", d / "hyp.txt")])
        if fault is None:
            assert code == 0, err.getvalue()
        else:
            assert code == 1 and f"error: {lex}: {fault}" in err.getvalue()


# -- an emission file that loads decodes to finite scores --------------------

# plain log-probabilities, with the extremes a file can hold as the rarer draws
EM_CELL = st.one_of(*[st.floats(-30, 5)] * 12, st.sampled_from(
    [-np.inf, np.inf, np.nan, 0.0, -1e-45, 1e39, -1e39, 3.4e38, -3.4e38, 1e308, -1e308]))
EM_WORDS = ("x", "y", "xy")


def _emission_file(path, rows, binary):
    """``rows`` stored as they are: as float32 cells, or as text in float64 ``repr``."""
    T, V = len(rows), len(rows[0])
    if binary:
        with np.errstate(over="ignore"):
            payload = np.array(rows, dtype=np.float64).astype("<f4").tobytes()
        path.write_bytes(b"EMISMAT1" + struct.pack("<II", T, V) + payload)
    else:
        path.write_text(f"{T} {V}\n" + "".join(" ".join(map(repr, row)) + "\n" for row in rows),
                        encoding="utf-8")


class TestLoadedEmissionsDecode:
    """Once an emission file loads, a phoneme decode with or without an LM
    scores every hypothesis without NaN or +inf, or names the file."""

    @settings(max_examples=150)
    @given(st.integers(2, 4), st.integers(1, 5), st.booleans(), st.data())
    def test_scores_are_never_nan_or_plus_inf(self, tmp_path_factory, width, T, binary, data):
        V = data.draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))   # the file's width
        rows = data.draw(st.lists(st.lists(EM_CELL, min_size=V, max_size=V),
                                  min_size=T, max_size=T))
        cfg = DecodeConfig(beam_size=data.draw(st.sampled_from([1, 4])),
                           lm_weight=data.draw(st.sampled_from([0.0, 0.5, 1e3])),
                           word_insertion_penalty=data.draw(st.sampled_from([0.0, -2.0, 1e3])))
        vocab = PhonemeVocab((BLANK_TOKEN, "a", "b", "c")[:width])
        tokens = vocab.tokens[1:]
        entries = [LexiconEntry(w, tuple(tokens[i % len(tokens)] for i in range(len(w), 0, -1)))
                   for w in EM_WORDS]
        ngram = lm_train(["x y xy", "y x", "xy xy y"], order=2)
        d = tmp_path_factory.mktemp("em")
        path = emission_path(d, "u1")
        _emission_file(path, rows, binary)
        try:
            [(_, nbests)] = decode_utterances(d, ["u1"], cfg, (ngram, None),
                                              lex=build_prefix_tree(entries, vocab))
        except ValueError as e:
            assert str(e).startswith(f"{path}: ")
            return
        for h in (h for hyps in nbests for h in hyps):
            for score in (h.score, h.score_ac, h.score_lm):
                assert not (math.isnan(score) or score == math.inf), h
