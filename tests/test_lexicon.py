import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mienasr
from mienasr import BLANK_TOKEN
from mienasr.lexicon import (G2PError, G2PTable, LexiconEntry, PhonemeVocab, TableError,
                             build_lexicon, default_g2p_table, derive_phoneme_vocab, g2p,
                             load_g2p_table, longest_match, read_lexicon, read_vocab,
                             strip_token, write_lexicon)
from mienasr.orthography import ParseError, default_inventory, parse_word


def full_coverage_words(inv):
    """Synthetic word list exercising every inventory grapheme."""
    words = [i + "a" for i in sorted(inv.initials)]
    words += ["b" + m for m in sorted(inv.mains)]
    words += ["ba" + c for c in sorted(inv.codas)]
    words += ["ba" + t for t in inv.tone_letters]
    return words


class TestG2p:
    def test_voiceless_diacritic_retained(self, inv, g2p_table):
        assert g2p("hnaangv", g2p_table, inv).pron[0] == "n̥"
        assert g2p("naangv", g2p_table, inv).pron[0] == "n"

    def test_identity_single_grapheme_word(self, inv, g2p_table):
        # onset-less single-vowel word maps to its one token plus mid tone
        assert g2p("o", g2p_table, inv).pron == ("o", "1")

    def test_tone_digit_count_matches_syllables(self, inv, g2p_table):
        entry = g2p("ginghgungv", g2p_table, inv)
        digits = [t for t in entry.pron if t.isdigit()]
        assert len(digits) == 2

    def test_tone_digit_order(self, inv, g2p_table):
        # fixed assignment: none,h,v,z,x,c -> 1..6
        for word, digit in [("ba", "1"), ("bah", "2"), ("bav", "3"),
                            ("baz", "4"), ("bax", "5"), ("bac", "6")]:
            assert g2p(word, g2p_table, inv).pron[-1] == digit

    def test_coda_overrides(self, inv, g2p_table):
        assert g2p("duqv", g2p_table, inv).pron == ("t", "u", "ʔ", "3")
        assert g2p("bap", g2p_table, inv).pron == ("p", "ɐ", "p", "1")

    def test_checked_tone_hook(self, inv, tmp_path):
        src = (tmp_path / "t.tsv")
        src.write_text("b\tp\na\tɐ\nt\ttʰ\nt@final\tt\n[tones]\n"
                       "none\t1\nh\t2\nv\t3\nz\t4\nx\t5\nc\t6\n"
                       "v@checked\t7\nc@checked\t8\n", encoding="utf-8")
        table = load_g2p_table(src)
        assert g2p("batv", table, inv).pron[-1] == "7"
        assert g2p("bav", table, inv).pron[-1] == "3"

    def test_untranslatable_span_reported(self, inv, g2p_table):
        table = G2PTable(onset_entries={"b": ("p",)}, rime_entries={"a": ("ɐ",)},
                         tone_map=g2p_table.tone_map)
        with pytest.raises(G2PError) as ei:
            g2p("na", table, inv)
        assert ei.value.word == "na"
        assert ei.value.syllable == "na"

    def test_deterministic(self, inv, g2p_table):
        assert g2p("mienh", g2p_table, inv) == g2p("mienh", g2p_table, inv)


class TestLongestMatchOracle:
    def oracle(self, s, keys):
        # step-by-step maximal munch with a linear scan over all keys
        out, i = [], 0
        while i < len(s):
            best = None
            for k in keys:
                if s.startswith(k, i) and (best is None or len(k) > len(best)):
                    best = k
            if best is None:
                return None, i
            out.append(best)
            i += len(best)
        return out, None

    def test_toy_table_exhaustive(self):
        keys = {"a": ("A",), "ab": ("AB",), "b": ("B",), "bba": ("BBA",)}
        for n in range(1, 9):
            for tup in itertools.product("abc", repeat=n):
                s = "".join(tup)
                want, fail_at = self.oracle(s, keys)
                if want is None:
                    with pytest.raises(G2PError) as ei:
                        longest_match(s, keys)
                    assert ei.value.offset == fail_at
                else:
                    got = longest_match(s, keys)
                    assert got == [keys[k][0] for k in want]


def reference_longest_match(s, entries):
    """``longest_match`` as it was before each view kept its longest key,
    kept verbatim: it measures every key on every call."""
    max_len = max((len(k) for k in entries), default=0)
    out = []
    i = 0
    while i < len(s):
        for cut in range(min(max_len, len(s) - i), 0, -1):
            tokens = entries.get(s[i:i + cut])
            if tokens is not None:
                out.extend(tokens)
                i += cut
                break
        else:
            raise G2PError(f"no table entry matches {s[i:]!r}", offset=i)
    return out


def reference_g2p(word, table, inv):
    """``g2p`` over ``reference_longest_match``, kept verbatim."""
    parse = parse_word(word, inv)
    pron = []
    for syl in parse.syllables:
        for text, view in ((syl.initial, table.onset_entries), (syl.rime, table.rime_entries)):
            if not text:
                continue
            try:
                pron.extend(reference_longest_match(text, view))
            except G2PError as e:
                raise G2PError(
                    f"word {word!r}, syllable {syl.surface!r}: {e}",
                    word=word, syllable=syl.surface, offset=e.offset,
                ) from None
        try:
            pron.append(table.tone_digit(syl))
        except KeyError:
            raise G2PError(
                f"word {word!r}: no tone entry for mark {syl.tone_mark or 'none'!r}",
                word=word, syllable=syl.surface,
            ) from None
    return LexiconEntry(word=word, pron=tuple(pron))


_INV = default_inventory()
_GRAPHEMES = sorted(_INV.initials | set(_INV.finals) | _INV.medials | _INV.mains
                    | _INV.codas | set("abcdefghijklmnopqrstuvwxyz"))


def _outcome(convert, word, table):
    try:
        return convert(word, table, _INV)
    except (G2PError, ParseError) as e:
        return (type(e).__name__, str(e), getattr(e, "offset", None), getattr(e, "syllable", None))


@st.composite
def g2p_case(draw):
    """The packaged table with keys dropped and random graphemes (some long)
    added, and a word of packaged syllables that it may not cover."""
    base = default_g2p_table()
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    keep = draw(st.sampled_from([0.0, 0.7, 0.95, 1.0]))
    extra = st.dictionaries(st.sampled_from(_GRAPHEMES), st.tuples(st.sampled_from("PQRS")),
                            max_size=6)
    onset, rime, tones = ({k: v for k, v in d.items() if rng.random() < keep}
                          for d in (base.onset_entries, base.rime_entries, base.tone_map))
    table = G2PTable(onset_entries=onset | draw(extra), rime_entries=rime | draw(extra),
                     tone_map=tones)
    syllable = st.tuples(st.sampled_from([""] + sorted(_INV.initials)),
                         st.sampled_from(_INV.finals),
                         st.sampled_from(("",) + _INV.tone_letters)).map("".join)
    word = "".join(draw(st.lists(syllable, min_size=1, max_size=4)))
    return table, word


class TestLongestKeyPerView:
    """A table's views keep their longest key, and ``g2p`` gives the same
    entries and errors as measuring every key on every call."""

    @settings(max_examples=800)
    @given(g2p_case())
    def test_g2p_matches_reference(self, case):
        table, word = case
        assert _outcome(g2p, word, table) == _outcome(reference_g2p, word, table)

    @settings(max_examples=300)
    @given(g2p_case(), st.text(alphabet="abcghnqu", max_size=12))
    def test_longest_match_matches_reference(self, case, s):
        table, _ = case
        for view in (table.onset_entries, table.rime_entries):
            try:
                want = reference_longest_match(s, view)
            except G2PError as e:
                with pytest.raises(G2PError) as ei:
                    longest_match(s, view)
                assert (str(ei.value), ei.value.offset) == (str(e), e.offset)
            else:
                assert longest_match(s, view) == want

    def test_packaged_table_on_every_grapheme(self, inv, g2p_table):
        words = full_coverage_words(inv)
        assert [g2p(w, g2p_table, inv) for w in words] == \
            [reference_g2p(w, g2p_table, inv) for w in words]


class TestBuildLexicon:
    def test_one_entry_per_unique_word(self, inv, g2p_table):
        entries, failures = build_lexicon(["mienh", "dorn", "mienh"], g2p_table, inv)
        assert [e.word for e in entries] == ["mienh", "dorn"]
        assert failures == []

    def test_empty_input(self, inv, g2p_table):
        assert build_lexicon([], g2p_table, inv) == ([], [])

    def test_long_unparseable_token_is_a_failure(self, inv, g2p_table):
        entries, failures = build_lexicon(["mienh", "q" * 3000], g2p_table, inv)
        assert [e.word for e in entries] == ["mienh"]
        [(word, err)] = failures
        assert word == "q" * 3000
        assert isinstance(err, ParseError) and err.position == 0

    def test_failures_hold_no_frames(self, inv, g2p_table):
        """A kept error's traceback would hold the frames that hold the list."""
        table = G2PTable(onset_entries={"b": ("p",)}, rime_entries={"a": ("ɐ",)},
                         tone_map=g2p_table.tone_map)
        _, failures = build_lexicon(["ba", "na", "qq"], table, inv)
        assert [(w, type(e)) for w, e in failures] == [("na", G2PError), ("qq", ParseError)]
        assert all(e.__traceback__ is None and e.__context__ is None for _, e in failures)

    def test_failure_accounting(self, inv, g2p_table):
        words = ["mienh", "xyzzy", "dorn"]
        entries, failures = build_lexicon(words, g2p_table, inv)
        assert len(entries) == 2
        assert [w for w, _ in failures] == ["xyzzy"]

    def test_tone_count_property(self, inv, g2p_table):
        rng = random.Random(99)
        onsets = sorted(inv.initials)
        rimes = list(inv.finals)
        tones = [""] + list(inv.tone_letters)
        for _ in range(1000):
            n_syl = rng.randint(1, 3)
            word = "".join(rng.choice(onsets) + rng.choice(rimes) + rng.choice(tones)
                           for _ in range(n_syl))
            parse = parse_word(word, inv)
            entry = g2p(word, g2p_table, inv)
            digits = [t for t in entry.pron if t.isdigit()]
            assert len(digits) == len(parse.syllables)


class TestPhonemeVocab:
    def test_counts_on_full_coverage(self, inv, g2p_table):
        entries, failures = build_lexicon(full_coverage_words(inv), g2p_table, inv)
        assert not failures
        assert len(derive_phoneme_vocab(entries)) - 1 == 54
        assert len(derive_phoneme_vocab(entries, strip_diacritics=True)) - 1 == 44

    def test_blank_at_index_zero(self, inv, g2p_table):
        entries, _ = build_lexicon(["mienh"], g2p_table, inv)
        vocab = derive_phoneme_vocab(entries)
        assert vocab.tokens[0] == BLANK_TOKEN
        assert vocab.index(BLANK_TOKEN) == 0

    def test_single_entry_vocab(self, inv, g2p_table):
        entries, _ = build_lexicon(["na"], g2p_table, inv)
        vocab = derive_phoneme_vocab(entries)
        assert set(vocab.tokens) == {BLANK_TOKEN, "n", "ɐ", "1"}

    def test_strip_monotone_and_tone_digits_survive(self, inv, g2p_table):
        entries, _ = build_lexicon(full_coverage_words(inv), g2p_table, inv)
        full = derive_phoneme_vocab(entries)
        stripped = derive_phoneme_vocab(entries, strip_diacritics=True)
        assert len(stripped) <= len(full)
        digits = {t for t in full.tokens if t.isdigit()}
        assert digits <= set(stripped.tokens)

    def test_hn_n_merge_under_strip(self, inv, g2p_table):
        entries, _ = build_lexicon(["hnaangv", "naangv"], g2p_table, inv)
        full = derive_phoneme_vocab(entries)
        stripped = derive_phoneme_vocab(entries, strip_diacritics=True)
        assert "n̥" in full.tokens and "n" in full.tokens
        assert "n̥" not in stripped.tokens

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            derive_phoneme_vocab([])

    def test_no_tokens_is_a_value_error(self):
        with pytest.raises(ValueError, match="blank"):
            PhonemeVocab(())


class TestStripToken:
    def test_examples(self):
        assert strip_token("n̥") == "n"
        assert strip_token("t͡sʰ") == "ts"
        assert strip_token("aːɪ") == "aːɪ"
        assert strip_token("3") == "3"


class TestLexiconFiles:
    def test_round_trip(self, inv, g2p_table, tmp_path):
        entries, _ = build_lexicon(["mienh", "dorn", "ginghgungv"], g2p_table, inv)
        path = tmp_path / "lex.tsv"
        write_lexicon(entries, path)
        assert read_lexicon(path) == entries

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word-without-tab\n", encoding="utf-8")
        with pytest.raises(TableError):
            read_lexicon(path)

    @pytest.mark.parametrize("line", ["\tp1", " \tp1", "a b\tp1", "a\u3000b\tp1"])
    def test_empty_or_spaced_word_names_line(self, tmp_path, line):
        path = tmp_path / "lex.tsv"
        path.write_text(f"c\tp2\n{line}\n", encoding="utf-8")
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}:2: "):
            read_lexicon(path)

    def test_table_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\tp\nb\tq\n[tones]\nnone\t1\n", encoding="utf-8")
        with pytest.raises(TableError, match="duplicate"):
            load_g2p_table(path)

    def test_tone_digit_collision_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\t1\n[tones]\nnone\t1\n", encoding="utf-8")
        with pytest.raises(TableError, match="collide"):
            load_g2p_table(path)

    @pytest.mark.parametrize("text, line", [
        (f"b\t{BLANK_TOKEN}\n[tones]\nnone\t1\n", 1),      # a grapheme's only token
        (f"b\tp\nc\tp {BLANK_TOKEN}\n[tones]\nnone\t1\n", 2),   # one token of several
        (f"b\tp\n[tones]\nnone\t{BLANK_TOKEN}\n", 3),      # a tone digit
    ])
    def test_table_blank_token_names_line(self, tmp_path, text, line):
        """A table that loads yields pronunciations a prefix tree can spell."""
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}:{line}: .*{BLANK_TOKEN}"):
            load_g2p_table(path)

    def test_empty_vocab_file_names_path(self, tmp_path):
        path = tmp_path / "phonemes.txt"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty vocabulary")):
            read_vocab(path)

    @pytest.mark.parametrize("text, line", [
        (f"{BLANK_TOKEN}\na\n  \nb c\n", 3),   # a blank token
        (f"{BLANK_TOKEN}\na\nb c\n", 3),        # two tokens on one line
        (f"{BLANK_TOKEN}\n a\n", 2),             # a token with a leading space
        (f"{BLANK_TOKEN}\n\na\n", 2),           # an empty line would shift a's id
    ])
    def test_malformed_vocab_line_names_line(self, tmp_path, text, line):
        path = tmp_path / "phonemes.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "):
            read_vocab(path)

    def test_vocab_trailing_empty_lines_ignored(self, tmp_path):
        path = tmp_path / "phonemes.txt"
        path.write_text(f"{BLANK_TOKEN}\na\n\n\n", encoding="utf-8")
        assert read_vocab(path).tokens == (BLANK_TOKEN, "a")

    def test_duplicate_vocab_token_names_path_and_token(self, tmp_path):
        path = tmp_path / "phonemes.txt"
        path.write_text(f"{BLANK_TOKEN}\na\nb\na\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate token 'a'")):
            read_vocab(path)

    @pytest.mark.parametrize("line", ["mienh\t", "mienh\t  ", f"mienh\tm {BLANK_TOKEN} 1"])
    def test_pronunciation_without_phones_names_line(self, tmp_path, line):
        """A lexicon that loads builds a trie: no empty pronunciation, no blank in one."""
        path = tmp_path / "lex.tsv"
        path.write_text(f"dorn\tt o n 3\n{line}\n", encoding="utf-8")
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}:2: .*'mienh'"):
            read_lexicon(path)


PACKAGED_G2P = Path(mienasr.__file__).parent / "data" / "iu_mien_g2p.tsv"


class TestCheckedOnlyTone:
    """A tone mark listed only as ``mark@checked`` applies to checked syllables only."""

    def table_without_open_v(self, tmp_path):
        text = PACKAGED_G2P.read_text(encoding="utf-8").replace("\nv\t3\n", "\nv@checked\t7\n")
        assert "\nv@checked\t7\n" in text
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        return load_g2p_table(path)

    def test_checked_syllable_gets_the_digit(self, inv, tmp_path):
        table = self.table_without_open_v(tmp_path)
        assert g2p("baqv", table, inv).pron[-1] == "7"

    def test_open_syllable_has_no_entry(self, inv, tmp_path):
        table = self.table_without_open_v(tmp_path)
        with pytest.raises(G2PError, match="no tone entry for mark 'v'"):
            g2p("baav", table, inv)


class TestTableQualifiers:
    def test_unknown_tone_qualifier_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\tp\n[tones]\nnone\t1\nv@open\t3\n", encoding="utf-8")
        with pytest.raises(TableError, match=rf"^{re.escape(str(path))}:4: unknown tone qualifier"):
            load_g2p_table(path)

    def test_initial_key_only_in_onset_view(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\tp\nb@initial\tb\n[tones]\nnone\t1\n", encoding="utf-8")
        table = load_g2p_table(path)
        assert table.onset_entries["b"] == ("b",)
        assert table.rime_entries["b"] == ("p",)

    @pytest.mark.parametrize("lines", [("b\tp", "b@initial\tb"), ("b@initial\tb", "b\tp")],
                             ids=["bare-first", "qualified-first"])
    def test_qualified_key_shadows_bare_key_in_either_order(self, tmp_path, lines):
        path = tmp_path / "t.tsv"
        path.write_text("\n".join(lines) + "\n[tones]\nnone\t1\n", encoding="utf-8")
        table = load_g2p_table(path)
        assert table.onset_entries == {"b": ("b",)}
        assert table.rime_entries == {"b": ("p",)}

    def test_repeated_qualified_key_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("b\tp\nb@initial\tb\nb@initial\tm\n[tones]\nnone\t1\n",
                        encoding="utf-8")
        with pytest.raises(TableError,
                           match=rf"^{re.escape(str(path))}:3: duplicate entry 'b@initial'$"):
            load_g2p_table(path)
