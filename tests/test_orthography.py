import itertools
import random
import re
import string
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mienasr import orthography
from mienasr.orthography import (NO_TONE, InventoryConfig, InventoryError, ParseError, Syllable,
                                 default_inventory, load_inventory, parse_syllable,
                                 parse_word, report_coverage)

# the five decompositions of the published spelling-scheme examples
SPELLING_EXAMPLES = [
    ("gingh", ("g", "", "i", "ng", "h")),
    ("gungv", ("g", "", "u", "ng", "v")),
    ("baengh", ("b", "", "ae", "ng", "h")),
    ("nqaang", ("nq", "", "aa", "ng", "")),
    ("guinh", ("g", "u", "i", "n", "h")),
]


def slots(syl):
    return (syl.initial, syl.medial, syl.main, syl.final, syl.tone_mark)


class TestParseSyllable:
    @pytest.mark.parametrize("surface,expected", SPELLING_EXAMPLES)
    def test_reference_spellings(self, inv, surface, expected):
        assert slots(parse_syllable(surface, inv)) == expected

    def test_no_main_vowel(self, inv):
        with pytest.raises(ParseError):
            parse_syllable("q", inv)

    def test_round_trip(self, inv):
        for surface, _ in SPELLING_EXAMPLES:
            s = parse_syllable(surface, inv)
            assert s.initial + s.medial + s.main + s.final + s.tone_mark == surface

    def test_onsetless_syllable(self, inv):
        s = parse_syllable("aav", inv)
        assert slots(s) == ("", "", "aa", "", "v")

    def test_rejects_uppercase_and_empty(self, inv):
        with pytest.raises(ParseError):
            parse_syllable("Gingh", inv)
        with pytest.raises(ParseError):
            parse_syllable("", inv)

    def test_tone_letter_not_stripped_without_valid_rime(self, inv):
        # "oh" only parses with onset-less rime "o" + tone h; "h" alone cannot
        s = parse_syllable("hoz", inv)
        assert slots(s) == ("h", "", "o", "", "z")


class TestParseWord:
    def test_two_syllable_word(self, inv):
        p = parse_word("ginghgungv", inv)
        assert [s.surface for s in p.syllables] == ["gingh", "gungv"]

    def test_single_syllable(self, inv):
        p = parse_word("baengh", inv)
        assert len(p.syllables) == 1
        assert slots(p.syllables[0]) == ("b", "", "ae", "ng", "h")

    def test_concatenated_known_parse(self, inv):
        p = parse_word("ginghgingh", inv)
        assert [slots(s) for s in p.syllables] == [("g", "", "i", "ng", "h")] * 2

    def test_surface_concatenation_reproduces_word(self, inv):
        for w in ["ginghgungv", "mienh", "hnangv", "nziepc", "guinh"]:
            p = parse_word(w, inv)
            assert "".join(s.surface for s in p.syllables) == w

    def test_failure_position(self, inv):
        with pytest.raises(ParseError) as ei:
            parse_word("ginghqq", inv)
        assert ei.value.position == 5

    def test_determinism(self, inv):
        a = parse_word("ginghgungv", inv)
        b = parse_word("ginghgungv", inv)
        assert a == b

    def test_long_word_parses_in_bounded_depth(self, inv):
        """3,000 letters would need a frame per syllable under recursion."""
        start = time.perf_counter()
        p = parse_word("a" * 3000, inv)
        assert time.perf_counter() - start < 1.0
        assert [s.surface for s in p.syllables] == ["aa"] * 1500

    def test_longest_syllable_is_derived(self, inv, tiny_inv):
        assert inv._syllable_len == max(map(len, inv.initials)) + max(map(len, inv.finals)) + 1
        assert tiny_inv._syllable_len == 2 + 4 + 1

    @pytest.mark.parametrize("name", ["_initial_set", "_initial_lens", "_syllable_len",
                                      "_final_set", "_rime_slots"])
    def test_derived_fields_are_not_parameters(self, tiny_inv, name):
        """Each lookup structure is derived from the inventory, never passed in."""
        fields = {f: getattr(tiny_inv, f) for f in ("initials", "finals", "medials", "mains",
                                                    "codas", "tone_letters")}
        assert InventoryConfig(**fields) == tiny_inv
        with pytest.raises(TypeError, match=name):
            InventoryConfig(**fields, **{name: getattr(tiny_inv, name)})

    def test_coverage_report_drops_nothing(self, inv):
        tokens = ["mienh", "zzzz", "dorn", "qqq", "mienh"]
        parses, failures = report_coverage(tokens, inv)
        assert set(parses) | {w for w, _ in failures} == set(tokens)
        assert {w for w, _ in failures} == {"zzzz", "qqq"}

    def test_coverage_failures_hold_no_frames(self, inv):
        """A kept error's traceback would hold the frames that hold the list."""
        _, failures = report_coverage(["mienh", "zzzz", "q" * 50], inv)
        assert [w for w, _ in failures] == ["zzzz", "q" * 50]
        assert all(e.__traceback__ is None and e.__context__ is None for _, e in failures)


def oracle_syllable(s, inv):
    """Independent preference-order enumeration of one syllable."""
    finals = set(inv.finals)
    candidates = []
    tone_options = []
    if s and s[-1] in inv.tone_letters:
        tone_options.append((s[:-1], s[-1], 0))
    tone_options.append((s, "", 1))
    for body, tone, tone_rank in tone_options:
        for onset in sorted(inv.initials, key=len, reverse=True) + [""]:
            if body.startswith(onset) and body[len(onset):] in finals:
                candidates.append((tone_rank, -len(onset), onset, body[len(onset):], tone))
    if not candidates:
        return None
    _, _, onset, rime, tone = min(candidates)
    return onset, rime, tone


def oracle_word(w, inv):
    """All segmentations, preferred by lexicographically longest syllables."""
    def rec(i):
        if i == len(w):
            return ()
        for j in range(len(w), i, -1):
            if oracle_syllable(w[i:j], inv) is not None:
                rest = rec(j)
                if rest is not None:
                    return (w[i:j],) + rest
        return None
    return rec(0)


class TestOracleEquivalence:
    def check(self, w, inv):
        expected = oracle_word(w, inv)
        if expected is None:
            with pytest.raises(ParseError):
                parse_word(w, inv)
            return
        p = parse_word(w, inv)
        assert tuple(s.surface for s in p.syllables) == expected
        for syl in p.syllables:
            onset, rime, tone = oracle_syllable(syl.surface, inv)
            assert (syl.initial, syl.rime, syl.tone_mark) == (onset, rime, tone)

    def test_exhaustive_short_words(self, tiny_inv):
        alphabet = "abgnq"
        for n in range(1, 6):
            for tup in itertools.product(alphabet, repeat=n):
                self.check("".join(tup), tiny_inv)

    def test_sampled_longer_words(self, tiny_inv):
        rng = random.Random(20240811)
        alphabet = "abgnqhvzxc"
        for _ in range(500):
            n = rng.randint(6, 8)
            self.check("".join(rng.choice(alphabet) for _ in range(n)), tiny_inv)


def reference_match_syllable(s, inv):
    """``_match_syllable`` as it was before the indexed onset lookup, kept
    verbatim but for building the longest-first list of initials that the
    inventory held then."""
    _initials_by_len = tuple(sorted(inv.initials, key=lambda g: (-len(g), g)))
    if s and s[-1] in inv.tone_letters:
        candidates = [(s[:-1], s[-1]), (s, NO_TONE)]
    else:
        candidates = [(s, NO_TONE)]
    for body, tone in candidates:
        if not body:
            continue
        for onset in _initials_by_len:
            if body.startswith(onset) and body[len(onset):] in inv._final_set:
                medial, main, coda = inv._rime_slots[body[len(onset):]]
                return Syllable(onset, medial, main, coda, tone, s)
        if body in inv._final_set:  # onsetless syllable
            medial, main, coda = inv._rime_slots[body]
            return Syllable("", medial, main, coda, tone, s)
    return None


def _word_outcome(w, inv):
    try:
        return parse_word(w, inv)
    except ParseError as e:
        return ("error", str(e), e.position)


# Every default final starts with a vowel, so at most one onset split of a
# syllable is ever valid there; this inventory has finals that start with
# letters initials end in ("hma" is "hm"+"a" or "h"+"ma"), so the
# longest-onset rule decides.
_AMBIGUOUS_INV = InventoryConfig(
    initials=("g", "h", "hm", "m", "n", "ng"),
    finals=("a", "ang", "m", "ma", "ng"),
    medials=frozenset(),
    mains=frozenset({"a", "m", "ma", "ng"}),
    codas=frozenset({"ng"}),
    tone_letters=("h", "v", "z", "x", "c"),
)


def _spelling(inv):
    pieces = sorted(set(inv.initials) | set(inv.finals) | inv.medials | inv.mains
                    | inv.codas | set(inv.tone_letters) | set(string.ascii_lowercase))
    return st.tuples(st.just(inv), st.lists(st.sampled_from(pieces), min_size=1,
                                            max_size=6).map("".join))


class TestOnsetLookup:
    """The indexed onset lookup gives the same syllables, parses and errors
    as the linear scan over the initials it replaced."""

    @settings(max_examples=1500)
    @given(st.sampled_from([default_inventory(), _AMBIGUOUS_INV]).flatmap(_spelling))
    @example((_AMBIGUOUS_INV, "hmangc"))
    def test_matches_reference(self, case):
        inv, w = case
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert orthography._match_syllable(w[i:j], inv) == \
                    reference_match_syllable(w[i:j], inv)
        got = _word_outcome(w, inv)
        with mock.patch.object(orthography, "_match_syllable", reference_match_syllable):
            want = _word_outcome(w, inv)
        assert got == want


def reference_parse_word(w, inv):
    """``parse_word`` as it was before the explicit stack, kept verbatim: one
    recursive call per syllable, every end from the word's end down."""
    orthography._check_lowercase(w, "word")
    n = len(w)
    best_fail = 0
    memo = {n: ()}

    def parse_from(i):
        nonlocal best_fail
        if i in memo:
            return memo[i]
        for j in range(n, i, -1):
            syl = orthography._match_syllable(w[i:j], inv)
            if syl is None:
                continue
            rest = parse_from(j)
            if rest is not None:
                memo[i] = (syl,) + rest
                return memo[i]
        best_fail = max(best_fail, i)
        memo[i] = None
        return None

    syllables = parse_from(0)
    if syllables is None:
        raise ParseError(f"word {w!r} unparseable at position {best_fail}", w, best_fail)
    return orthography.WordParse(w, syllables)


def _outcome(parse, w, inv):
    try:
        return parse(w, inv)
    except ParseError as e:
        return ("error", str(e), e.position)


def _long_spelling(inv):
    """Words of up to 14 pieces: syllables, graphemes and stray letters."""
    syllable = st.tuples(st.sampled_from(("",) + inv.initials), st.sampled_from(inv.finals),
                         st.sampled_from(("",) + inv.tone_letters)).map("".join)
    pieces = st.one_of(syllable, syllable, st.sampled_from(sorted(
        set(inv.finals) | inv.codas | set(inv.tone_letters) | set(string.ascii_lowercase))))
    return st.tuples(st.just(inv), st.lists(pieces, min_size=1, max_size=14).map("".join))


class TestIterativeParse:
    """The explicit-stack parse gives the same syllables, or the same error
    message and position, as the recursion it replaced."""

    @settings(max_examples=1500)
    @given(st.sampled_from([default_inventory(), _AMBIGUOUS_INV]).flatmap(
        lambda inv: st.one_of(_spelling(inv), _long_spelling(inv))))
    @example((_AMBIGUOUS_INV, "hmangc"))
    def test_matches_recursive_reference(self, case):
        inv, w = case
        assert _outcome(parse_word, w, inv) == _outcome(reference_parse_word, w, inv)


class TestInventoryLoading:
    def test_default_counts(self, inv):
        assert len(inv.initials) == 30
        assert len(inv.finals) == 128
        assert set(inv.tone_letters) == {"h", "v", "z", "x", "c"}

    def test_duplicate_grapheme_rejected(self, tmp_path):
        f = tmp_path / "inv.txt"
        f.write_text("[initials]\nnq\nnq\n[mains]\na\n[finals]\na\n"
                     "[tones]\nh\nv\nz\nx\nc\n")
        with pytest.raises(InventoryError, match="duplicate"):
            load_inventory(f)

    def test_non_latin_grapheme_rejected(self, tmp_path):
        f = tmp_path / "inv.txt"
        f.write_text("[initials]\nné\n[mains]\na\n[finals]\na\n"
                     "[tones]\nh\nv\nz\nx\nc\n")
        with pytest.raises(InventoryError, match="Latin"):
            load_inventory(f)

    def test_wrong_tone_letters_rejected(self, tmp_path):
        f = tmp_path / "inv.txt"
        f.write_text("[initials]\nb\n[mains]\na\n[finals]\na\n[tones]\nh\nv\n")
        with pytest.raises(InventoryError, match="tone letters"):
            load_inventory(f)

    def test_cardinality_mismatch_warns_not_fails(self, tmp_path, caplog):
        f = tmp_path / "inv.txt"
        f.write_text("[initials] expect 30\nb\n[mains]\na\n[finals]\na\n"
                     "[tones]\nh\nv\nz\nx\nc\n")
        import logging
        with caplog.at_level(logging.WARNING):
            cfg = load_inventory(f)
        assert len(cfg.initials) == 1
        assert any("expected 30" in r.message for r in caplog.records)

    def test_grapheme_outside_section(self, tmp_path):
        f = tmp_path / "inv.txt"
        f.write_text("b\n[initials]\nb\n")
        with pytest.raises(InventoryError, match="outside"):
            load_inventory(f)

    def test_undecomposable_final_names_file(self, tmp_path):
        shipped = Path(orthography.__file__).parent / "data" / "iu_mien_inventory.txt"
        f = tmp_path / "inv.txt"
        f.write_text(shipped.read_text(encoding="utf-8") + "[finals]\nzzzq\n", encoding="utf-8")
        with pytest.raises(InventoryError, match=re.escape(f"{f}: final 'zzzq' does not decompose")):
            load_inventory(f)
