"""Syllable parsing for the Iu Mien Unified Script (IMUC).

IMUC is a phonetic syllabic romanization of Iu Mien built from the 26 basic
Latin letters.  A written syllable decomposes into five slots:

    initial  optional onset consonant grapheme ("g", "nq", "hny", ...)
    medial   optional initial vowel ("i" or "u")
    main     obligatory main vowel ("i", "aa", "ae", ...)
    final    optional coda consonant ("m", "n", "ng", "p", "t", "k", "q")
    tone     optional word-final tone letter from {h, v, z, x, c}

A syllable with no tone letter carries the mid-level tone.  The grapheme
inventory (onsets, rimes, tone letters) lives in a versioned config file so
corrections never require code changes; see ``load_inventory`` for the
format.

Parsing is maximal-munch with backtracking: the longest onset wins first
("nqaang" takes "nq", not "n"), then the remainder must match a listed rime;
a trailing tone letter is stripped only when the remainder still parses.
All parse functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .inputs import convert_distinct, located, read_utf8

logger = logging.getLogger(__name__)

TONE_LETTERS = ("h", "v", "z", "x", "c")
NO_TONE = ""

_SECTIONS = ("initials", "medials", "mains", "codas", "finals", "tones")


class InventoryError(ValueError):
    """Malformed or inconsistent inventory file."""


class ParseError(ValueError):
    """Input does not decompose under the inventory.

    ``position`` is the offset in the parsed text of the first character
    that could not be consumed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class InventoryConfig:
    """Grapheme inventory of the orthography, immutable after load."""

    initials: frozenset[str]
    finals: tuple[str, ...]
    medials: frozenset[str]
    mains: frozenset[str]
    codas: frozenset[str]
    tone_letters: tuple[str, ...]
    # lookup structures derived in __post_init__
    _initial_lens: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _syllable_len: int = field(init=False, repr=False, compare=False)
    _rime_slots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_initial_lens",
                           tuple(sorted({len(g) for g in self.initials}, reverse=True)))
        # the longest written syllable: longest initial + longest final + a tone letter
        object.__setattr__(self, "_syllable_len", max(map(len, self.initials), default=0)
                           + max(map(len, self.finals), default=0) + 1)
        slots = {}
        for rime in self.finals:
            parts = _split_rime(rime, self.medials, self.mains, self.codas)
            if parts is None:
                raise InventoryError(
                    f"final {rime!r} does not decompose into medial+main+coda "
                    "under the listed medials/mains/codas"
                )
            slots[rime] = parts
        object.__setattr__(self, "_rime_slots", slots)


@dataclass(frozen=True)
class Syllable:
    """Five-slot decomposition of one written syllable.

    Empty strings denote absent optional slots; ``tone_mark`` is "" for the
    unmarked mid-level tone.
    """

    initial: str
    medial: str
    main: str
    final: str
    tone_mark: str

    @property
    def rime(self) -> str:
        return self.medial + self.main + self.final

    @property
    def surface(self) -> str:
        """The written syllable: its slots, concatenated."""
        return self.initial + self.rime + self.tone_mark

    @property
    def checked(self) -> bool:
        """True for syllables closed by a stop coda (entering-tone class)."""
        return self.final in ("p", "t", "k", "q")


@dataclass(frozen=True)
class WordParse:
    """Syllabification of a whole written word."""

    syllables: tuple[Syllable, ...]


def _split_rime(rime, medials, mains, codas):
    """Decompose a rime into (medial, main, coda), medial-first preference."""
    heads = [rime[0]] if rime[0] in medials else []
    heads.append("")
    for medial in heads:
        rest = rime[len(medial):]
        for cut in range(len(rest), 0, -1):
            main, coda = rest[:cut], rest[cut:]
            if main in mains and (coda == "" or coda in codas):
                return medial, main, coda
    return None


def load_inventory(path=None) -> InventoryConfig:
    """Load and validate a grapheme inventory file; no path loads the packaged one.

    Format: UTF-8 text with sections ``[initials]``, ``[medials]``,
    ``[mains]``, ``[codas]``, ``[finals]``, ``[tones]``, one grapheme per
    line, ``#`` comments.  A section header may carry ``expect N``; a
    cardinality mismatch against it logs a warning but does not fail.

    Raises InventoryError for malformed files, duplicate graphemes, or
    graphemes containing characters outside a-z.
    """
    path = path or Path(__file__).parent / "data" / "iu_mien_inventory.txt"
    with located(path, InventoryError) as at:
        sections: dict[str, list[str]] = {name: [] for name in _SECTIONS}
        expected: dict[str, int] = {}
        current: Optional[str] = None
        for at.line, raw in enumerate(read_utf8(path).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if "]" not in line:
                    raise InventoryError("unterminated section header")
                name = line[1:line.index("]")].strip()
                if name not in _SECTIONS:
                    raise InventoryError(f"unknown section [{name}]")
                current = name
                tail = line[line.index("]") + 1:].split()
                if tail:
                    if len(tail) != 2 or tail[0] != "expect" or not tail[1].isdigit():
                        raise InventoryError(f"bad section annotation {tail}")
                    expected[name] = int(tail[1])
                continue
            if current is None:
                raise InventoryError("grapheme outside any section")
            if not line.isascii() or not line.isalpha() or not line.islower():
                raise InventoryError(f"grapheme {line!r} is not lowercase basic Latin")
            if line in sections[current]:
                raise InventoryError(f"duplicate grapheme {line!r} in [{current}]")
            sections[current].append(line)
        at.line = None

        for name in ("initials", "mains", "finals", "tones"):
            if not sections[name]:
                raise InventoryError(f"missing or empty section [{name}]")
        if set(sections["tones"]) != set(TONE_LETTERS):
            raise InventoryError(
                f"tone letters must be exactly {set(TONE_LETTERS)}, "
                f"got {set(sections['tones'])}"
            )
        for name, want in expected.items():
            have = len(sections[name])
            if have != want:
                logger.warning("%s: [%s] lists %d graphemes, expected %d", path, name, have, want)

        return InventoryConfig(
            initials=frozenset(sections["initials"]),
            finals=tuple(sections["finals"]),
            medials=frozenset(sections["medials"]),
            mains=frozenset(sections["mains"]),
            codas=frozenset(sections["codas"]),
            tone_letters=tuple(sections["tones"]),
        )


def default_inventory() -> InventoryConfig:
    """The Iu Mien inventory shipped with the package."""
    return load_inventory()


def _check_lowercase(s: str, what: str):
    if not s:
        raise ParseError(f"empty {what}", 0)
    for i, ch in enumerate(s):
        if not ("a" <= ch <= "z"):
            raise ParseError(f"{what} contains non-lowercase-Latin character {ch!r}", i)


def _match_syllable(s: str, inv: InventoryConfig) -> Optional[Syllable]:
    """One whole-string syllable match, or None.

    Onsets are tried by length, longest first, as ``body[:n]`` in the set of
    initials: at most one initial of each length is a prefix of ``body``, so
    this picks the same onset as scanning every initial longest first.  A
    ``body`` shorter than ``n`` leaves an empty rime, which no final is.  The
    onset test comes first, as it fails for most lengths.
    """
    if s and s[-1] in inv.tone_letters:
        candidates = [(s[:-1], s[-1]), (s, NO_TONE)]
    else:
        candidates = [(s, NO_TONE)]
    for body, tone in candidates:
        if not body:
            continue
        for n in inv._initial_lens:
            if body[:n] in inv.initials:
                slots = inv._rime_slots.get(body[n:])
                if slots is not None:
                    return Syllable(body[:n], *slots, tone)
        slots = inv._rime_slots.get(body)
        if slots is not None:  # onsetless syllable
            return Syllable("", *slots, tone)
    return None


def parse_syllable(s: str, inv: InventoryConfig) -> Syllable:
    """Decompose one syllable string into its five slots.

    Maximal munch: a trailing tone letter is stripped first when the
    remainder still forms onset+rime, the longest listed onset wins, and the
    remainder must match a listed rime exactly.
    """
    _check_lowercase(s, "syllable")
    syl = _match_syllable(s, inv)
    if syl is None:
        raise ParseError(f"no valid syllable decomposition for {s!r}", 0)
    return syl


def parse_word(w: str, inv: InventoryConfig) -> WordParse:
    """Segment a word into syllables, leftmost-longest with backtracking.

    Every character must be consumed; on failure the error carries the
    position of the first unparseable suffix: the furthest position the
    search reached whose suffix has no parse.

    The search is depth first with an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.  From each position it
    tries syllable ends longest first, but no candidate longer than the
    inventory's longest syllable, and each position is settled once.
    """
    _check_lowercase(w, "word")
    n = len(w)
    longest = inv._syllable_len
    best_fail = 0
    parsed: dict[int, Optional[tuple[Syllable, int]]] = {n: None}  # position -> (syllable, end)
    failed: set[int] = set()
    stack = [(0, min(n, longest))]   # (position, the next syllable end to try from it)
    while stack:
        i, j = stack.pop()
        while j > i:
            syl = _match_syllable(w[i:j], inv)
            if syl is not None and j not in failed:
                if j in parsed:
                    parsed[i] = (syl, j)
                else:   # settle the rest first, then try this end again
                    stack.append((i, j))
                    stack.append((j, min(n, j + longest)))
                break
            j -= 1
        else:
            failed.add(i)
            best_fail = max(best_fail, i)
    if 0 in failed:
        raise ParseError(f"word {w!r} unparseable at position {best_fail}", best_fail)
    syllables = []
    i = 0
    while i < n:
        syl, i = parsed[i]
        syllables.append(syl)
    return WordParse(tuple(syllables))


def report_coverage(tokens: Iterable[str], inv: InventoryConfig):
    """Parse a token stream; returns (parses, failures).

    Nothing is dropped silently: each distinct token lands either in the
    parse map or in the failure list (token, ParseError).
    """
    return convert_distinct(tokens, lambda t: parse_word(t, inv), ParseError)
