"""Word -> IPA pronunciation lexicon via longest-match grapheme conversion.

Pronunciations are produced by applying an IMUC-grapheme -> IPA table to each
parsed syllable with greedy left-to-right longest match, then appending one
tone-digit token per syllable.  Diacritics are retained and diphthongs stay
single tokens, so e.g. the onsets written "hn" and "n" map to the distinct
tokens /n̥/ and /n/.

Tone digits 1-6 cover the six surface tone marks in the fixed order
(none, h, v, z, x, c).  The table format accepts ``v@checked`` / ``c@checked``
overrides that split the entering tones of stop-final syllables off as
digits 7 and 8, which is how the orthography's eight-tone system is realized
from six written marks.

The table is data (see data/iu_mien_g2p.tsv).  Published phoneme-inventory
sizes (54 with diacritics, 44 without) are not checked, since they depend on
the exact table and corpus coverage; the one soft check is the ``expect N``
of an inventory file's section header (see ``orthography.load_inventory``).
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import BLANK_TOKEN
from .inputs import convert_distinct, located, read_utf8, token_lines, write_lines
from .orthography import InventoryConfig, ParseError, Syllable, parse_word

logger = logging.getLogger(__name__)

CHECKED = "checked"
OPEN = "open"

# combining marks plus the aspiration modifier letter; length marks and
# tone digits are never touched
_ASPIRATION = "ʰ"


class G2PError(ValueError):
    """A grapheme span has no table entry.

    Carries the word, the offending syllable surface, and the character
    offset of the untranslatable span within that field.
    """

    def __init__(self, message, word="", syllable="", offset=0):
        super().__init__(message)
        self.word = word
        self.syllable = syllable
        self.offset = offset


class TableError(ValueError):
    """Malformed G2P table file."""


@dataclass(frozen=True)
class G2PTable:
    """Grapheme->IPA entries plus the tone-digit map, immutable after load.

    ``onset_entries`` and ``rime_entries`` are the position-resolved views of
    the table: bare keys appear in both, ``@initial`` / ``@final`` qualified
    keys only in their own view (shadowing the bare key).  ``tone_map`` is
    keyed by (tone_mark, syllable_class) with tone_mark "" for the unmarked
    mid-level tone and class "open" or "checked".
    """

    onset_entries: dict[str, tuple[str, ...]]
    rime_entries: dict[str, tuple[str, ...]]
    tone_map: dict[tuple[str, str], str]
    # each view's longest key, derived in __post_init__
    _onset_len: int = field(init=False, repr=False, compare=False)
    _rime_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_onset_len", _longest_key(self.onset_entries))
        object.__setattr__(self, "_rime_len", _longest_key(self.rime_entries))

    def tone_digit(self, syllable: Syllable) -> str:
        cls = CHECKED if syllable.checked else OPEN
        return self.tone_map[(syllable.tone_mark, cls)]


@dataclass(frozen=True)
class LexiconEntry:
    """A word and a pronunciation that one prefix-tree path can spell."""

    word: str
    pron: tuple[str, ...]

    def __post_init__(self):
        if self.word.split() != [self.word]:   # "" or "a b" would not read back as one word
            raise ValueError(f"lexicon word {self.word!r} is empty or holds whitespace")
        if not self.pron:
            raise ValueError(f"word {self.word!r} has an empty pronunciation")
        if BLANK_TOKEN in self.pron:
            raise ValueError(f"word {self.word!r} pronunciation contains the blank")


@dataclass(frozen=True)
class PhonemeVocab:
    """Frozen phoneme token list with the CTC blank at index 0."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("a vocabulary needs the blank token at index 0")
        if self.tokens[0] != BLANK_TOKEN:
            raise ValueError(f"index 0 must be the blank token, got {self.tokens[0]!r}")
        if len(set(self.tokens)) != len(self.tokens):
            dup = next(t for i, t in enumerate(self.tokens) if t in self.tokens[:i])
            raise ValueError(f"duplicate token {dup!r} in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise KeyError(f"token {token!r} not in phoneme vocabulary") from None


def load_g2p_table(path=None) -> G2PTable:
    """Load a grapheme->IPA table file; no path loads the packaged table.

    Format: UTF-8 TSV ``grapheme TAB ipa-tokens`` (tokens space-separated),
    ``#`` comments, then a ``[tones]`` section of ``tone-mark TAB digit``
    lines where the mark "none" denotes the unmarked tone and marks may carry
    a ``@checked`` qualifier.  No value may hold the blank token.
    """
    path = path or Path(__file__).parent / "data" / "iu_mien_g2p.tsv"
    with located(path, TableError) as at:
        # each section holds one dict per key qualifier; a key listed twice is a fault
        graphemes: dict[str, dict] = {"": {}, "initial": {}, "final": {}}
        tones: dict[str, dict] = {"": {}, CHECKED: {}}
        views = graphemes
        for at.line, raw in enumerate(read_utf8(path).splitlines(), 1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line.strip() == "[tones]":
                views = tones
                continue
            if "\t" not in line:
                raise TableError("expected TAB-separated entry")
            key, value = line.split("\t", 1)
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise TableError("empty key or value")
            if BLANK_TOKEN in value.split():   # no prefix-tree path can spell it
                raise TableError(f"the blank {BLANK_TOKEN} is not a phoneme or tone digit")
            name, _, qual = key.partition("@")
            kind = "tone " if views is tones else ""
            name = "" if views is tones and name == "none" else name   # the unmarked tone
            if qual not in views:
                raise TableError(f"unknown {kind}qualifier {qual!r}")
            if name in views[qual]:
                raise TableError(f"duplicate {kind}entry {key!r}")
            views[qual][name] = value if views is tones else tuple(value.split())
        at.line = None
        # a qualified key shadows the bare key in its own view, whatever the line order
        onset = {**graphemes[""], **graphemes["initial"]}
        rime = {**graphemes[""], **graphemes["final"]}

        if not tones[""]:
            raise TableError("missing [tones] section")
        # a mark@checked line overrides, or alone supplies, the mark's checked digit
        tone_map = {(mark, cls): digit
                    for mark, digit in tones[""].items() for cls in (OPEN, CHECKED)}
        tone_map.update(((mark, CHECKED), digit) for mark, digit in tones[CHECKED].items())

        base_tokens = {t for toks in list(onset.values()) + list(rime.values()) for t in toks}
        clash = base_tokens & set(tone_map.values())
        if clash:
            raise TableError(f"tone digits collide with IPA tokens: {sorted(clash)}")
        return G2PTable(onset_entries=onset, rime_entries=rime, tone_map=tone_map)


def default_g2p_table() -> G2PTable:
    """The Iu Mien G2P table shipped with the package."""
    return load_g2p_table()


def _longest_key(entries: dict[str, tuple[str, ...]]) -> int:
    return max((len(k) for k in entries), default=0)


def longest_match(s: str, entries: dict[str, tuple[str, ...]]) -> list[str]:
    """Greedy left-to-right maximal munch of ``s`` over the entry keys.

    At each position the longest matching key is consumed; no backtracking.
    Raises G2PError (with the stuck offset) if no key matches.
    """
    return _munch(s, entries, _longest_key(entries))


def _munch(s: str, entries: dict[str, tuple[str, ...]], max_len: int) -> list[str]:
    """``longest_match`` given the length of the longest key in ``entries``."""
    out: list[str] = []
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


def g2p(word: str, table: G2PTable, inv: InventoryConfig) -> LexiconEntry:
    """Convert one word to its phoneme sequence.

    The word is syllabified first; each syllable's onset and rime are then
    converted by longest match (the rime view sees coda overrides such as
    q -> /ʔ/), and the syllable's tone digit is appended.
    """
    parse = parse_word(word, inv)
    pron: list[str] = []
    for syl in parse.syllables:
        for text, view, max_len in ((syl.initial, table.onset_entries, table._onset_len),
                                    (syl.rime, table.rime_entries, table._rime_len)):
            if not text:
                continue
            try:
                pron.extend(_munch(text, view, max_len))
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


def build_lexicon(
    words: Iterable[str], table: G2PTable, inv: InventoryConfig
) -> tuple[list[LexiconEntry], list[tuple[str, Exception]]]:
    """One entry per unique translatable word, plus a failure report.

    Words are deduplicated internally, order preserved.  Untranslatable or
    unparseable words are reported, never silently skipped.
    """
    entries, failures = convert_distinct(words, lambda w: g2p(w, table, inv),
                                         (G2PError, ParseError))
    return list(entries.values()), failures


def strip_token(token: str) -> str:
    """Remove diacritics other than tone marking from one IPA token.

    Strips combining marks (voiceless rings, tie bars) and the aspiration
    modifier; length marks, base letters and tone digits pass through.
    """
    return "".join(
        c for c in token
        if c != _ASPIRATION and unicodedata.category(c) != "Mn"
    )


def derive_phoneme_vocab(
    lexicon: Sequence[LexiconEntry],
    strip_diacritics: bool = False,
) -> PhonemeVocab:
    """Union of all pronunciation tokens, sorted, with blank at index 0.

    With ``strip_diacritics`` tokens are normalized by ``strip_token`` before
    the union, which merges e.g. /n̥/ into /n/ while tone digits survive.
    """
    if not lexicon:
        raise ValueError("cannot derive a vocabulary from an empty lexicon")
    tokens = set()
    for entry in lexicon:
        for tok in entry.pron:
            tokens.add(strip_token(tok) if strip_diacritics else tok)
    logger.info("phoneme vocabulary: %d tokens (excluding blank)", len(tokens))
    return PhonemeVocab(tokens=(BLANK_TOKEN,) + tuple(sorted(tokens)))


def write_lexicon(entries: Sequence[LexiconEntry], path) -> None:
    """Two-column TSV: word TAB space-separated phoneme tokens."""
    write_lines(path, [f"{e.word}\t{' '.join(e.pron)}" for e in entries])


def read_lexicon(path) -> list[LexiconEntry]:
    entries = []
    with located(path, TableError) as at:
        for at.line, line in enumerate(read_utf8(path).splitlines(), 1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise TableError("expected TAB-separated lexicon line")
            word, pron = line.split("\t", 1)
            entries.append(LexiconEntry(word=word.strip(), pron=tuple(pron.split())))
    return entries


def write_vocab(vocab: PhonemeVocab, path) -> None:
    """One token per line, blank first (line number = token id)."""
    write_lines(path, vocab.tokens)


def read_vocab(path) -> PhonemeVocab:
    """One token per line, blank first; only trailing lines may be empty."""
    with located(path) as at:
        tokens = token_lines(read_utf8(path).splitlines(), at)
        if not tokens:
            raise ValueError("empty vocabulary file")
        return PhonemeVocab(tokens=tokens)
