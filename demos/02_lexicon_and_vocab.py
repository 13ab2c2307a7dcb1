#!/usr/bin/env python3
"""Build a pronunciation lexicon and derive the phoneme vocabulary.

Each word is converted syllable by syllable with greedy longest match over
the grapheme->IPA table, then one tone digit per syllable is appended.
Diacritics are retained ('hn' -> /n̥/ stays distinct from 'n' -> /n/) and
diphthongs are single tokens; an optional stripping pass merges the
diacritic pairs for interop with diacritic-free phoneme sets.
"""

from mienasr.lexicon import (build_lexicon, default_g2p_table,
                             derive_phoneme_vocab, g2p)
from mienasr.orthography import default_inventory

inv = default_inventory()
table = default_g2p_table()

print("single words:")
for word in ["mienh", "hnoi", "duqv", "ginghgungv"]:
    entry = g2p(word, table, inv)
    print(f"  {word:12s} -> {' '.join(entry.pron)}")

print("\nthe voiceless/plain pair that motivates keeping diacritics:")
print(f"  hnaangv -> {' '.join(g2p('hnaangv', table, inv).pron)}")
print(f"  naangv  -> {' '.join(g2p('naangv', table, inv).pron)}")

# a synthetic word list touching every grapheme of the inventory
words = [i + "a" for i in sorted(inv.initials)]
words += ["b" + m for m in sorted(inv.mains)]
words += ["ba" + c for c in sorted(inv.codas)]
words += ["ba" + t for t in inv.tone_letters]
entries, failures = build_lexicon(words, table, inv)
print(f"\nfull-coverage lexicon: {len(entries)} entries, {len(failures)} failures")

full = derive_phoneme_vocab(entries)
stripped = derive_phoneme_vocab(entries, strip_diacritics=True)
print(f"phoneme vocabulary: {len(full) - 1} tokens with diacritics, "
      f"{len(stripped) - 1} after stripping (tones kept)")
print("tokens:", " ".join(full.tokens[1:]))
