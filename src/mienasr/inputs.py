"""How an input file becomes text, how a fault in it is reported, how a
token-per-line file is read, and how an artifact's lines are written.

Every reader decodes its file with ``read_utf8`` inside a ``located`` block.
A ValueError raised in the block, an undecodable byte included, leaves it as
the reader's own error type, prefixed with ``path``, or with ``path:line``
while the reader has set the yielded ``line``.  The prefix is formatted only
on error, so a hot loop pays one attribute store per line:
``for at.line, raw in enumerate(lines, 1)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace


@contextmanager
def located(where, error=ValueError):
    """Yield a namespace with ``line``; a ValueError inside becomes ``error``."""
    at = SimpleNamespace(line=None)
    try:
        yield at
    except ValueError as e:
        prefix = where if at.line is None else f"{where}:{at.line}"
        raise error(f"{prefix}: {e}") from None


def read_utf8(path, fault: str = "not UTF-8 text") -> str:
    """The file's text, newlines translated; an undecodable byte is ``fault``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{fault}: byte {e.object[e.start]:#04x} at offset {e.start}") from None


def token_lines(lines, at, first: int = 1) -> tuple[str, ...]:
    """One token per line, the first on line ``first``, as a tuple.

    Only trailing lines may be empty, since an empty line would shift the
    ids after it; a token holding whitespace is a fault at its ``at.line``.
    """
    end = len(lines)
    while end and not lines[end - 1]:
        end -= 1
    for at.line, token in enumerate(lines[:end], first):
        if token.split() != [token]:   # pronunciations and texts split on whitespace
            raise ValueError(f"token {token!r} is empty or holds whitespace")
    at.line = None
    return tuple(lines[:end])


def write_lines(path, lines) -> None:
    """Write an artifact as UTF-8 text, one item per line, newline-terminated."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def convert_distinct(tokens, convert, errors):
    """``(token -> result, failures)`` over the distinct tokens, first seen first.

    A token whose conversion raises one of ``errors`` is reported as
    ``(token, error)``, never dropped.  A kept error has no traceback or
    chained error: their frames would hold the failure list, a reference
    cycle that only the garbage collector frees.
    """
    results, failures = {}, []
    for token in dict.fromkeys(tokens):
        try:
            results[token] = convert(token)
        except errors as e:
            e.__traceback__ = e.__context__ = None
            failures.append((token, e))
    return results, failures
