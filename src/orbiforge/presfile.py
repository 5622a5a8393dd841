"""Parser and renderer for the presentation file format.

Format (UTF-8 text, lines broken at LF, CRLF or CR only, `#` starts a
comment):

    group <name>
    gens <id> <id> ...
    rel <word>        # one line per relator

Word grammar: whitespace-separated terms; a term is a generator identifier
or a parenthesized word.  A power ^<signed integer>, its ASCII digits
required, applies to the term just before it.  Example: `rel (a b)^2`.  A
`^` without digits, or with no term before it, is an error.  Parentheses may
nest to any depth; only the letter cap, MAX_WORD_LETTERS, bounds a word.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby

from .fpgroup import Presentation, Word


@dataclass
class ParseError(ValueError):
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}: {self.message}"


# the most letters a written word may have, powers expanded, before free reduction
MAX_WORD_LETTERS = 1_000_000

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# a word's tokens; any other non-space character is an unexpected token
_TOKEN_RE = re.compile(
    rf"(?P<name>{_NAME})|\^(?P<sign>-?)0*(?P<digits>[0-9]+)|(?P<open>\()|(?P<close>\))|\S")


def _letters(text: str, col0: int, line: int, gen_index: dict[str, int]) -> list[int]:
    """The letters of the word in text, whose first character is at column
    col0 + 1 of the line.  A power rewrites the letters from where the last
    term began, so generators and closed groups share one path.  Open groups
    wait on an explicit stack, so only MAX_WORD_LETTERS bounds their nesting;
    a group is one term of the word around it, at the column of its '('."""
    too_long = f"word longer than {MAX_WORD_LETTERS} letters"
    # the words around the open groups, with the columns of their '('
    outer: list[tuple[list[int], int]] = []
    letters: list[int] = []
    term = None  # where the last term began, while a power may follow it
    col = 0  # the column of the last term
    for m in _TOKEN_RE.finditer(text):
        at = col0 + m.start() + 1
        kind = m.lastgroup
        if kind == "digits" and term is not None:
            # cut to the cap's digits + 1: still past the cap; int() refuses 4301 digits
            power = int(m["sign"] + m["digits"][:len(str(MAX_WORD_LETTERS)) + 1])
            tail = letters[term:]
            if power < 0:
                tail = [-x for x in reversed(tail)]
                power = -power
            if len(tail) * power > MAX_WORD_LETTERS:
                raise ParseError(too_long, line, at)
            del letters[term:]
            letters.extend(tail * power)
            term = None
            continue
        # no power follows the last term: it is whole and counts against the cap
        if len(letters) > MAX_WORD_LETTERS:
            raise ParseError(too_long, line, col)
        if kind == "name":
            term, col = len(letters), at
            idx = gen_index.get(m[0])
            if idx is None:
                raise ParseError(f"unknown generator {m[0]!r}", line, at)
            letters.append(idx)
        elif kind == "open":
            outer.append((letters, at))
            letters, term = [], None
        elif kind == "close" and outer:
            inner = letters
            letters, col = outer.pop()
            term = len(letters)
            letters.extend(inner)
        else:
            message = "unbalanced ')'" if kind == "close" else f"unexpected token {m[0]!r}"
            raise ParseError(message, line, at)
    if len(letters) > MAX_WORD_LETTERS:
        raise ParseError(too_long, line, col)
    if outer:
        raise ParseError("missing closing parenthesis", line, col0 + len(text.rstrip()) + 1)
    return letters


def parse_word(text: str, pres: Presentation) -> Word:
    """Parse a single word against a presentation's generators; error
    positions count from line 1, column 1 of the text."""
    gen_index = {name: i + 1 for i, name in enumerate(pres.generators)}
    return Word(tuple(_letters(text, 0, 1, gen_index)))


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file; raises ParseError with position on failure."""
    name: str | None = None
    gens: list[str] | None = None
    relator_lines: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        body = raw.split("#", 1)[0]
        stripped = body.strip()
        if not stripped:
            continue
        keyword = stripped.split()[0]
        rest_col = body.index(keyword) + len(keyword)
        rest = body[rest_col:]
        if keyword == "group":
            if name is not None:
                raise ParseError("duplicate 'group' line", lineno, 1)
            name = rest.strip()
            if not name:
                raise ParseError("missing group name", lineno, rest_col + 1)
        elif keyword == "gens":
            if gens is not None:
                raise ParseError("duplicate 'gens' line", lineno, 1)
            gens = []
            for m in re.finditer(r"\S+", rest):
                if not re.fullmatch(_NAME, m[0]):
                    raise ParseError(f"bad generator name {m[0]!r}", lineno,
                                     rest_col + m.start() + 1)
                if m[0] in gens:
                    raise ParseError(f"duplicate generator name {m[0]!r}", lineno,
                                     rest_col + m.start() + 1)
                gens.append(m[0])
            if not gens:
                raise ParseError("empty generator list", lineno, rest_col + 1)
        elif keyword == "rel":
            relator_lines.append((lineno, rest_col, rest))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno,
                             body.index(keyword) + 1)
    if name is None:
        raise ParseError("missing 'group' line", 1, 1)
    if gens is None:
        raise ParseError("missing 'gens' line", 1, 1)
    gen_index = {g: i + 1 for i, g in enumerate(gens)}
    relators = tuple(Word(tuple(_letters(body, col0, lineno, gen_index)))
                     for lineno, col0, body in relator_lines)
    return Presentation(name, tuple(gens), relators)


def render_word(w: Word, pres: Presentation) -> str:
    """Canonical text for a word: runs of a letter collapse to name^k."""
    parts: list[str] = []
    for letter, run in groupby(w.letters):
        name, count = pres.generators[abs(letter) - 1], len(list(run))
        power = count if letter > 0 else -count
        parts.append(name if power == 1 else f"{name}^{power}")
    return " ".join(parts)


def render_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(p.generators)]
    for rel in p.relators:
        lines.append(f"rel {render_word(rel, p)}")
    return "\n".join(lines) + "\n"
