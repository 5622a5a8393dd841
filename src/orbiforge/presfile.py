"""Parser and renderer for the presentation file format.

Format (UTF-8 text, `#` starts a comment):

    group <name>
    gens <id> <id> ...
    rel <word>        # one line per relator

Word grammar: whitespace-separated terms; a term is an atom optionally
followed by ^<signed integer>; an atom is a generator identifier or a
parenthesized word.  Example: `rel (a b)^2`.  Parentheses may nest to any
depth; only the letter cap, MAX_WORD_LETTERS, bounds a word.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .cosetenum import InvariantError
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

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\^-?\d+|[()]|\S")


def _tokenize(text: str, col0: int) -> list[tuple[str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        out.append((m.group(0), col0 + m.start() + 1))
    return out


class _WordParser:
    def __init__(self, tokens: list[tuple[str, int]], gen_index: dict[str, int], line: int):
        self.tokens = tokens
        self.pos = 0
        self.gen_index = gen_index
        self.line = line

    def _peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str, col: int | None = None) -> ParseError:
        if col is None:
            col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else \
                (self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1)
        return ParseError(message, self.line, col)

    def parse_word(self) -> list[int]:
        """The letters of the word from here to the end of the tokens.

        Groups are kept on an explicit stack, not parsed by recursion, so
        Python's recursion limit does not bound their nesting; only
        MAX_WORD_LETTERS bounds a word.  A group counts as one term of the
        word around it, at the column of its '('."""
        # the words around the open groups, with the columns of their '('
        outer: list[tuple[list[int], int]] = []
        letters: list[int] = []
        while True:
            tok = self._peek()
            if tok is None:
                if outer:
                    raise self._error("missing closing parenthesis")
                return letters
            text, col = tok
            if text == "(":
                self.pos += 1
                outer.append((letters, col))
                letters = []
                continue
            if text == ")":
                if not outer:
                    raise self._error("unbalanced ')'", col)
                self.pos += 1
                inner = self._power(letters)
                letters, col = outer.pop()
            else:
                inner = self._parse_term()
            letters.extend(inner)
            if len(letters) > MAX_WORD_LETTERS:
                raise self._error(f"word longer than {MAX_WORD_LETTERS} letters", col)

    def _parse_term(self) -> list[int]:
        """A generator with its optional power; parse_word handles groups."""
        tok = self._peek()
        if tok is None:
            # parse_word checks for the end of input before every term
            raise InvariantError("term parser called at the end of input")
        text, col = tok
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
            raise self._error(f"unexpected token {text!r}", col)
        idx = self.gen_index.get(text)
        if idx is None:
            raise self._error(f"unknown generator {text!r}", col)
        self.pos += 1
        return self._power([idx])

    def _power(self, inner: list[int]) -> list[int]:
        """inner raised to the power that follows it, if one does."""
        nxt = self._peek()
        if nxt is None or not nxt[0].startswith("^"):
            return inner
        sign, digits = re.fullmatch(r"\^(-?)0*(\d*)", nxt[0]).groups()
        # cut to the cap's digits + 1: still past the cap; int() refuses 4301 digits
        power = int(sign + (digits or "0")[:len(str(MAX_WORD_LETTERS)) + 1])
        self.pos += 1
        if power < 0:
            inner = [-x for x in reversed(inner)]
            power = -power
        if len(inner) * power > MAX_WORD_LETTERS:
            raise self._error(f"word longer than {MAX_WORD_LETTERS} letters", nxt[1])
        return inner * power


def parse_word(text: str, pres: Presentation) -> Word:
    """Parse a single word against a presentation's generators; error
    positions count from line 1, column 1 of the text."""
    gen_index = {name: i + 1 for i, name in enumerate(pres.generators)}
    parser = _WordParser(_tokenize(text, 0), gen_index, 1)
    return Word(tuple(parser.parse_word()))


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file; raises ParseError with position on failure."""
    name: str | None = None
    gens: list[str] | None = None
    relator_lines: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            gens = rest.split()
            if not gens:
                raise ParseError("empty generator list", lineno, rest_col + 1)
            for g in gens:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", g):
                    raise ParseError(f"bad generator name {g!r}", lineno,
                                     body.index(g) + 1)
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
    relators = []
    for lineno, col0, body in relator_lines:
        parser = _WordParser(_tokenize(body, col0), gen_index, lineno)
        letters = parser.parse_word()
        relators.append(Word(tuple(letters)))
    return Presentation(name, tuple(gens), tuple(relators))


def render_word(w: Word, pres: Presentation) -> str:
    """Canonical text for a word: runs of a letter collapse to name^k."""
    parts: list[str] = []
    letters = list(w.letters)
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        count = j - i
        name = pres.generators[abs(letters[i]) - 1]
        power = count if letters[i] > 0 else -count
        parts.append(name if power == 1 else f"{name}^{power}")
        i = j
    return " ".join(parts)


def render_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(p.generators)]
    for rel in p.relators:
        lines.append(f"rel {render_word(rel, p)}")
    return "\n".join(lines) + "\n"
