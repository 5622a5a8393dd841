"""Parser and renderer for the presentation file format.

Format (UTF-8 text, `#` starts a comment):

    group <name>
    gens <id> <id> ...
    rel <word>        # one line per relator

Word grammar: whitespace-separated terms; a term is an atom optionally
followed by ^<signed integer>; an atom is a generator identifier or a
parenthesized word.  Example: `rel (a b)^2`.
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

    def parse_word(self, stop_at_rparen: bool = False) -> list[int]:
        letters: list[int] = []
        while True:
            tok = self._peek()
            if tok is None:
                if stop_at_rparen:
                    raise self._error("missing closing parenthesis")
                return letters
            if tok[0] == ")":
                if stop_at_rparen:
                    return letters
                raise self._error("unbalanced ')'", tok[1])
            letters.extend(self._parse_term())
            if len(letters) > MAX_WORD_LETTERS:
                raise self._error(f"word longer than {MAX_WORD_LETTERS} letters", tok[1])

    def _parse_term(self) -> list[int]:
        tok = self._peek()
        if tok is None:
            # parse_word checks for the end of input before every term
            raise InvariantError("term parser called at the end of input")
        text, col = tok
        if text == "(":
            self.pos += 1
            inner = self.parse_word(stop_at_rparen=True)
            self.pos += 1  # consume ')'
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
            idx = self.gen_index.get(text)
            if idx is None:
                raise self._error(f"unknown generator {text!r}", col)
            inner = [idx]
            self.pos += 1
        else:
            raise self._error(f"unexpected token {text!r}", col)
        nxt = self._peek()
        if nxt is not None and nxt[0].startswith("^"):
            sign, digits = re.fullmatch(r"\^(-?)0*(\d*)", nxt[0]).groups()
            # cut to the cap's digits + 1: still past the cap; int() refuses 4301 digits
            power = int(sign + (digits or "0")[:len(str(MAX_WORD_LETTERS)) + 1])
            self.pos += 1
            if power < 0:
                inner = [-x for x in reversed(inner)]
                power = -power
            if len(inner) * power > MAX_WORD_LETTERS:
                raise self._error(f"word longer than {MAX_WORD_LETTERS} letters", nxt[1])
            inner = inner * power
        return inner


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
