"""Finitely presented groups: words, presentations, Smith normal form,
abelianization, and sign homomorphisms onto Z/2.

Words are flat sequences of signed 1-based generator indices (positive =
generator, negative = its inverse), always stored freely reduced.
"""
from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


class PresentationError(ValueError):
    """Malformed presentation data: unknown generator, bad index, duplicate name."""


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """The letters, each checked to be an int other than 0, freely reduced."""
    out: list[int] = []
    for letter in letters:
        # type() rather than isinstance: a bool is an int but no letter
        if type(letter) is not int or not letter:
            raise PresentationError(f"{letter!r} is not a valid generator letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _reduce_valid(t: tuple[int, ...]) -> tuple[int, ...]:
    """Letters already known to be valid, freely reduced: t itself unless an
    adjacent pair cancels, which is tested without a Python loop."""
    return t if 0 not in map(operator.add, t, t[1:]) else _reduce_letters(t)


@dataclass(frozen=True)
class Word:
    """Freely reduced word over signed generator indices.  Every letter must
    be a nonzero int; a bool, a float or a string is refused."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        # both factors are reduced, so letters can only cancel at the junction
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return _reduced_word(a[:len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return _reduced_word(tuple(map(operator.neg, reversed(self.letters))))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return _reduced_word(_reduce_valid(self.letters * k))

    def conjugate(self, by: "Word") -> "Word":
        return by * self * by.inverse()

    def is_empty(self) -> bool:
        return not self.letters

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)

    def exponent_sums(self, ngens: int) -> list[int]:
        sums = [0] * ngens
        for letter in self.letters:
            sums[abs(letter) - 1] += 1 if letter > 0 else -1
        return sums

    def shift(self, offset: int) -> "Word":
        """Re-index letters by +offset (embedding into a larger generating set);
        the shifted letters are checked and reduced as any new word's are."""
        return Word(tuple(x + offset if x > 0 else x - offset for x in self.letters))


def _reduced_word(letters: tuple[int, ...]) -> Word:
    """A Word over letters known to be nonzero and freely reduced, stored as
    they are; callers own that proof."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def free_reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a raw signed-index sequence. Idempotent."""
    return Word(tuple(letters))


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError(f"duplicate generator names in {self.name!r}")
        _check_relators(self.relators, len(self.generators))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def word(self, letters: Iterable[int]) -> Word:
        w = Word(tuple(letters))
        if w.max_index() > self.ngens:
            raise PresentationError(f"letter out of range for {self.name!r}")
        return w

    def gen_index(self, name: str) -> int:
        """1-based index of a generator by name."""
        try:
            return self.generators.index(name) + 1
        except ValueError:
            raise PresentationError(f"unknown generator {name!r} in {self.name!r}") from None

    def spell(self, w: Word) -> str:
        parts = []
        for letter in w.letters:
            name = self.generators[abs(letter) - 1]
            parts.append(name if letter > 0 else f"{name}^-1")
        return " ".join(parts) if parts else "1"

    def __getstate__(self):
        # the fields alone: the enumeration plan that `cosetenum` keeps on a
        # presentation it has enumerated is not part of its value
        return {"name": self.name, "generators": self.generators, "relators": self.relators}


def _check_relators(relators: Iterable[Word], ngens: int) -> None:
    for rel in relators:
        if not isinstance(rel, Word):
            raise PresentationError(f"relator {rel!r} is not a Word")
        if rel.max_index() > ngens:
            raise PresentationError(
                f"relator {rel.letters} references generator "
                f"#{rel.max_index()} but only {ngens} exist")


def _presentation(name: str, generators: tuple[str, ...],
                  relators: tuple[Word, ...]) -> Presentation:
    """A Presentation over distinct generator names and relators known to
    use only those generators, stored as they are; callers own that proof."""
    p = object.__new__(Presentation)
    object.__setattr__(p, "name", name)
    object.__setattr__(p, "generators", generators)
    object.__setattr__(p, "relators", relators)
    return p


def quotient(p: Presentation, extra: Sequence[Word], name: str | None = None) -> Presentation:
    """Presentation of p modulo the normal closure of the extra words.

    p's generators and relators were validated when p was built, so only the
    extra words are checked against its generators (with the message the
    public constructor gives); p's relators are reused as they are."""
    if not extra:
        return p
    extra = tuple(extra)
    _check_relators(extra, p.ngens)
    return _presentation(name or f"{p.name}_mod", p.generators, p.relators + extra)


def tietze_pass(p: Presentation) -> tuple[Presentation, tuple[int, ...]]:
    """Tietze pass: while a relator has length 1 or is x*y on two generators,
    take the first such one in list order and delete its last letter's
    generator, substituting its value (1, or the inverse of x) once, into
    the relators that contain it; then drop empty relators and repeats up to
    inversion (the first copy stays).  Returns a presentation of the same
    group on the survivors, renumbered in order under their names, with the
    surviving relators in their original order, and the survivors' 1-based
    indices in p.

    Repeats are dropped once, after the last deletion.  Keeping them until
    then changes nothing: two relators equal up to inversion contain the
    same generators, so every substitution rewrites both alike, and the
    earlier copy is short whenever the later one is, so it is taken first.
    A substituted relator enters the free-reduction loop only when an
    adjacent pair cancels.  The result is not validated again: its names are
    some of p's, and every letter is renumbered through the survivors."""
    rels = [w.letters for w in p.relators]
    where = {g: set() for g in range(1, p.ngens + 1)}  # survivor -> positions that held it
    for pos, r in enumerate(rels):
        for g in set(map(abs, r)):
            where[g].add(pos)
    short = [pos for pos, r in enumerate(rels) if 0 < len(r) <= 2]  # heap of positions
    while short:
        at = heapq.heappop(short)
        r = rels[at]
        if not r or len(r) > 2 or len(r) == 2 and r[0] == r[1]:
            continue
        # r is g^(+-1) or x g^(+-1), so g = 1 (h = 0, dropped) or x^(-+1),
        # and r itself becomes empty
        rels[at] = ()
        g = abs(r[-1])
        h = 0 if len(r) == 1 else -r[0] if r[-1] > 0 else r[0]
        values = {g: h, -g: -h}
        for pos in where.pop(g):
            old = rels[pos]
            if g in old or -g in old:
                if h:
                    where[abs(h)].add(pos)
                    new = tuple(map(values.get, old, old))
                else:
                    new = tuple(itertools.filterfalse(values.__contains__, old))
                rels[pos] = new = _reduce_valid(new)
                if 0 < len(new) <= 2:
                    heapq.heappush(short, pos)
    seen: set[tuple[int, ...]] = set()  # each kept relator and its inverse
    kept = []
    for r in filter(None, rels):
        if r not in seen:
            kept.append(r)
            seen.update((r, tuple(map(operator.neg, reversed(r)))))
    survivors = tuple(where)
    if survivors != tuple(range(1, len(survivors) + 1)):
        renum = {old: i + 1 for i, old in enumerate(survivors)}
        renum.update({-old: -new for old, new in renum.items()})
        kept = [tuple(map(renum.__getitem__, r)) for r in kept]
    return (_presentation(p.name, tuple(p.generators[g - 1] for g in survivors),
                          tuple(map(_reduced_word, kept))),
            survivors)


# --------------------------------------------------------------------------
# integer matrices and Smith normal form


class IntMatrix:
    """Dense integer matrix, row-major, arbitrary precision.  An entry that
    is not an integer, such as a float or a Fraction, raises TypeError."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count must equal rows*cols")
        self.rows = rows
        self.cols = cols
        self.entries = [operator.index(e) for e in entries]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = [x for row in rows for x in row]
        return IntMatrix(r, c, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        m = IntMatrix(n, n, [0] * (n * n))
        for i in range(n):
            m[i, i] = 1
        return m

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij: tuple[int, int], v: int) -> None:
        i, j = ij
        self.entries[i * self.cols + j] = operator.index(v)

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = IntMatrix(self.rows, other.cols, [0] * (self.rows * other.cols))
        for i in range(self.rows):
            for k in range(self.cols):
                a = self[i, k]
                if a:
                    for j in range(other.cols):
                        out[i, j] += a * other[k, j]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def det(self) -> int:
        """Exact determinant (Bareiss fraction-free elimination)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def _int_matrix(rows: int, cols: int, entries: list[int]) -> IntMatrix:
    """An IntMatrix over a list of rows * cols ints, stored as it is; callers
    own that proof."""
    m = object.__new__(IntMatrix)
    m.rows, m.cols, m.entries = rows, cols, entries
    return m


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with D = U*A*V, U and V unimodular, D diagonal, d_i | d_{i+1}.

    Pivots are chosen with smallest nonzero absolute value, ties broken by
    row-major position, which makes the output deterministic.  An entry the
    pivot divides is cleared by one subtraction; any other entry b against
    the pivot p is cleared by the unimodular step [[x, y], [-b/g, p/g]] with
    g = gcd(p, b) = x*p + y*b, which puts g in the pivot position without
    the multiplicative entry growth of repeated quotient-and-swap steps.

    The elimination runs on one list of rows, the block matrix
    [[A, I_R], [I_C, 0]] for an R x C matrix A: a row operation on the first
    R rows also builds U in the top-right block, and a column operation on
    the first C columns also builds V in the bottom-left block.  Pivot search
    and the divisibility test read only the top-left block, which ends as D.

    Only D is kept small.  The entries of U and V are not reduced, and each
    stage's steps compound on rows that earlier stages grew: on random 8x8
    inputs they were measured at up to 326 bits (U) and 585 bits (V).  No
    caller in the package reads U or V.
    """
    R, C = a.rows, a.cols
    m = []
    for i in range(R):
        row = a.row(i) + [0] * R
        row[C + i] = 1
        m.append(row)
    for j in range(C):
        row = [0] * (C + R)
        row[j] = 1
        m.append(row)
    t, stop = 0, min(R, C)
    while t < stop:
        # pivot: the first entry, row-major, of least nonzero |value| in the
        # remaining block; none is less than 1, so the search ends at a 1
        piv, size = None, 0
        for i in range(t, R):
            row = m[i]
            for j in range(t, C):
                e = abs(row[j])
                if e and (piv is None or e < size):
                    piv, size = (i, j), e
                    if e == 1:
                        break
            if size == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        if m[t][t] < 0:
            m[t] = [-e for e in m[t]]
        # clear column t, then row t; a column step that leaves a gcd in the
        # pivot can refill column t, so repeat until nothing changes
        while True:
            dirty = False
            for i in range(t + 1, R):
                b = m[i][t]
                if b:
                    p = m[t][t]
                    if b % p == 0:
                        k = -(b // p)
                        m[i] = [e + k * f for e, f in zip(m[i], m[t])]
                    else:
                        g, x, y = _xgcd(p, b)
                        z, w = -(b // g), p // g
                        rt, ri = m[t], m[i]
                        m[t] = [x * e + y * f for e, f in zip(rt, ri)]
                        m[i] = [z * e + w * f for e, f in zip(rt, ri)]
            for j in range(t + 1, C):
                b = m[t][j]
                if b:
                    p = m[t][t]
                    if b % p == 0:
                        k = -(b // p)
                        for row in m:
                            row[j] += k * row[t]
                    else:
                        g, x, y = _xgcd(p, b)
                        z, w = -(b // g), p // g
                        for row in m:
                            e, f = row[t], row[j]
                            row[t], row[j] = x * e + y * f, z * e + w * f
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot (1
        # divides every entry)
        p = m[t][t]
        if p != 1:
            bad = next((i for i in range(t + 1, R)
                        if any(e % p for e in m[i][t + 1:C])), None)
            if bad is not None:
                m[t] = [e + f for e, f in zip(m[t], m[bad])]
                continue  # redo the clearing loop at the same t
        t += 1
    return (_int_matrix(R, R, [e for row in m[:R] for e in row[C:]]),
            _int_matrix(R, C, [e for row in m[:R] for e in row[:C]]),
            _int_matrix(C, C, [e for row in m[R:] for e in row[:C]]))


def diagonal_of(d: IntMatrix) -> list[int]:
    return [d[i, i] for i in range(min(d.rows, d.cols))]


# --------------------------------------------------------------------------
# abelian invariants


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^free_rank x prod Z/d_i, d_i | d_{i+1}."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        # type() rather than isinstance: a bool is an int but no invariant
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError("free rank must be a non-negative int")
        if any(type(d) is not int for d in self.torsion):
            raise ValueError("torsion coefficients must be ints")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and d % self.torsion[i - 1]:
                raise ValueError("torsion coefficients must form a divisor chain")

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


def relator_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    flat = [x for w in p.relators for x in w.exponent_sums(p.ngens)]
    return _int_matrix(len(p.relators), p.ngens, flat)


def abelianization(p: Presentation) -> AbelianGroup:
    """Abelian invariants of the presented group, via Smith normal form."""
    _, d, _ = smith_normal_form(relator_matrix(p))
    diag = diagonal_of(d)
    nonzero = [x for x in diag if x]
    return AbelianGroup(p.ngens - len(nonzero),
                        tuple(x for x in nonzero if x >= 2))


# --------------------------------------------------------------------------
# homomorphisms onto {+1, -1}


@dataclass(frozen=True)
class SignHom:
    """Assignment of +-1 to each generator of a presentation."""

    presentation: Presentation
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != self.presentation.ngens:
            raise PresentationError("one sign per generator required")
        # type() rather than isinstance: a bool is an int but no sign
        if any(type(s) is not int or s not in (-1, 1) for s in self.signs):
            raise PresentationError("signs must be +1 or -1")

    def sign_of(self, gen_name: str) -> int:
        return self.signs[self.presentation.gen_index(gen_name) - 1]

    def evaluate(self, w: Word) -> int:
        out = 1
        for letter in w.letters:
            out *= self.signs[abs(letter) - 1]
        return out

    def holds(self) -> bool:
        return all(self.evaluate(r) == 1 for r in self.presentation.relators)

    def is_trivial(self) -> bool:
        return all(s == 1 for s in self.signs)

    def kernel_words(self) -> list[Word]:
        """Generators of the index-2 kernel (Schreier generators over {1, g0}).

        g0 is the first generator with sign -1.
        """
        if self.is_trivial():
            raise PresentationError("trivial sign map has no index-2 kernel")
        g0 = next(i + 1 for i, s in enumerate(self.signs) if s == -1)
        words: list[Word] = [Word((g0, g0))]
        for i, s in enumerate(self.signs):
            g = i + 1
            if s == 1:
                words.append(Word((g,)))
                words.append(Word((g0, g, -g0)))
            elif g != g0:
                words.append(Word((g, -g0)))
                words.append(Word((g0, g)))
        return words


def sign_homs(p: Presentation) -> list[SignHom]:
    """All nontrivial homomorphisms to {+1,-1}, lexicographic in the sign vectors."""
    out = []
    for signs in itertools.product((-1, 1), repeat=p.ngens):
        if all(s == 1 for s in signs):
            continue
        h = SignHom(p, signs)
        if h.holds():
            out.append(h)
    return out
