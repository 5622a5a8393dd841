"""Todd-Coxeter coset enumeration with HLT-style relator scanning.

Strategy: scan every relator at every live coset, filling gaps by defining
new cosets, with immediate deduction propagation and union-find coincidence
merging.  New cosets are created at the first undefined entry encountered in
row-major order, so two runs of the same enumeration produce identical
tables; completed tables are standardized by a BFS renumbering from the
subgroup coset and validated against the table invariants.

Columns: generator g (1-based) acts through column 2(g-1); its inverse
through column 2(g-1)+1.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .fpgroup import Presentation, Word


class CosetLimitError(RuntimeError):
    """Enumeration exceeded the coset allowance; the index is unknown (not infinite)."""


class IncompleteTableError(RuntimeError):
    """Operation needs a complete coset table."""


class InvariantError(RuntimeError):
    """A machine-checked internal invariant failed."""


DEFAULT_MAX_COSETS = 1_000_000
_MAX_COSETS_ENV = "ORBIFORGE_MAX_COSETS"


def default_max_cosets() -> int:
    raw = os.environ.get(_MAX_COSETS_ENV)
    if raw is None:
        return DEFAULT_MAX_COSETS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_MAX_COSETS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{_MAX_COSETS_ENV} must be positive")
    return value


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _inv_col(col: int) -> int:
    return col ^ 1


class _Enumerator:
    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p: list[int] = [0]

    # union-find ------------------------------------------------------------

    def rep(self, k: int) -> int:
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.table[dead]
            for x in range(self.ncols):
                target = row[x]
                if target is None:
                    continue
                row[x] = None
                # drop the paired backward edge before transferring
                if self.table[target][_inv_col(x)] == dead:
                    self.table[target][_inv_col(x)] = None
                mu, nu = self.rep(dead), self.rep(target)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][_inv_col(x)] is not None:
                    self._merge(mu, self.table[nu][_inv_col(x)], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][_inv_col(x)] = mu

    # definitions and scanning ----------------------------------------------

    def define(self, a: int, x: int) -> int:
        n = len(self.table)
        if n >= self.max_cosets:
            live = sum(1 for i, r in enumerate(self.p) if i == r)
            raise CosetLimitError(
                f"coset allowance of {self.max_cosets} exhausted after defining {n} "
                f"rows, {live} still live; index unknown")
        self.table.append([None] * self.ncols)
        self.p.append(n)
        self.table[a][x] = n
        self.table[n][_inv_col(x)] = a
        return n

    def scan_and_fill(self, start: int, cols: tuple[int, ...]) -> None:
        if not cols:
            return
        f, i = start, 0
        b, j = start, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.rep(self.table[f][cols[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_inv_col(cols[j])] is not None:
                b = self.rep(self.table[b][_inv_col(cols[j])])
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][_inv_col(cols[i])] = f
                return
            f = self.define(f, cols[i])
            i += 1

    def run(self, subgroup: list[tuple[int, ...]], relators: list[tuple[int, ...]]) -> None:
        for w in subgroup:
            self.scan_and_fill(self.rep(0), w)
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for rel in relators:
                self.scan_and_fill(alpha, rel)
                if self.p[alpha] != alpha:
                    break
            if self.p[alpha] == alpha:
                for x in range(self.ncols):
                    if self.table[alpha][x] is None:
                        self.define(alpha, x)
            alpha += 1

    def standardized_rows(self) -> tuple[tuple[int, ...], ...]:
        """The live rows in standard form: cosets renumbered in the order a BFS
        from coset 0, over the columns in order, first reaches them."""
        order: dict[int, int] = {0: 0}
        queue = [0]
        targets = []
        for c in queue:
            row = []
            for e in self.table[c]:
                if e is None:
                    raise InvariantError("incomplete row after enumeration")
                t = self.rep(e)
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                row.append(t)
            targets.append(row)
        if len(order) != sum(1 for i, r in enumerate(self.p) if i == r):
            raise InvariantError("coset action is not transitive")
        return tuple(tuple(order[t] for t in row) for row in targets)


@dataclass(frozen=True)
class CosetTable:
    """Complete right-coset table for a subgroup of a finitely presented group.

    Row 0 is the subgroup coset.  `rows[c][col]` is the image of coset c under
    the column's letter.
    """

    parent: Presentation
    subgroup_words: tuple[Word, ...]
    rows: tuple[tuple[int, ...], ...]
    complete: bool = True

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, w: Word, start: int = 0) -> int:
        if not self.complete:
            raise IncompleteTableError("cannot trace through an incomplete table")
        if not 0 <= start < self.index:
            raise ValueError(f"coset {start} out of range")
        c = start
        for letter in w.letters:
            c = self.rows[c][_col(letter)]
        return c

    def contains(self, w: Word) -> bool:
        """Whether w lies in the subgroup (fixes the subgroup coset)."""
        return self.trace(w, 0) == 0

    def validate(self) -> None:
        """Machine-check all table invariants; raises InvariantError on failure."""
        n = self.index
        ncols = 2 * self.parent.ngens
        for row in self.rows:
            if len(row) != ncols or any(not 0 <= e < n for e in row):
                raise InvariantError("malformed table row")
        for x in range(ncols):
            images = [row[x] for row in self.rows]
            if sorted(images) != list(range(n)):
                raise InvariantError(f"column {x} is not a permutation")
        for c in range(n):
            for x in range(ncols):
                if self.rows[self.rows[c][x]][_inv_col(x)] != c:
                    raise InvariantError("generator/inverse columns are not paired")
        for w in self.subgroup_words:
            if self.trace(w, 0) != 0:
                raise InvariantError("subgroup word moves the subgroup coset")
        for rel in self.parent.relators:
            for c in range(n):
                if self.trace(rel, c) != c:
                    raise InvariantError("relator acts nontrivially on a coset")

    # -- Schreier machinery --------------------------------------------------

    @cached_property
    def schreier_vector(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(parent, letter, order): the BFS spanning tree of the coset graph.

        BFS runs from coset 0 trying generators in declared order, then
        inverses, so representatives have minimal length with a deterministic
        tie-break.  Coset c != 0 was reached as parent[c] * letter[c]; coset 0
        has parent -1 and letter 0.  `order` lists the cosets in discovery
        order, so every parent precedes its children.
        """
        n = self.index
        parent = [-1] * n
        letter_of = [0] * n
        letters = [(g, _col(g)) for g in range(1, self.parent.ngens + 1)] + \
            [(-g, _col(-g)) for g in range(1, self.parent.ngens + 1)]
        seen = [False] * n
        seen[0] = True
        order = [0]
        head = 0
        while head < len(order):
            c = order[head]
            head += 1
            row = self.rows[c]
            for letter, col in letters:
                t = row[col]
                if not seen[t]:
                    seen[t] = True
                    parent[t] = c
                    letter_of[t] = letter
                    order.append(t)
        return tuple(parent), tuple(letter_of), tuple(order)

    def _climb(self, c: int) -> list[int]:
        """Tree letters from coset c up to coset 0: r(c) read backwards."""
        parent, letter_of, _ = self.schreier_vector
        out = []
        while c:
            out.append(letter_of[c])
            c = parent[c]
        return out

    def transversal(self) -> list[Word]:
        return [Word(tuple(reversed(self._climb(c)))) for c in range(self.index)]

    def schreier_edges(self) -> Iterator[tuple[int, int, int]]:
        """(c, g, cg) for every coset c and generator g whose Schreier word
        r(c)*g*r(cg)^-1 is not freely trivial.

        BFS representatives are freely reduced, so the word can only cancel
        at its two junctions, and does so exactly when (c, g) is a tree edge
        in either direction; those pairs are skipped.
        """
        parent, letter_of, _ = self.schreier_vector
        for c in range(self.index):
            row = self.rows[c]
            for g in range(1, self.parent.ngens + 1):
                t = row[_col(g)]
                if (parent[t] == c and letter_of[t] == g) or \
                        (parent[c] == t and letter_of[c] == -g):
                    continue
                yield c, g, t

    def schreier_pairs(self) -> list[tuple[int, int, Word]]:
        """(coset, generator, word) for every Schreier generator that survives
        free reduction (tree edges reduce to the empty word and are dropped)."""
        out = []
        for c, g, t in self.schreier_edges():
            letters = self._climb(c)
            letters.reverse()
            letters.append(g)
            letters.extend(map(operator.neg, self._climb(t)))
            out.append((c, g, Word(tuple(letters))))
        return out

    def schreier_generators(self) -> list[Word]:
        """Subgroup generators r*g*(rg-representative)^-1 over the BFS transversal."""
        return [w for _, _, w in self.schreier_pairs()]


def todd_coxeter(p: Presentation, sub: list[Word] | tuple[Word, ...] = (),
                 max_cosets: int | None = None) -> CosetTable:
    """Enumerate the cosets of <sub> in the group presented by p.

    Returns the complete standardized table; raises CosetLimitError if the
    enumeration would allocate more than max_cosets rows (the index is then
    unknown, not necessarily infinite).
    """
    sub = tuple(sub)
    for w in sub:
        if w.max_index() > p.ngens:
            raise ValueError("subgroup word uses a generator not in the presentation")
    limit = max_cosets if max_cosets is not None else default_max_cosets()
    enum = _Enumerator(p.ngens, limit)
    enum.run([tuple(_col(x) for x in w.letters) for w in sub],
             [tuple(_col(x) for x in r.letters) for r in p.relators])
    table = CosetTable(p, sub, enum.standardized_rows())
    table.validate()
    return table


# --------------------------------------------------------------------------
# Reidemeister-Schreier subgroup presentations


@dataclass(frozen=True)
class SubgroupPresentation:
    presentation: Presentation
    inclusion: dict[str, Word]  # new generator name -> word in the parent group


def _rewrite(table: CosetTable, gen_of_pair: dict[tuple[int, int], int],
             rel: Word, start: int) -> Word:
    out: list[int] = []
    c = start
    for letter in rel.letters:
        if letter > 0:
            pair = (c, letter)
            idx = gen_of_pair.get(pair)
            if idx is not None:
                out.append(idx)
            c = table.rows[c][_col(letter)]
        else:
            g = -letter
            src = table.rows[c][_col(letter)]  # src satisfies src*g = c
            idx = gen_of_pair.get((src, g))
            if idx is not None:
                out.append(-idx)
            c = src
    return Word(tuple(out))


def reidemeister_schreier(table: CosetTable, name: str | None = None) -> SubgroupPresentation:
    """Presentation of the subgroup on its Schreier generators.

    Relators are the rewrites of every parent relator from every coset.  The
    result is simplified by dropping empty and duplicate relators, deleting
    generators forced trivial by length-1 relators, and merging generators
    identified by length-2 relators; no deeper Tietze transformations are
    attempted.
    """
    if not table.complete:
        raise IncompleteTableError("need a complete table")
    pairs = table.schreier_pairs()
    gen_of_pair = {(c, g): i + 1 for i, (c, g, _) in enumerate(pairs)}
    words = [w for _, _, w in pairs]
    relators = []
    for rel in table.parent.relators:
        for c in range(table.index):
            relators.append(_rewrite(table, gen_of_pair, rel, c))

    alive = list(range(1, len(pairs) + 1))
    replacement: dict[int, Word] = {}  # letter -> replacement word (over alive letters)

    def substitute(w: Word) -> Word:
        # replacements can chain (x -> y, later y -> 1); resolve to a fixed point
        while any(abs(letter) in replacement for letter in w.letters):
            out: list[int] = []
            for letter in w.letters:
                r = replacement.get(abs(letter))
                if r is None:
                    out.append(letter)
                else:
                    out.extend(r.letters if letter > 0 else r.inverse().letters)
            w = Word(tuple(out))
        return w

    changed = True
    while changed:
        changed = False
        relators = [substitute(r) for r in relators]
        seen = set()
        cleaned = []
        for r in relators:
            if r.is_empty():
                continue
            key = min(r.letters, r.inverse().letters)
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(r)
        relators = cleaned
        for r in relators:
            if len(r) == 1:
                replacement[abs(r.letters[0])] = Word(())
                alive = [g for g in alive if g != abs(r.letters[0])]
                changed = True
                break
            if len(r) == 2:
                x, y = r.letters
                if abs(x) != abs(y):
                    # relator x*y = 1 identifies y with x^-1
                    kill, keep = (abs(y), Word((-x,)) if y > 0 else Word((x,)))
                    replacement[kill] = keep
                    alive = [g for g in alive if g != kill]
                    changed = True
                    break

    # the loop above leaves relators that are non-empty, distinct and over
    # alive letters only, and renum is a bijection, so they stay that way
    renum = {old: i + 1 for i, old in enumerate(alive)}
    final_relators = [Word(tuple(renum[abs(x)] * (1 if x > 0 else -1) for x in r.letters))
                      for r in relators]
    gen_names = tuple(f"x{i + 1}" for i in range(len(alive)))
    pres = Presentation(name or f"{table.parent.name}.sub", gen_names,
                        tuple(final_relators))
    inclusion = {}
    for i, old in enumerate(alive):
        inclusion[gen_names[i]] = words[old - 1]
    for w in inclusion.values():
        if not table.contains(w):
            raise InvariantError("inclusion word leaves the subgroup")
    return SubgroupPresentation(pres, inclusion)
