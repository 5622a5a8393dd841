"""Todd-Coxeter coset enumeration by Felsch's strategy.

Strategy: trace the subgroup words at coset 0, defining cosets as needed;
then, in one loop, drain the deductions and define one coset, until no gap
is left.  Every entry made, whether defined, deduced or moved by a
coincidence, is pushed on a deduction stack; each one popped is checked by
scanning the relator cycles through it, without defining anything, which
may deduce further entries or merge cosets (union-find coincidence
merging).  A scan
that stops with exactly two entries unknown records the first as a
preferred definition (Havas, "Coset enumeration strategies", 1991): a new
coset there closes that cycle at once.  The next definition is the oldest
recorded one still open, as long as the rows defined stay within ACE's
default fill factor, (5 * (columns + 2)) // 4, times the first gap row
counted from 1; otherwise it is the first gap in row-major order, so that
gap is filled after a bounded number of definitions.  Rows defined
therefore stay close to the index.  Two runs of the same enumeration produce
identical tables; completed tables are standardized by a BFS renumbering
from the subgroup coset, which is canonical for the subgroup, and validated
against the table invariants, so a missed deduction shows up as an
InvariantError.  Validation proves each column a permutation without a set:
its entries lie in range(n), and its composite with the paired column is
the identity, which makes both columns bijections, each the other's inverse.

Columns: generator g (1-based) acts through column 2(g-1); its inverse
through column 2(g-1)+1, so column x ^ 1 holds the inverse of column x.

Each presentation is encoded for enumeration once, on its first
enumeration, into a plan (`_plan`): the letter -> column map, its relators
as powers u^k of column tuples, and the Felsch cycle lists, each relator's
distinct conjugates by first column.  The plan is kept on the presentation object,
outside its fields, so its equality, hash, repr and pickle stay as they
are; every later enumeration of the same object, and each `validate` of a
table over it, reads the plan instead of encoding the relators again.
"""
from __future__ import annotations

import operator
import os
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

from .fpgroup import (Presentation, Word, _presentation, _reduce_valid, _reduced_word,
                      tietze_pass)


class CosetLimitError(RuntimeError):
    """Enumeration exceeded the coset allowance; the index is unknown (not infinite)."""


class InvariantError(RuntimeError):
    """A machine-checked internal invariant failed."""


DEFAULT_MAX_COSETS = 1_000_000
_MAX_COSETS_ENV = "ORBIFORGE_MAX_COSETS"


def ascii_int(text: str) -> int:
    """The integer that text spells as [+-]?[0-9]+, unlike int(), which also
    reads other Unicode digits, `_` and spaces; else ValueError."""
    if not re.fullmatch("[+-]?[0-9]+", text):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def default_max_cosets() -> int:
    raw = os.environ.get(_MAX_COSETS_ENV)
    if raw is None:
        return DEFAULT_MAX_COSETS
    try:
        value = ascii_int(raw)
    except ValueError:
        raise ValueError(f"{_MAX_COSETS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{_MAX_COSETS_ENV} must be positive")
    return value


_PREFERRED_RING = 256


def _col(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _gather(seq, indices) -> tuple:
    """tuple(seq[i] for i in indices) in one C-level call.  itemgetter
    returns a bare value for one index and cannot be built for none, so
    those two cases take the loop."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


class _Plan(NamedTuple):
    """A presentation encoded for enumeration (see the module docstring)."""

    col_of: dict[int, int]                   # letter -> column
    # each nonempty relator r as (u, k): u its period in columns, r = u^k
    relators: tuple[tuple[tuple[int, ...], int], ...]
    # relator conjugates by first column, for the deduction scans: an edge
    # a -x-> b lies on a relator cycle read forward from a (a conjugate
    # starting with x) or backward from b (one starting with x^1).  The
    # conjugate at position i of r is kept as (r + r, i, i + |r| - 1), not
    # sliced; a proper power u^k has only |u| distinct conjugates.
    by_col: tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]


def _build_plan(p: Presentation) -> _Plan:
    col_of = {}
    for g in range(1, p.ngens + 1):
        col_of[g], col_of[-g] = _col(g), _col(-g)
    relators = []
    by_col: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in range(2 * p.ngens)]
    for r in p.relators:
        rel = tuple(map(col_of.__getitem__, r.letters))
        n = len(rel)
        if not n:
            continue  # the empty relator holds at every coset
        doubled = rel + rel
        period = 1
        while n % period or doubled[period:period + n] != rel:
            period += 1
        relators.append((rel[:period], n // period))
        for i in range(period):
            by_col[rel[i]].append((doubled, i, i + n - 1))
    return _Plan(col_of, tuple(relators), tuple(map(tuple, by_col)))


def _plan(p: Presentation) -> _Plan:
    """p's plan, built on first use and kept in p's instance dict; a frozen
    dataclass sets it through object.__setattr__, and
    `Presentation.__getstate__` leaves it out of a pickle."""
    plan = p.__dict__.get("_plan")
    if plan is None:
        plan = _build_plan(p)
        object.__setattr__(p, "_plan", plan)
    return plan


class _Enumerator:
    def __init__(self, plan: _Plan, max_cosets: int):
        self.by_col = plan.by_col
        self.ncols = len(plan.by_col)
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p: list[int] = [0]
        # entries (coset, column) made since their relator cycles were last scanned
        self.deductions: list[tuple[int, int]] = []
        # preferred definitions: open entries (coset, column) whose definition
        # closes a relator cycle at once; a full ring drops its oldest entry
        self.preferred: deque[tuple[int, int]] = deque(maxlen=_PREFERRED_RING)

    # union-find ------------------------------------------------------------

    def rep(self, k: int) -> int:
        r = k
        while self.p[r] != r:
            r = self.p[r]
        while self.p[k] != r:
            self.p[k], k = r, self.p[k]
        return r

    def coincidence(self, a: int, b: int) -> None:
        """Merge cosets a and b and every pair their rows force together.

        The larger root of each pair becomes a child of the smaller and joins
        the queue of dead rows; each dead row's entries are cleared, with
        their paired backward edges, and moved to the live representatives,
        where a clash merges the two targets in turn."""
        p, table, rep = self.p, self.table, self.rep
        a, b = rep(a), rep(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        p[b] = a
        queue = [b]
        for dead in queue:
            row = table[dead]
            for x in range(self.ncols):
                target = row[x]
                if target is None:
                    continue
                row[x] = None
                # drop the paired backward edge before transferring
                if table[target][x ^ 1] == dead:
                    table[target][x ^ 1] = None
                mu, nu = p[dead], p[target]
                if p[mu] != mu:
                    mu = rep(dead)
                if p[nu] != nu:
                    nu = rep(target)
                if table[mu][x] is not None:
                    lo, hi = nu, rep(table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    lo, hi = mu, rep(table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
                    self.deductions.append((mu, x))
                    continue
                if lo != hi:
                    if hi < lo:
                        lo, hi = hi, lo
                    p[hi] = lo
                    queue.append(hi)

    # definitions and scanning ----------------------------------------------

    def define(self, a: int, x: int) -> int:
        """Define coset a*x as a new row; the one place the allowance is
        enforced."""
        n = len(self.table)
        if n >= self.max_cosets:
            live = sum(1 for i, r in enumerate(self.p) if i == r)
            raise CosetLimitError(
                f"coset allowance of {self.max_cosets} exhausted after defining {n} "
                f"rows, {live} still live; index unknown")
        self.table.append([None] * self.ncols)
        self.p.append(n)
        self.table[a][x] = n
        self.table[n][x ^ 1] = a
        self.deductions.append((a, x))
        return n

    def scan_and_fill(self, start: int, cols: tuple[int, ...]) -> None:
        if not cols:
            return
        f, i = start, 0
        b, j = start, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]  # between coincidences entries name live cosets
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                self.deductions.append((f, cols[i]))
                return
            f = self.define(f, cols[i])
            i += 1

    def run(self, subgroup: list[tuple[int, ...]]) -> None:
        """Felsch's strategy with preferred definitions, as the module
        docstring describes, until no gap is left.

        Each pass drains the deduction stack, then makes one definition
        through `define`.
        An edge a -x-> b lies on the cycles read forward from a and backward
        from b.  Each cycle is traced from both ends, defining nothing: a
        closed cycle that ends at two cosets merges them, a one-letter gap is
        filled as a deduction, and a two-letter gap is recorded as a
        preferred definition.  Between coincidences every entry names a live
        coset."""
        for w in subgroup:
            self.scan_and_fill(0, w)
        p, table, by_col, stack = self.p, self.table, self.by_col, self.deductions
        preferred = self.preferred
        fill = (5 * (self.ncols + 2)) // 4  # ACE's default fill factor
        alpha = 0
        while True:
            while stack:
                a, x = stack.pop()
                if p[a] != a:
                    continue  # a coincidence moved a's entries and recorded them anew
                b = table[a][x]  # a coincidence leaves no gap in a live row
                for start, cycles in ((a, by_col[x]), (b, by_col[x ^ 1])):
                    if p[start] != start:
                        continue
                    for w, i, j in cycles:
                        f = start
                        while i <= j:
                            t = table[f][w[i]]
                            if t is None:
                                break
                            f = t
                            i += 1
                        else:
                            if f != start:
                                self.coincidence(f, start)
                                if p[start] != start:
                                    break
                            continue
                        e = start
                        while j >= i:
                            t = table[e][w[j] ^ 1]
                            if t is None:
                                break
                            e = t
                            j -= 1
                        else:
                            if f != e:
                                self.coincidence(f, e)
                                if p[start] != start:
                                    break
                            continue
                        if j == i:
                            table[f][w[i]] = e
                            table[e][w[i] ^ 1] = f
                            stack.append((f, w[i]))
                        elif j == i + 1:
                            preferred.append((f, w[i]))
            # the next definition: a preferred one while the fill factor
            # allows, else the first gap
            while alpha < len(table):
                row = table[alpha]
                if p[alpha] == alpha and None in row:
                    break
                alpha += 1
            else:
                return
            n = len(table)
            while preferred and n <= fill * (alpha + 1):
                c, x = preferred.popleft()
                if p[c] == c and table[c][x] is None:
                    break
            else:
                c, x = alpha, row.index(None)
            self.define(c, x)

    def standardized_rows(self) -> tuple[tuple[int, ...], ...]:
        """The live rows in standard form: cosets renumbered in the order a BFS
        from coset 0, over the columns in order, first reaches them.

        A coincidence clears every row it kills, so an entry naming a dead
        coset leads the BFS to an incomplete row.  The BFS visits entry by
        entry; the relabelling then runs in one C-level pass over the rows
        in queue order, grouped back into rows of ncols entries."""
        p, table, ncols = self.p, self.table, self.ncols
        order = [-1] * len(p)
        order[0] = 0
        queue = [0]
        for c in queue:
            row = table[c]
            if None in row:
                raise InvariantError("incomplete row after enumeration")
            for t in row:
                if order[t] < 0:
                    order[t] = len(queue)
                    queue.append(t)
        if len(queue) != sum(map(operator.eq, p, range(len(p)))):
            raise InvariantError("coset action is not transitive")
        if not ncols:
            return ((),) * len(queue)  # zip() of no iterators yields no row
        entries = map(order.__getitem__, chain.from_iterable(map(table.__getitem__, queue)))
        return tuple(zip(*[entries] * ncols))


@dataclass(frozen=True)
class CosetTable:
    """Right-coset table for a subgroup of a finitely presented group.

    Tables are complete by construction: `todd_coxeter`, the only builder,
    returns one only once every entry is filled, and `validate` checks that
    each column is a permutation.  Row 0 is the subgroup coset.
    `rows[c][col]` is the image of coset c under the column's letter.
    """

    parent: Presentation
    subgroup_words: tuple[Word, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.rows)

    def trace(self, w: Word, start: int = 0) -> int:
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
        """Machine-check all table invariants; raises InvariantError on failure.

        The columns are proved permutations without building a set: every
        entry lies in range(n) (a min/max check per column), and for each
        generator the composite of its column with its inverse column is the
        identity, which makes the first column injective, so a bijection of
        range(n), and the second its inverse.  Only after a composite fails
        are per-column sets built, to name the first column that is not a
        permutation; if there is none, the pair is at fault."""
        n, rows = self.index, self.rows
        plan = _plan(self.parent)
        ncols = len(plan.by_col)
        if n and (min(map(len, rows)) != ncols or max(map(len, rows)) != ncols):
            raise InvariantError("malformed table row")
        cols = list(zip(*rows)) or [()] * ncols
        if n and cols and (min(map(min, cols)) < 0 or max(map(max, cols)) >= n):
            raise InvariantError("malformed table row")
        identity = tuple(range(n))
        for x in range(0, ncols, 2):
            if _gather(cols[x + 1], cols[x]) != identity:
                cosets = set(identity)
                for y, column in enumerate(cols):
                    if set(column) != cosets:
                        raise InvariantError(f"column {y} is not a permutation")
                raise InvariantError("generator/inverse columns are not paired")
        col_of = plan.col_of
        for w in self.subgroup_words:
            c = 0
            for letter in w.letters:
                c = cols[col_of[letter]][c]
            if c != 0:
                raise InvariantError("subgroup word moves the subgroup coset")
        # compose each relator u^k over every coset: u once, then its k-th
        # power by squaring
        for u, k in plan.relators:
            perm = cols[u[0]]
            for x in u[1:]:
                perm = _gather(cols[x], perm)
            power = None
            while True:
                if k & 1:
                    power = perm if power is None else _gather(perm, power)
                k >>= 1
                if not k:
                    break
                perm = _gather(perm, perm)
            if power != identity:
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

    def _tree_paths(self) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
        """(path, depth, words): root-to-leaf paths that cover the BFS tree,
        so r(c) = words[path[c]][:depth[c]].

        Walking the discovery order backwards, each coset not yet covered
        starts a path; its climb stops at the first covered coset, whose
        path supplies the rest of the word, so the climbs visit each coset
        once.  Path 0 is the empty path at coset 0.  Each tree edge must be
        an edge of `rows`, which with paired columns keeps paths reduced.
        """
        parent, letter_of, order = self.schreier_vector
        n, rows = self.index, self.rows
        depth = [0] * n
        for c in order[1:]:
            p = parent[c]
            if rows[p][_col(letter_of[c])] != c:
                raise InvariantError(f"tree edge into coset {c} is not an edge of the table")
            depth[c] = depth[p] + 1
        path = [-1] * n
        path[0] = 0
        words: list[tuple[int, ...]] = [()]
        for c in reversed(order):
            if path[c] >= 0:
                continue
            tail = []
            while path[c] < 0:
                path[c] = len(words)
                tail.append(letter_of[c])
                c = parent[c]
            tail.reverse()
            words.append(words[path[c]][:depth[c]] + tuple(tail))
        return path, depth, words

    def transversal(self) -> list[Word]:
        """The BFS representatives r(c), read from the tree paths; a tree
        path never backtracks, so each is freely reduced."""
        path, depth, words = self._tree_paths()
        return [_reduced_word(words[p][:d]) for p, d in zip(path, depth)]

    def schreier_edges(self) -> Iterator[tuple[int, int, int]]:
        """(c, g, cg) for every coset c and generator g whose Schreier word
        r(c)*g*r(cg)^-1 is not freely trivial.

        BFS representatives are freely reduced, so the word can only cancel
        at its two junctions, and does so exactly when (c, g) is a tree edge
        in either direction; those pairs are skipped.
        """
        parent, letter_of, _ = self.schreier_vector
        gens = [(g, _col(g)) for g in range(1, self.parent.ngens + 1)]
        for c, row in enumerate(self.rows):
            for g, col in gens:
                t = row[col]
                if (parent[t] == c and letter_of[t] == g) or \
                        (parent[c] == t and letter_of[c] == -g):
                    continue
                yield c, g, t

    def schreier_pairs(self) -> list[tuple[int, int, Word]]:
        """(coset, generator, word) for every Schreier generator that survives
        free reduction (tree edges reduce to the empty word and are dropped).

        r(c) and r(cg)^-1 are freely reduced, so r(c)*g*r(cg)^-1 is reduced
        once neither junction cancels; that is checked for every word, since
        unlike the tree-edge check it does not rely on paired columns."""
        path, depth, words = self._tree_paths()
        # r(t)^-1 is the last depth[t] letters of the inverse of t's path
        inverses = [tuple(map(operator.neg, reversed(w))) for w in words]
        out = []
        for c, g, t in self.schreier_edges():
            rc = words[path[c]][:depth[c]]
            inv = inverses[path[t]]
            rti = inv[len(inv) - depth[t]:]
            if (rc and rc[-1] == -g) or (rti and rti[0] == -g):
                raise InvariantError(f"Schreier word of ({c}, {g}) cancels at a junction")
            out.append((c, g, _reduced_word(rc + (g,) + rti)))
        return out

    def schreier_generators(self) -> list[Word]:
        """Subgroup generators r*g*(rg-representative)^-1 over the BFS transversal."""
        return [w for _, _, w in self.schreier_pairs()]


def todd_coxeter(p: Presentation, sub: list[Word] | tuple[Word, ...] = (),
                 max_cosets: int | None = None) -> CosetTable:
    """Enumerate the cosets of <sub> in the group presented by p.

    Returns the complete standardized table; raises CosetLimitError if the
    enumeration would allocate more than max_cosets rows (the index is then
    unknown, not necessarily infinite).  Without max_cosets the allowance is
    `default_max_cosets()`.  Each subgroup word must be a `Word`
    (TypeError) over p's generators (ValueError).
    """
    sub = tuple(sub)
    plan = _plan(p)
    words = []
    for w in sub:
        if not isinstance(w, Word):
            raise TypeError(f"subgroup word {w!r} is not a Word")
        try:
            words.append(tuple(map(plan.col_of.__getitem__, w.letters)))
        except KeyError:
            raise ValueError("subgroup word uses a generator not in the presentation") from None
    limit = max_cosets if max_cosets is not None else default_max_cosets()
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise ValueError(f"max_cosets must be a positive integer, got {limit!r}")
    enum = _Enumerator(plan, limit)
    enum.run(words)
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
        if letter < 0:
            c = table.rows[c][_col(letter)]  # the coset c with c*(-letter) = old c
        idx = gen_of_pair.get((c, abs(letter)))
        if idx is not None:
            out.append(idx if letter > 0 else -idx)
        if letter > 0:
            c = table.rows[c][_col(letter)]
    return _reduced_word(_reduce_valid(tuple(out)))


def reidemeister_schreier(table: CosetTable) -> SubgroupPresentation:
    """Presentation of the subgroup on its Schreier generators.

    Relators are the rewrites of every parent relator from every coset,
    simplified by `fpgroup.tietze_pass`: it drops empty and duplicate
    relators, deletes generators forced trivial by length-1 relators and
    merges generators identified by length-2 relators; no deeper Tietze
    transformations are attempted.  The survivors are renamed x1, x2, ...

    Both presentations are built unchecked: the names x1, x2, ... are
    distinct, every letter `_rewrite` writes is a value of `gen_of_pair`,
    1 to len(pairs) up to sign, and the pass renumbers its survivors 1 to
    len(alive), the names it is given here."""
    pairs = table.schreier_pairs()
    gen_of_pair = {(c, g): i + 1 for i, (c, g, _) in enumerate(pairs)}
    relators = tuple(_rewrite(table, gen_of_pair, rel, c)
                     for rel in table.parent.relators for c in range(table.index))
    names = tuple(f"x{i + 1}" for i in range(len(pairs)))
    reduced, alive = tietze_pass(_presentation(f"{table.parent.name}.sub", names, relators))
    pres = _presentation(reduced.name, names[:len(alive)], reduced.relators)
    inclusion = {name: pairs[old - 1][2] for name, old in zip(pres.generators, alive)}
    if not all(map(table.contains, inclusion.values())):
        raise InvariantError("inclusion word leaves the subgroup")
    return SubgroupPresentation(pres, inclusion)
