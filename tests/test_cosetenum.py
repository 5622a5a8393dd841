"""Coset enumeration, table queries, Schreier generators, subgroup presentations."""
import hashlib
import pickle
import re

import pytest

from orbiforge import cosetenum, fpgroup
from orbiforge.cosetenum import (CosetLimitError, CosetTable, InvariantError,
                                 _Enumerator, _plan, reidemeister_schreier,
                                 todd_coxeter)
from orbiforge.fixtures import load_fixture
from orbiforge.fpgroup import (AbelianGroup, Presentation, Word,
                               abelianization, quotient, sign_homs)

P6 = load_fixture("p6")
P4 = load_fixture("p4")
T1_236, T2_236 = Word((2, -1, -1)), Word((-2, 1, 1))
T1_244, T2_244 = Word((1, 1, -2)), Word((1, -2, 1))


def coxeter_symmetric(n):
    """Coxeter presentation of S_n on the adjacent transpositions."""
    rels = []
    for i in range(1, n):
        rels.append(Word((i, i)))
        for j in range(i + 1, n):
            rels.append(Word((i, j) * (3 if j == i + 1 else 2)))
    return Presentation(f"S{n}", tuple(f"s{i}" for i in range(1, n)), tuple(rels))


def fibonacci_group(r, n):
    """F(r, n) = <x_0..x_{n-1} | x_i x_{i+1} .. x_{i+r-1} = x_{i+r}>."""
    rels = [Word(tuple(1 + (i + k) % n for k in range(r)) + (-(1 + (i + r) % n),))
            for i in range(n)]
    return Presentation(f"F({r},{n})", tuple(f"x{i}" for i in range(n)), tuple(rels))


def mulclose_size(mats):
    """Oracle for finite quotient orders: close a matrix set under products."""
    from orbiforge.exactgeom import Mat2

    seen = {Mat2.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


class TestToddCoxeter:
    def test_translations_have_index_6_in_236(self):
        table = todd_coxeter(P6, [T1_236, T2_236])
        # oracle: the rotation point group of the 2,3,6 cusp has order 6
        from orbiforge.wallpaper import model
        assert mulclose_size([model("p6").image(1).linear]) == 6
        assert table.index == 6

    def test_translations_have_index_4_in_244(self):
        table = todd_coxeter(P4, [T1_244, T2_244])
        from orbiforge.wallpaper import model
        assert mulclose_size([model("p4").image(1).linear]) == 4
        assert table.index == 4

    def test_collapse_has_order_two(self):
        q = quotient(P6, [T1_236, T2_236, Word((2,))])
        assert todd_coxeter(q, []).index == 2

    def test_coxeter_group_orders(self):
        # (2,3,6) triangle group quotients as extra sanity: S3 from <a,b|a2,b2,(ab)3>
        s3 = Presentation("s3", ("a", "b"),
                          (Word((1, 1)), Word((2, 2)), Word((1, 2) * 3)))
        assert todd_coxeter(s3, []).index == 6
        s4 = Presentation("s4", ("a", "b", "c"),
                          (Word((1, 1)), Word((2, 2)), Word((3, 3)),
                           Word((1, 2) * 3), Word((2, 3) * 3), Word((1, 3) * 2)))
        assert todd_coxeter(s4, []).index == 24

    def test_heavy_coincidence_collapses(self):
        # tetrahedral and icosahedral rotation groups as enumeration stress
        a4 = Presentation("a4", ("a", "b"),
                          (Word((1,) * 3), Word((2,) * 3), Word((1, 2) * 2)))
        assert todd_coxeter(a4, []).index == 12
        a5 = Presentation("a5", ("a", "b"),
                          (Word((1,) * 5), Word((2,) * 3), Word((1, 2) * 2)))
        assert todd_coxeter(a5, []).index == 60

    def test_limit_error(self):
        free = Presentation("f1", ("a",), ())
        with pytest.raises(CosetLimitError):
            todd_coxeter(free, [], max_cosets=100)

    def test_limit_error_says_how_far_it_got(self):
        # the free group never merges a coset, so every row is live
        free = Presentation("f1", ("a",), ())
        with pytest.raises(CosetLimitError, match="after defining 100 rows, 100 still live"):
            todd_coxeter(free, [], max_cosets=100)
        # F(3,6), of order 1512, merges rows before it runs out, so fewer
        # rows are live than were defined
        with pytest.raises(CosetLimitError) as err:
            todd_coxeter(fibonacci_group(3, 6), [], max_cosets=1000)
        match = re.search(r"after defining (\d+) rows, (\d+) still live", str(err.value))
        defined, live = int(match.group(1)), int(match.group(2))
        assert defined == 1000 and live < defined

    # True is an int, but not an allowance of one coset
    @pytest.mark.parametrize("value", [0, -5, 2.5, True, False])
    def test_allowance_must_be_a_positive_int(self, value):
        with pytest.raises(ValueError, match="max_cosets must be a positive integer"):
            todd_coxeter(P6, [], max_cosets=value)

    def test_fibonacci_f27_does_not_overshoot(self):
        # an enumerator with no lookahead defined 267,525 rows for these 29,
        # and Felsch's strategy without preferred definitions 33,239
        assert todd_coxeter(fibonacci_group(2, 7), [], max_cosets=32_000).index == 29

    def test_trivial_presentation_has_one_coset(self):
        # no columns: standardization still returns the subgroup coset's row
        table = todd_coxeter(Presentation("trivial", (), ()))
        assert (table.index, table.rows) == (1, ((),))
        table.validate()

    def test_empty_relator_holds_everywhere(self):
        c3 = Presentation("c3", ("a",), (Word(()), Word((1, 1, 1))))
        assert todd_coxeter(c3, []).index == 3

    def test_determinism(self):
        t1 = todd_coxeter(P6, [T1_236, T2_236])
        t2 = todd_coxeter(P6, [T1_236, T2_236])
        assert t1.rows == t2.rows

    def test_validation_runs(self):
        todd_coxeter(P6, [T1_236, T2_236]).validate()


A8B7 = Presentation("a8b7", ("a", "b"), (
    Word((1,) * 8), Word((2,) * 7), Word((1, 2) * 2), Word((-1, 2) * 3)))


class TestRowsDefined:
    """The allowance counts rows defined, so it bounds how far each
    enumeration may overshoot its index."""

    @pytest.mark.parametrize("pres, allowance, index", [
        # Felsch's strategy without preferred definitions defined 26,314 and
        # 42 rows for these
        (A8B7, 16_000, 10752),
        (fibonacci_group(2, 5), 36, 11),
    ], ids=["a8b7", "F(2,5)"])
    def test_coincidences_stay_within_the_allowance(self, pres, allowance, index):
        assert todd_coxeter(pres, [], max_cosets=allowance).index == index

    @pytest.mark.parametrize("name, extra", [
        ("S6", 0),
        ("p6 > <t1^8, t2^8>^(1, -2)", 0),
        # tracing these conjugated generators at coset 0 defines one row
        # that a coincidence merges, before any definition is preferred
        ("p6 > <t1^8, t2^8>^(-2, -1, 2)", 1),
    ])
    def test_few_coincidences_define_few_extra_rows(self, name, extra):
        pres, sub = GOLDEN_CASES[name]
        index = todd_coxeter(pres, sub).index
        assert todd_coxeter(pres, sub, max_cosets=index + extra).index == index
        with pytest.raises(CosetLimitError):
            todd_coxeter(pres, sub, max_cosets=index + extra - 1)


class TestPlan:
    """The enumeration plan each presentation keeps after its first
    enumeration."""

    def test_plan_is_built_once_per_presentation(self, monkeypatch):
        builds = []
        build = cosetenum._build_plan
        monkeypatch.setattr(cosetenum, "_build_plan", lambda p: builds.append(p) or build(p))
        s4 = coxeter_symmetric(4)
        first = todd_coxeter(s4, [Word((1,))])
        second = todd_coxeter(s4, [Word((2,)), Word((3,))])
        first.validate()
        second.validate()
        assert len(builds) == 1 and builds[0] is s4
        # an equal presentation is another object, with a plan of its own
        todd_coxeter(coxeter_symmetric(4), [Word((1,))])
        assert len(builds) == 2

    def test_plan_is_not_part_of_the_value(self):
        s4, twin = coxeter_symmetric(4), coxeter_symmetric(4)
        before = (hash(s4), repr(s4), pickle.dumps(s4))
        table = todd_coxeter(s4, [Word((1,))])
        assert "_plan" in vars(s4)
        assert (hash(s4), repr(s4), pickle.dumps(s4)) == before
        assert s4 == twin and hash(s4) == hash(twin)
        copy = pickle.loads(pickle.dumps(s4))
        assert copy == s4 and "_plan" not in vars(copy)
        # a fresh equal presentation enumerates to the identical table
        assert todd_coxeter(twin, [Word((1,))]) == table
        assert todd_coxeter(copy, [Word((1,))]).rows == table.rows

    def test_subgroup_word_on_an_unknown_generator(self):
        with pytest.raises(ValueError,
                           match="^subgroup word uses a generator not in the presentation$"):
            todd_coxeter(P6, [Word((1,)), Word((-3,))])

    def test_subgroup_word_must_be_a_word(self):
        with pytest.raises(TypeError, match=r"^subgroup word \(1,\) is not a Word$"):
            todd_coxeter(P6, [(1,)])


class TestInvariantChecks:
    """Every failure branch of CosetTable.validate and of standardization,
    on hand-built corrupt tables."""

    C2 = Presentation("c2", ("a",), (Word((1, 1)),))
    C3 = Presentation("c3", ("a",), (Word((1,) * 3),))
    FREE = Presentation("f1", ("a",), ())
    FREE2 = Presentation("f2", ("a", "b"), ())
    # relators that are proper powers: (ab)^2 and a^6
    AB2 = Presentation("ab2", ("a", "b"), (Word((1, 2) * 2),))
    A6 = Presentation("a6", ("a",), (Word((1,) * 6),))
    # a fixes every coset and b is the 3-cycle 0 -> 1 -> 2 -> 0, so ab acts
    # as a 3-cycle and (ab)^2 as its inverse
    B3 = ((0, 0, 1, 2), (1, 1, 2, 0), (2, 2, 0, 1))
    # a as the 4-cycle 0 -> 1 -> 2 -> 3 -> 0: a^6 = a^2 moves every coset
    A4 = ((1, 3), (2, 0), (3, 1), (0, 2))

    def test_valid_table_passes(self):
        CosetTable(self.C2, (), ((1, 1), (0, 0))).validate()

    @pytest.mark.parametrize("word, rows", [
        ((1, 2) * 3, B3), ((1,) * 8, A4), ((1,) * 12, A4), ((2, -1) * 6, B3)])
    def test_proper_power_relators_that_hold_pass(self, word, rows):
        # each relator is u^k with u acting nontrivially and u^k trivially
        CosetTable(Presentation("pow", ("a", "b")[:len(rows[0]) // 2], (Word(word),)),
                   (), rows).validate()

    @pytest.mark.parametrize("pres, sub, rows, message", [
        (C2, (), ((1,), (0, 0)), "malformed table row"),
        (C2, (), ((1, 1), (0, 0, 0)), "malformed table row"),
        (C2, (), ((2, 1), (0, 0)), "malformed table row"),
        (C2, (), ((1, 1), (0, -1)), "malformed table row"),
        (C2, (), ((1, 1), (1, 0)), "column 0 is not a permutation"),
        (C2, (), ((1, 0), (0, 0)), "column 1 is not a permutation"),
        (FREE, (), ((1, 1), (2, 2), (0, 0)), "generator/inverse columns are not paired"),
        # columns 0/1 pair; column 2 repeats a coset, so its composite with
        # column 3 fails and the per-column sets name column 2
        (FREE2, (), ((0, 0, 0, 1), (1, 1, 0, 0)), "column 2 is not a permutation"),
        # every column is a permutation, but column 3 is column 2, a 3-cycle,
        # not its inverse
        (FREE2, (), ((0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 0, 0)),
         "generator/inverse columns are not paired"),
        (C2, (Word((1,)),), ((1, 1), (0, 0)), "subgroup word moves the subgroup coset"),
        (C3, (), ((1, 1), (0, 0)), "relator acts nontrivially on a coset"),
        (AB2, (), B3, "relator acts nontrivially on a coset"),
        (A6, (), A4, "relator acts nontrivially on a coset"),
    ])
    def test_corrupt_table_rejected(self, pres, sub, rows, message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            CosetTable(pres, sub, rows).validate()

    def test_range_error_wins_over_a_permutation_error(self):
        # column 0 repeats a coset and column 1 leaves the range: the row
        # check comes first, as it always has
        with pytest.raises(InvariantError, match="^malformed table row$"):
            CosetTable(self.C2, (), ((0, 1), (0, 2))).validate()

    def test_intransitive_action_rejected(self):
        enum = _Enumerator(_plan(self.FREE), 10)
        enum.table = [[0, 0], [1, 1]]
        enum.p = [0, 1]
        with pytest.raises(InvariantError, match="^coset action is not transitive$"):
            enum.standardized_rows()

    def test_incomplete_row_rejected(self):
        enum = _Enumerator(_plan(self.FREE), 10)
        with pytest.raises(InvariantError, match="^incomplete row after enumeration$"):
            enum.standardized_rows()


class TestTraceAndContains:
    table = todd_coxeter(P6, [T1_236, T2_236])

    def test_empty_word_fixes_everything(self):
        for c in range(self.table.index):
            assert self.table.trace(Word(()), c) == c

    def test_relators_fix_every_coset(self):
        for rel in P6.relators:
            for c in range(self.table.index):
                assert self.table.trace(rel, c) == c

    def test_subgroup_words_stabilize_row_zero(self):
        assert self.table.trace(T1_236, 0) == 0
        assert self.table.contains(T1_236 * T2_236)

    def test_a_not_in_translation_subgroup(self):
        # oracle: a has a nontrivial point-group image (an order-6 rotation)
        from orbiforge.wallpaper import model
        assert not model("p6").image(1).linear.is_identity()
        assert not self.table.contains(Word((1,)))

    def test_relator_is_contained(self):
        assert self.table.contains(Word((2, 2, 2)))


class TestSchreier:
    def test_cyclic_trivial_subgroup(self):
        c6 = Presentation("c6", ("a",), (Word((1,) * 6),))
        table = todd_coxeter(c6, [])
        assert table.index == 6
        gens = table.schreier_generators()
        assert gens == [Word((1,) * 6)]

    def test_all_outputs_in_subgroup(self):
        table = todd_coxeter(P6, [T1_236, T2_236])
        for w in table.schreier_generators():
            assert table.contains(w)

    def test_sign_kernel_gens_include_b_and_a_squared(self):
        hom = sign_homs(P6)[0]
        table = todd_coxeter(P6, hom.kernel_words())
        gens = set(table.schreier_generators())
        assert Word((2,)) in gens
        assert Word((1, 1)) in gens


class TestNoReReduction:
    """Words that are reduced by construction are not reduced again."""

    @pytest.fixture()
    def reduce_count(self, monkeypatch):
        count = [0]
        original = fpgroup._reduce_letters

        def counted(letters):
            count[0] += 1
            return original(letters)

        monkeypatch.setattr(fpgroup, "_reduce_letters", counted)
        return count

    def test_schreier_words_and_transversal_reduce_nothing(self, reduce_count):
        from orbiforge.wallpaper import model

        table = todd_coxeter(model("p1").presentation, [Word((1,)) ** 200, Word((2,))])
        reduce_count[0] = 0
        pairs = table.schreier_pairs()
        reps = table.transversal()
        assert reduce_count[0] == 0
        assert (len(pairs), len(reps)) == (201, 200)
        assert max(len(w) for _, _, w in pairs) == 201

    def test_product_and_inverse_of_reduced_words_reduce_nothing(self, reduce_count):
        a, b, one = Word((1, 2, -1, 3)), Word((-3, 1, -2, 2)), Word(())
        reduce_count[0] = 0
        assert (a * b).letters == (1, 2)
        assert (a * a.inverse()).letters == ()
        assert (b * one).letters == (one * b).letters == b.letters
        assert a.inverse().letters == (-3, 1, -2, -1)
        assert reduce_count[0] == 0

    def test_counter_is_live(self, reduce_count):
        reduce_count[0] = 0
        assert Word((1, -1)).is_empty()
        assert reduce_count[0] > 0


class TestReidemeisterSchreier:
    def test_index_one_gives_parent_up_to_renaming(self):
        full = todd_coxeter(P6, [Word((1,)), Word((2,))])
        assert full.index == 1
        sub = reidemeister_schreier(full)
        assert len(sub.presentation.generators) == P6.ngens
        assert set(sub.presentation.relators) == set(P6.relators)
        assert sub.inclusion["x1"] == Word((1,))

    def test_sign_kernel_abelianization(self):
        # oracle: the 3,3,3 rotation group <x,y | x^3, y^3, (xy)^3>
        oracle = Presentation("p3", ("x", "y"),
                              (Word((1,) * 3), Word((2,) * 3), Word((1, 2) * 3)))
        assert abelianization(oracle) == AbelianGroup(0, (3, 3))
        hom = sign_homs(P6)[0]
        table = todd_coxeter(P6, hom.kernel_words())
        sub = reidemeister_schreier(table)
        assert abelianization(sub.presentation) == AbelianGroup(0, (3, 3))
        for w in sub.inclusion.values():
            assert table.contains(w)

    def test_trivial_subgroup_of_cyclic_is_trivial(self):
        c6 = Presentation("c6", ("a",), (Word((1,) * 6),))
        sub = reidemeister_schreier(todd_coxeter(c6, []))
        assert sub.presentation.generators == ()
        assert sub.presentation.relators == ()

    def test_inclusion_words_must_lie_in_the_subgroup(self, monkeypatch):
        # a table that claims no word lies in the subgroup refuses every
        # Schreier generator the simplifier keeps
        table = todd_coxeter(P6, sign_homs(P6)[0].kernel_words())
        monkeypatch.setattr(CosetTable, "contains", lambda self, w: False)
        with pytest.raises(InvariantError, match="^inclusion word leaves the subgroup$"):
            reidemeister_schreier(table)

    def test_index_multiplicativity(self):
        # [G : K] = [G : H] * [H : K] with G = Z/6, H = <a^2>, K = 1
        c6 = Presentation("c6", ("a",), (Word((1,) * 6),))
        h_table = todd_coxeter(c6, [Word((1, 1))])
        assert h_table.index == 2
        h_pres = reidemeister_schreier(h_table).presentation
        k_in_h = todd_coxeter(h_pres, [])
        assert k_in_h.index == 3
        assert todd_coxeter(c6, []).index == h_table.index * k_in_h.index


class TestRandomizedOracles:
    def test_abelian_product_orders(self):
        # oracle: |<a, b | a^m, b^n, [a,b]>| = m * n
        import random
        rng = random.Random(17)
        for _ in range(20):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            p = Presentation("ab", ("a", "b"),
                             (Word((1,) * m), Word((2,) * n), Word((1, 2, -1, -2))))
            assert todd_coxeter(p, []).index == m * n

    def test_dihedral_orders(self):
        for n in range(1, 8):
            p = Presentation("dih", ("a", "b"),
                             (Word((1,) * n), Word((2, 2)), Word((1, 2, 1, 2))))
            assert todd_coxeter(p, []).index == 2 * n

    def test_cyclic_subgroup_indices(self):
        # oracle: index of <a^k> in Z/n is gcd(k, n)
        from math import gcd
        for n in (5, 6, 9, 12):
            p = Presentation("cn", ("a",), (Word((1,) * n),))
            for k in range(1, n + 1):
                assert todd_coxeter(p, [Word((1,) * k)]).index == gcd(k, n)


def _golden_cases():
    from orbiforge.wallpaper import model

    a4 = Presentation("a4", ("a", "b"),
                      (Word((1,) * 3), Word((2,) * 3), Word((1, 2) * 2)))
    a5 = Presentation("a5", ("a", "b"),
                      (Word((1,) * 5), Word((2,) * 3), Word((1, 2) * 2)))
    psl27 = Presentation("PSL(2,7)", ("a", "b"), (
        Word((1, 1)), Word((2, 2, 2)), Word((1, 2) * 7), Word((-1, -2, 1, 2) * 4)))
    cases = {
        "S6": (coxeter_symmetric(6), []),
        "PSL(2,7)": (psl27, []),
        "A4": (a4, []),
        "A5": (a5, []),
        "F(2,5)": (fibonacci_group(2, 5), []),
        "F(2,7)": (fibonacci_group(2, 7), []),
    }
    p6 = model("p6")
    t1, t2 = p6.translation_words
    for w in (Word((1, -2)), Word((-2, -1, 2))):
        cases[f"p6 > <t1^8, t2^8>^{w.letters}"] = (
            p6.presentation, [(t1 ** 8).conjugate(w), (t2 ** 8).conjugate(w)])
    for name in ("p4", "pgg", "p4g", "p31m"):
        m = model(name)
        cases[f"{name} translations"] = (m.presentation, list(m.translation_words))
        for hom in sign_homs(m.presentation):
            cases[f"{name} kernel {hom.signs}"] = (m.presentation, hom.kernel_words())
    return cases


GOLDEN_CASES = _golden_cases()

# sha256 of repr(table.rows), recorded from the enumerator that defined rows
# HLT-style; standardized rows are canonical for the subgroup, so any correct
# enumeration strategy must reproduce them
GOLDEN_TABLE_HASHES = {
    "S6":
        "6a246cf152c90f44959d3a795a05f6b65d6891f88b6c64da1a9a4b2be6169ac4",
    "PSL(2,7)":
        "7e0880b49cddd5bde30832c069fa1955fe0d89338b8a7d5a4f9463d7a3219a85",
    "A4":
        "4a247d990d3405d18bf27bce82bbbfc9ca63529d51352ef87e99d6ef7e4c25e3",
    "A5":
        "3693a6c8bcd399cd9f2b8a22a6331098a490e3ada83db15613ef08c427c1b5f8",
    "F(2,5)":
        "fac67390a8161a6a5cdef51d449ca52c8657f7a4fce542063bccf2828943760f",
    "F(2,7)":
        "87f18800899f37fbf70555df8d2651c264855b5ee42b8c8e9a48657fffe5a14d",
    "p6 > <t1^8, t2^8>^(1, -2)":
        "4a0a472e098d4f897e5aa1a556b2cb36ca5a9973bfc6a3f7813dad1af2bdb0df",
    "p6 > <t1^8, t2^8>^(-2, -1, 2)":
        "4a0a472e098d4f897e5aa1a556b2cb36ca5a9973bfc6a3f7813dad1af2bdb0df",
    "p4 translations":
        "f09f05e40b4cd088993eeb5387935f49d9bb9531a45d9ab79193982d84e5bf4f",
    "p4 kernel (-1, -1)":
        "83f95dd54f1cd46c4c46c1c4650b9c8c628c268a6e5f12733940f2de69f4e9cc",
    "p4 kernel (-1, 1)":
        "f151c47d7da07080338ef3e5106ba17b97c152b6659c2eee7f1a58bae5c7d536",
    "p4 kernel (1, -1)":
        "25536ae3871bf276cb34b2b9e37d37939a1fbcace1c31489c618f2c23b1e0738",
    "pgg translations":
        "06b6d29b4dff7a697a36d9795f04258309aa969170b109cb1e069e7250df5c08",
    "pgg kernel (-1, -1, 1)":
        "ce69d0327ce4e895d7fca47680f0e776026ba04fe6d66d99d9fccaa82369b6aa",
    "pgg kernel (-1, 1, 1)":
        "8977d4c026707148a707282c1006811cac12804b63cd554ffa2a152f5243ff2b",
    "pgg kernel (1, -1, 1)":
        "d8b8ea9d070e5b4e8dc7d74e846ab847e700e891125c2770c0f4fc51c96d2a73",
    "p4g translations":
        "352438119481d5083b2a638b9e57bb073c1dda93160606bfb0add36d8eb75f3d",
    "p4g kernel (-1, -1, 1, 1)":
        "78497d94a3e4b6b4e29b27366cdd4d9688ec92474b9843ec6caa7ddf51b79a26",
    "p4g kernel (-1, 1, 1, 1)":
        "2e65a00e093554026c04b62467e75429dbd6529cf70f64d9b6b28c6466609094",
    "p4g kernel (1, -1, 1, 1)":
        "d0c3c6d79def7fb9859814d6761d09160887eb28ef83597840c1a6fa7862fb09",
    "p31m translations":
        "7a4d098c5759c51a01ef284146c58548cf8de999ee394f4e8baced2074a1f434",
    "p31m kernel (1, -1, 1, 1)":
        "d0c3c6d79def7fb9859814d6761d09160887eb28ef83597840c1a6fa7862fb09",
}


class TestGoldenTables:
    def test_every_case_has_a_hash(self):
        assert set(GOLDEN_TABLE_HASHES) == set(GOLDEN_CASES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_table_is_unchanged(self, name):
        pres, sub = GOLDEN_CASES[name]
        rows = todd_coxeter(pres, sub).rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_TABLE_HASHES[name]


def _rs_golden_cases():
    from orbiforge.wallpaper import model

    c6 = Presentation("c6", ("a",), (Word((1,) * 6),))
    cases = {
        "S7 > S6": (coxeter_symmetric(7), [Word((i,)) for i in range(1, 6)]),
        "S5 > S4": (coxeter_symmetric(5), [Word((i,)) for i in range(1, 4)]),
        "C6 > 1": (c6, []),
        # 1345 Schreier generators and 5376 rewritten relators, of which the
        # Tietze pass drops 533 as repeats
        "a8b7 > <a>": (A8B7, [Word((1,))]),
    }
    p6 = model("p6")
    t1, t2 = p6.translation_words
    for k in (1, 2, 3, 4):
        cases[f"p6 > <t1^{k}, t2^{k}>"] = (p6.presentation, [t1 ** k, t2 ** k])
    return cases


RS_GOLDEN_CASES = _rs_golden_cases()

# sha256 of repr(reidemeister_schreier(table)), the presentation and the
# inclusion words, recorded from the simplifier that substituted every
# relator after each elimination
RS_GOLDEN_HASHES = {
    "S7 > S6":
        "4d693dc7914e1c23c3445b6dcb2f9153c631ce97f866c6631b9c00e49c3efb27",
    "S5 > S4":
        "f62bcb81edc870b06df143dbd3dbc0e9e5f438b1935bc9d5954fcf985ca18ea0",
    "C6 > 1":
        "b7f3e384fb2680f71fc85ebdf1e13365ac48cc9e1e39a59e340f70f1b86c74ef",
    "a8b7 > <a>":
        "23dd585d1af950b8ef73dcbd872ffa11b1428992bc74214bfc3c3d2bb54d974c",
    "p6 > <t1^1, t2^1>":
        "f1b463ca47a30d49fab6e331fb1cc72fbdd722e58374c3e27d48bd8de69edcc4",
    "p6 > <t1^2, t2^2>":
        "b467dd388bd8f5381a5f5e3c33d1a071271a2e293415d0157f0265c7b7828b97",
    "p6 > <t1^3, t2^3>":
        "e55f7ae237b43237765b3d033fcf63d553cd85cd16108241423ea279e1d330c2",
    "p6 > <t1^4, t2^4>":
        "872bb4aec9ec5624b85307f0656c702ebf6dfa2efb3d77f888bf5a5790d1bb5f",
}


def _reference_simplify(ngens, relators):
    """The simplifier Reidemeister-Schreier used before the shared Tietze
    pass: after each elimination, substitute into every relator and dedupe.
    Returns the surviving generators, the relators renumbered over them, and
    the number of repeats it dropped."""
    alive = list(range(1, ngens + 1))
    replacement = {}
    repeats = 0

    def substitute(w):
        while any(abs(letter) in replacement for letter in w.letters):
            out = []
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
                repeats += 1
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
                    kill, keep = (abs(y), Word((-x,)) if y > 0 else Word((x,)))
                    replacement[kill] = keep
                    alive = [g for g in alive if g != kill]
                    changed = True
                    break
    renum = {old: i + 1 for i, old in enumerate(alive)}
    return (tuple(alive),
            [Word(tuple(renum[abs(x)] * (1 if x > 0 else -1) for x in r.letters))
             for r in relators],
            repeats)


class TestTietzePass:
    @pytest.mark.parametrize("name", sorted(RS_GOLDEN_CASES))
    def test_reidemeister_schreier_is_unchanged(self, name):
        pres, sub = RS_GOLDEN_CASES[name]
        sp = reidemeister_schreier(todd_coxeter(pres, sub))
        assert hashlib.sha256(repr(sp).encode()).hexdigest() == RS_GOLDEN_HASHES[name]

    def test_matches_the_reference_simplifier(self):
        import random

        rng = random.Random(2020)
        eliminated = 0
        for _ in range(3000):
            n = rng.randint(1, 6)
            rels = []
            for _ in range(rng.randint(0, 10)):
                length = rng.choice((0, 1, 1, 2, 2, 2, 3, 4, 5))
                rels.append(Word(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                       for _ in range(length))))
            p = Presentation("r", tuple(f"g{i}" for i in range(1, n + 1)), tuple(rels))
            reduced, survivors = fpgroup.tietze_pass(p)
            want_survivors, want_relators, _ = _reference_simplify(n, rels)
            assert survivors == want_survivors
            assert list(reduced.relators) == want_relators
            assert reduced.generators == tuple(f"g{i}" for i in survivors)
            eliminated += n - len(survivors)
        assert eliminated > 3000  # the draws do exercise the eliminations

    def test_matches_the_reference_simplifier_on_certificate_shapes(self):
        # like an order-2 certificate's quotient: relators of 10-30 letters,
        # some with a near copy (maybe inverted) that differs only by letters
        # of generators the single-letter kills listed last delete, so the
        # two become repeats only after a substitution
        import random

        rng = random.Random(25)
        eliminated = late_repeats = 0
        for _ in range(200):
            n = rng.randint(4, 9)
            kills = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
            rels = []
            for _ in range(rng.randint(3, 8)):
                w = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(10, 30))]
                rels.append(Word(tuple(w)))
                if rng.random() < 0.5:
                    for _ in range(rng.randint(1, 3)):
                        w.insert(rng.randint(0, len(w)), rng.choice((1, -1)) * rng.choice(kills))
                    near = Word(tuple(w))
                    rels.append(near.inverse() if rng.random() < 0.5 else near)
            rng.shuffle(rels)
            for _ in range(rng.randint(0, 2)):
                x, y = rng.sample(range(1, n + 1), 2)
                rels.append(Word((x, rng.choice((1, -1)) * y)))
            rels += [Word((rng.choice((1, -1)) * g,)) for g in kills]
            p = Presentation("r", tuple(f"g{i}" for i in range(1, n + 1)), tuple(rels))
            reduced, survivors = fpgroup.tietze_pass(p)
            want_survivors, want_relators, repeats = _reference_simplify(n, rels)
            assert survivors == want_survivors
            assert list(reduced.relators) == want_relators
            nonempty = [r.letters for r in rels if r.letters]
            keys = {min(r, Word(r).inverse().letters) for r in nonempty}
            eliminated += n - len(survivors)
            late_repeats += repeats - (len(nonempty) - len(keys))
        # the draws do eliminate, and do drop repeats made by a substitution
        assert eliminated > 800
        assert late_repeats > 700


@pytest.mark.parametrize("env, call, message", [
    ("abc", cosetenum.default_max_cosets, "^ORBIFORGE_MAX_COSETS must be an integer, got 'abc'$"),
    ("0", cosetenum.default_max_cosets, "^ORBIFORGE_MAX_COSETS must be positive$"),
    ("\u0663", cosetenum.default_max_cosets,
     "^ORBIFORGE_MAX_COSETS must be an integer, got '\u0663'$"),
    (None, lambda: TestTraceAndContains.table.trace(Word(()), 6), "^coset 6 out of range$"),
    (None, lambda: TestTraceAndContains.table.trace(Word(()), -1), "^coset -1 out of range$"),
], ids=["allowance-not-int", "allowance-not-positive", "allowance-not-ascii",
        "coset-past-end", "negative-coset"])
def test_input_errors(env, call, message, monkeypatch):
    if env is not None:
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", env)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("text, value", [("0", 0), ("+7", 7), ("-12", -12), ("007", 7)])
def test_ascii_int_reads_signed_ascii_digits(text, value):
    assert cosetenum.ascii_int(text) == value


@pytest.mark.parametrize("text", ["", "+", "3.0", "\u0663", "\uff15\uff10", "1_0", " 3 ", "3\n"])
def test_ascii_int_refuses_what_int_alone_reads(text):
    with pytest.raises(ValueError, match="^not an integer in ASCII digits: "):
        cosetenum.ascii_int(text)


def test_ascii_int_keeps_the_digit_limit_of_int():
    with pytest.raises(ValueError):
        cosetenum.ascii_int("1" * 4301)
