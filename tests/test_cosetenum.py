"""Coset enumeration, table queries, Schreier generators, subgroup presentations."""
import re

import pytest

from orbiforge.cosetenum import (CosetLimitError, CosetTable,
                                 IncompleteTableError, reidemeister_schreier,
                                 todd_coxeter)
from orbiforge.fixtures import load_fixture
from orbiforge.fpgroup import (AbelianGroup, Presentation, Word,
                               abelianization, quotient, sign_homs)

P6 = load_fixture("p6")
P4 = load_fixture("p4")
T1_236, T2_236 = Word((2, -1, -1)), Word((-2, 1, 1))
T1_244, T2_244 = Word((1, 1, -2)), Word((1, -2, 1))


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
        # F(2,7) collapses heavily on the way to its 29 cosets
        f27 = Presentation("F(2,7)", tuple(f"x{i}" for i in range(7)), tuple(
            Word(((i % 7) + 1, ((i + 1) % 7) + 1, -(((i + 2) % 7) + 1))) for i in range(7)))
        with pytest.raises(CosetLimitError) as err:
            todd_coxeter(f27, [], max_cosets=1000)
        match = re.search(r"after defining (\d+) rows, (\d+) still live", str(err.value))
        defined, live = int(match.group(1)), int(match.group(2))
        assert defined == 1000 and 29 < live < defined

    def test_determinism(self):
        t1 = todd_coxeter(P6, [T1_236, T2_236])
        t2 = todd_coxeter(P6, [T1_236, T2_236])
        assert t1.rows == t2.rows

    def test_validation_runs(self):
        todd_coxeter(P6, [T1_236, T2_236]).validate()


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

    def test_incomplete_table_rejected(self):
        broken = CosetTable(P6, (), ((0, 0, 0, 0),), complete=False)
        with pytest.raises(IncompleteTableError):
            broken.trace(Word((1,)), 0)


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
