"""Lattice reduction, symmetry detection, and norm-form indices."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiforge.cosetenum import InvariantError
from orbiforge.exactgeom import QuadNum, rotation_matrix, vec
from orbiforge.lattice import (InvalidLatticeError, Lattice2, QuadInt, Ring,
                               gauss_reduce, integer_lattice_basis,
                               is_rotationally_rhombic, multiplication_matrix,
                               rigid_abelian_index, standard_ring_lattice,
                               sublattice_index, symmetry_order)
from oracle import hermite

SQUARE = Lattice2(vec(1, 0), vec(0, 1))
HEX = Lattice2(vec(1, 0), vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
RECT = Lattice2(vec(2, 0), vec(0, 1))


class TestGaussReduce:
    def test_shear_reduces_to_unit_square(self):
        # oracle: subtracting 5*v1 from v2 keeps the determinant and satisfies
        # both reduction inequalities
        reduced = gauss_reduce(Lattice2(vec(1, 0), vec(5, 1)))
        assert abs(float(reduced.det())) == abs(float(SQUARE.det()))
        a, b, c = reduced.gram()
        assert a <= c and abs(b) * 2 <= a
        assert {reduced.b1, reduced.b2} <= {vec(1, 0), vec(0, 1), vec(-1, 0), vec(0, -1)}

    def test_already_reduced_untouched(self):
        assert gauss_reduce(SQUARE).gram() == SQUARE.gram()
        assert gauss_reduce(HEX).gram() == HEX.gram()

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidLatticeError, match="^degenerate basis "):
            Lattice2(vec(1, 2), vec(2, 4))

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=100)
    def test_reduction_preserves_lattice(self, a, b, c, d):
        if a * d - b * c == 0:
            return
        lat = Lattice2(vec(a, b), vec(c, d))
        red = gauss_reduce(lat)
        # unimodular change of basis: both containments and equal determinant
        assert lat.contains(red.b1) and lat.contains(red.b2)
        assert red.contains(lat.b1) and red.contains(lat.b2)
        assert abs(red.det().a) == abs(lat.det().a)
        ga, gb, gc = red.gram()
        assert ga <= gc and abs(gb) * 2 <= ga


class TestSymmetry:
    def test_standard_lattices(self):
        assert symmetry_order(SQUARE) == 4
        assert symmetry_order(HEX) == 6
        assert symmetry_order(RECT) == 2

    def test_rhombic_verdicts(self):
        assert is_rotationally_rhombic(SQUARE)
        assert is_rotationally_rhombic(HEX)
        assert not is_rotationally_rhombic(RECT)

    def test_disguised_square(self):
        assert symmetry_order(Lattice2(vec(3, 4), vec(-4, 3))) == 4

    def test_disguised_hexagonal(self):
        r3 = rotation_matrix(3)
        v = vec(5, 7)
        assert symmetry_order(Lattice2(v, r3 * v)) == 6

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=100)
    def test_rhombic_iff_symmetry_at_least_four(self, a, b, c, d):
        if a * d - b * c == 0:
            return
        lat = Lattice2(vec(a, b), vec(c, d))
        assert is_rotationally_rhombic(lat) == (symmetry_order(lat) in (4, 6))


class TestIntegerMatrix:
    def test_rotations_in_the_lattices_they_keep(self):
        assert SQUARE.integer_matrix(rotation_matrix(4)) == (0, -1, 1, 0)
        assert HEX.integer_matrix(rotation_matrix(3)) == (-1, -1, 1, 0)
        assert HEX.integer_matrix(rotation_matrix(6)) == (0, -1, 1, 1)
        # the basis (3, 4), (-4, 3) turns by a quarter-turn into itself
        assert Lattice2(vec(3, 4), vec(-4, 3)).integer_matrix(rotation_matrix(4)) == \
            (0, -1, 1, 0)

    def test_a_rotation_the_lattice_does_not_keep_is_refused(self):
        with pytest.raises(InvariantError,
                           match=r"is not integral in the lattice basis \(1, 0\), \(0, 1\)$"):
            SQUARE.integer_matrix(rotation_matrix(3))


class TestNormFormIndices:
    def test_gaussian_example(self):
        # oracle: determinant of the sublattice spanned by (1,1), (-1,1) is 2
        z = QuadInt(1, 1, Ring.GAUSSIAN)
        m = multiplication_matrix(z)
        base = standard_ring_lattice(Ring.GAUSSIAN)
        assert Lattice2(m * base.b1, m * base.b2).index_in(base) == 2
        assert sublattice_index(z) == 2

    def test_hexagonal_family_example(self):
        z = QuadInt(1, 1, Ring.ROOT_MINUS3)
        assert sublattice_index(z) == 4

    def test_unit(self):
        assert sublattice_index(QuadInt(1, 0, Ring.GAUSSIAN)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^index of the zero multiple is undefined$"):
            sublattice_index(QuadInt(0, 0, Ring.GAUSSIAN))

    def test_determinant_ratio_on_random_multipliers(self):
        rng = random.Random(7)
        for _ in range(100):
            ring = rng.choice([Ring.GAUSSIAN, Ring.ROOT_MINUS3])
            z = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9), ring)
            if z.is_zero():
                continue
            base = standard_ring_lattice(ring)
            m = multiplication_matrix(z)
            assert Lattice2(m * base.b1, m * base.b2).index_in(base) == \
                sublattice_index(z) == z.norm()

    def test_norm_is_cross_checked_against_the_determinant_ratio(self, monkeypatch):
        # a wrong norm is an internal fault, not a bad lattice
        norm = QuadInt.norm
        monkeypatch.setattr(QuadInt, "norm", lambda z: norm(z) + 1)
        with pytest.raises(InvariantError, match="^determinant ratio differs from the norm$"):
            sublattice_index(QuadInt(2, 1, Ring.GAUSSIAN))

    def test_ring_lattice_is_built_once_per_ring(self, monkeypatch):
        # sublattice_index reads tau's integer matrix, converted from the one
        # ring lattice once per ring, and converts nothing per call
        def refuse(lattice, m):
            raise AssertionError("converted again")

        monkeypatch.setattr(Lattice2, "integer_matrix", refuse)
        for ring in Ring:
            base = standard_ring_lattice(ring)
            assert standard_ring_lattice(ring) is base
            assert sublattice_index(QuadInt(2, 1, ring)) == QuadInt(2, 1, ring).norm()
            assert sublattice_index(QuadInt(-3, 4, ring)) == QuadInt(-3, 4, ring).norm()
        assert standard_ring_lattice(Ring.GAUSSIAN) == SQUARE
        assert standard_ring_lattice(Ring.ROOT_MINUS3) == \
            Lattice2(vec(1, 0), vec(0, QuadNum.sqrt3()))

    def test_rigid_indices(self):
        assert rigid_abelian_index("S2(2,3,6)", QuadInt(1, 0, Ring.ROOT_MINUS3)) == 6
        assert rigid_abelian_index("S2(2,4,4)", QuadInt(1, 0, Ring.GAUSSIAN)) == 4
        assert rigid_abelian_index("S2(3,3,3)", QuadInt(1, 1, Ring.ROOT_MINUS3)) == 12

    def test_ring_mismatch(self):
        with pytest.raises(ValueError, match=r"^S2\(2,4,4\) needs ring gaussian, got "):
            rigid_abelian_index("S2(2,4,4)", QuadInt(1, 0, Ring.ROOT_MINUS3))
        with pytest.raises(ValueError, match=r"^S2\(2,3,6\) needs ring .*, got gaussian$"):
            rigid_abelian_index("S2(2,3,6)", QuadInt(1, 0, Ring.GAUSSIAN))


class TestRotationIdentities:
    def test_order_4_on_square_lattice_vectors(self):
        r = rotation_matrix(4)
        rng = random.Random(11)
        for _ in range(100):
            v = SQUARE.b1.scale(rng.randint(-9, 9)) + SQUARE.b2.scale(rng.randint(-9, 9))
            assert r * (r * v) == -v

    def test_order_3_orbit_sum_on_hexagonal_lattice_vectors(self):
        r = rotation_matrix(3)
        rng = random.Random(13)
        for _ in range(100):
            v = HEX.b1.scale(rng.randint(-9, 9)) + HEX.b2.scale(rng.randint(-9, 9))
            assert (v + r * v + r * (r * v)).is_zero()

    def test_rotations_preserve_the_lattices(self):
        r4, r3 = rotation_matrix(4), rotation_matrix(3)
        assert SQUARE.contains(r4 * SQUARE.b1) and SQUARE.contains(r4 * SQUARE.b2)
        assert HEX.contains(r3 * HEX.b1) and HEX.contains(r3 * HEX.b2)


class TestIntegerLatticeBasis:
    def test_simple(self):
        (a, b), (z, g) = integer_lattice_basis([(2, 0), (0, 2), (1, 1)])
        assert z == 0
        assert a * g == 2  # index-2 sublattice (checkerboard)

    def test_full_lattice(self):
        (a, b), (z, g) = integer_lattice_basis([(1, 0), (0, 1)])
        assert (a, g) == (1, 1)

    @staticmethod
    def _random_pairs(rng):
        k = rng.randint(0, 6)
        kind = rng.randrange(4)
        if kind == 0:  # all-zero pairs
            return [(0, 0)] * k
        if kind == 1:  # collinear: a rank-1 list
            x, y = rng.randint(-9, 9), rng.randint(-9, 9)
            return [(c * x, c * y) for c in (rng.randint(-5, 5) for _ in range(k))]
        if kind == 2:  # entries beyond +-1000
            return [(rng.randint(-5000, 5000), rng.randint(-5000, 5000)) for _ in range(k)]
        return [(rng.choice((0, rng.randint(-6, 6))), rng.randint(-6, 6)) for _ in range(k)]

    @pytest.mark.parametrize("pairs", [
        [], [(0, 0)], [(0, 0), (0, 0)], [(2, 4), (-3, -6)], [(0, 5), (0, -7)],
        [(3, 0), (-6, 0)], [(-4, 6), (0, 0), (6, -9)],
    ])
    def test_rank_deficient_lists_are_refused(self, pairs):
        assert hermite(pairs) is None
        with pytest.raises(InvalidLatticeError,
                           match="^generators do not span a rank-2 sublattice$"):
            integer_lattice_basis(pairs)

    def test_matches_the_oracle_on_seeded_lists(self):
        rng = random.Random(24)
        refused = 0
        for _ in range(5000):
            pairs = self._random_pairs(rng)
            expected = hermite(pairs)
            if expected is None:
                refused += 1
                with pytest.raises(InvalidLatticeError):
                    integer_lattice_basis(pairs)
            else:
                a, b, g = expected
                assert integer_lattice_basis(pairs) == ((a, b), (0, g))
        assert 0 < refused < 5000


@pytest.mark.parametrize("call, exc, message", [
    (lambda: SQUARE.index_in(RECT), InvalidLatticeError, "^not a sublattice$"),
    (lambda: rigid_abelian_index("S2(2,2,2,2)", QuadInt(1, 0, Ring.GAUSSIAN)), ValueError,
     r"^not a rigid cusp label: 'S2\(2,2,2,2\)'$"),
], ids=["not-a-sublattice", "not-rigid"])
def test_input_errors(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
