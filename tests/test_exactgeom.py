"""Exact-arithmetic and isometry-classification tests."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiforge.exactgeom import (Glide, Identity, IDENTITY_MAT, Isometry,
                                 NoFixedPointError, NonCrystallographicError,
                                 QuadNum, Reflection, Rotation, Translation,
                                 classify_isometry, compose, fixed_point, mat,
                                 parse_quadnum, reconstruct, render_quadnum,
                                 rotation_matrix, rotation_order, vec)
from orbiforge.wallpaper import model


def qn(a, b=0):
    return QuadNum(Fraction(a), Fraction(b))


class TestQuadNum:
    def test_identity_multiplication(self):
        assert qn(1) * QuadNum.sqrt3() == QuadNum.sqrt3()

    def test_sqrt3_squares_to_three(self):
        assert QuadNum.sqrt3() * QuadNum.sqrt3() == qn(3)

    def test_inverse_of_sqrt3(self):
        # oracle: whatever 1/sqrt3 is, multiplying back must give 1 exactly
        inv = 1 / QuadNum.sqrt3()
        assert inv * QuadNum.sqrt3() == qn(1)
        assert inv == qn(0, Fraction(1, 3))

    def test_field_axioms_sample(self):
        x = qn(Fraction(2, 3), Fraction(-1, 5))
        y = qn(Fraction(-7, 2), Fraction(1, 3))
        z = qn(5, Fraction(2, 7))
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == qn(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qn(1) / qn(0)

    def test_sign_mixed_terms(self):
        assert qn(2, -1).sign() == 1      # 2 > sqrt3
        assert qn(Fraction(17, 10), -1).sign() == -1   # 1.7 < sqrt3
        assert qn(-2, 1).sign() == -1
        assert qn(0, 0).sign() == 0

    def test_floor(self):
        assert QuadNum.sqrt3().floor() == 1
        assert (-QuadNum.sqrt3()).floor() == -2
        assert qn(Fraction(7, 2)).floor() == 3
        assert (qn(2) * QuadNum.sqrt3()).floor() == 3  # 2 sqrt3 = 3.46...

    @pytest.mark.parametrize("x", [
        qn(10 ** 40, 1),
        qn(-10 ** 40, 1),
        qn(10 ** 40, -1),
        qn(Fraction(10 ** 400 + 1, 7), Fraction(-3, 10 ** 399)),
        qn(Fraction(-10 ** 400, 3), Fraction(10 ** 200, 11)),
        qn(Fraction(1, 10 ** 300), Fraction(-1, 10 ** 300)),
    ])
    def test_floor_of_huge_and_tiny_values_is_exact(self, x):
        # far beyond float range or precision; checked by exact comparisons
        n = x.floor()
        assert qn(n) <= x < qn(n + 1)

    def test_ordering_consistent_with_float(self):
        values = [qn(0), QuadNum.sqrt3(), qn(1), qn(2, -1), qn(Fraction(-1, 2), 1)]
        assert sorted(values) == sorted(values, key=float)

    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    @settings(max_examples=60)
    def test_render_parse_roundtrip(self, a, b):
        x = QuadNum(a, b)
        assert parse_quadnum(render_quadnum(x)) == x


ORIGIN = vec(0, 0)


class TestComposeAndClassify:
    def test_inverse_pair_is_identity(self):
        a = model("p6").image(1)
        assert compose(a, a.inverse()).is_identity()

    def test_p6_translation_images(self):
        p6 = model("p6")
        a, b = p6.image(1), p6.image(2)
        t1 = compose(b, (a.inverse()) ** 2)
        half_rt3 = QuadNum(0, Fraction(1, 2))
        assert classify_isometry(t1) == Translation(vec(Fraction(1, 2), half_rt3))
        t2 = compose(b.inverse(), a ** 2)
        assert classify_isometry(t2) == Translation(vec(1, 0))

    def test_p4_translation_images(self):
        p4 = model("p4")
        c, d = p4.image(1), p4.image(2)
        t1 = compose(c ** 2, d.inverse())
        assert classify_isometry(t1) == Translation(vec(1, 0))
        t2 = compose(compose(c, d.inverse()), c)
        assert classify_isometry(t2) == Translation(vec(0, 1))

    def test_rotation_a_about_origin(self):
        a = model("p6").image(1)
        assert classify_isometry(a) == Rotation(ORIGIN, 6)

    def test_pure_translation(self):
        f = Isometry(IDENTITY_MAT, vec(1, 0))
        assert classify_isometry(f) == Translation(vec(1, 0))

    def test_glide_classification_with_square_oracle(self):
        f = Isometry(mat(1, 0, 0, -1), vec(1, 0))
        kind = classify_isometry(f)
        assert isinstance(kind, Glide)
        assert kind.point == ORIGIN and kind.direction == vec(1, 0)
        assert kind.vector == vec(1, 0)
        # oracle: the square must be the double translation along the axis
        assert classify_isometry(f * f) == Translation(vec(2, 0))

    def test_associativity_on_model_elements(self):
        p6m = model("p6m")
        a, b, c = (p6m.image(i) for i in (1, 2, 3))
        triples = [(a, b, c), (b, c, a), (a * b, c, b), (c, c, a * b * c)]
        for f, g, h in triples:
            assert (f * g) * h == f * (g * h)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_associativity_random_triples(self, data):
        f = data.draw(model_isometries)
        g = data.draw(model_isometries)
        h = data.draw(model_isometries)
        assert (f * g) * h == f * (g * h)

    def test_order_12_rotation_rejected(self):
        # R(30 degrees) lives in Q(sqrt3) but is not crystallographic
        half_rt3 = QuadNum(0, Fraction(1, 2))
        m = mat(half_rt3, Fraction(-1, 2), Fraction(1, 2), half_rt3)
        with pytest.raises(NonCrystallographicError):
            rotation_order(m)
        with pytest.raises(NonCrystallographicError):
            classify_isometry(Isometry(m, ORIGIN))


class TestFixedPoint:
    def test_a_fixes_origin(self):
        assert fixed_point(model("p6").image(1)) == ORIGIN

    def test_b_fixed_point_substitutes_back(self):
        b = model("p6").image(2)
        p = fixed_point(b)
        assert b.apply(p) == p

    def test_d_fixed_point(self):
        # oracle: solve (I - M)x = t exactly, then substitute back
        d = model("p4").image(2)
        p = fixed_point(d)
        assert p == vec(Fraction(1, 2), 0)
        assert d.apply(p) == p

    def test_translation_has_no_fixed_point(self):
        with pytest.raises(NoFixedPointError):
            fixed_point(Isometry.translation(vec(1, 0)))


def _random_model_isometry(draw):
    name = draw(st.sampled_from(["p6", "p4", "p6m", "pgg", "cm"]))
    m = model(name)
    letters = draw(st.lists(
        st.integers(min_value=1, max_value=m.presentation.ngens).flatmap(
            lambda g: st.sampled_from([g, -g])),
        min_size=0, max_size=8))
    return m.evaluate(m.presentation.word(letters))


model_isometries = st.composite(lambda draw: _random_model_isometry(draw))()


class TestClassReconstruct:
    @given(model_isometries)
    @settings(max_examples=120, deadline=None)
    def test_classify_after_reconstruct_is_identity(self, f):
        kind = classify_isometry(f)
        assert classify_isometry(reconstruct(kind)) == kind

    @given(model_isometries)
    @settings(max_examples=120, deadline=None)
    def test_rotation_and_reflection_laws(self, f):
        kind = classify_isometry(f)
        if isinstance(kind, Rotation):
            assert f ** kind.order == Isometry.identity()
            assert f.apply(kind.center) == kind.center
        elif isinstance(kind, Reflection):
            assert (f * f).is_identity()
        elif isinstance(kind, Glide):
            assert not kind.vector.is_zero()
            assert kind.vector.cross(kind.direction).is_zero()

    def test_reconstruct_each_kind(self):
        cases = [
            Identity(),
            Translation(vec(Fraction(1, 2), 3)),
            Rotation(vec(1, Fraction(-2, 3)), 4),
            Rotation(vec(0, 0), 3),
            Reflection(ORIGIN, vec(1, 1)),
            Glide(vec(0, Fraction(1, 4)), vec(1, 0), vec(Fraction(1, 2), 0)),
        ]
        for kind in cases:
            assert classify_isometry(reconstruct(kind)) == kind


class TestModelMatrices:
    def test_all_generator_images_orthogonal(self):
        for name in ("p6", "p4", "p6m", "p4m", "p3m1"):
            for iso in model(name).rep:
                m = iso.linear
                assert (m.transpose() * m).is_identity()
                assert m.det() in (QuadNum.of(1), QuadNum.of(-1))

    def test_rotation_matrix_orders(self):
        for k in (2, 3, 4, 6):
            assert rotation_order(rotation_matrix(k)) == k
