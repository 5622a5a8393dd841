"""Exact-arithmetic and isometry-classification tests."""
import copy
import fractions
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiforge.exactgeom import (Glide, Identity, IDENTITY_MAT, Isometry,
                                 NoFixedPointError, NonCrystallographicError,
                                 QuadNum, Reflection, Rotation, Translation,
                                 classify_isometry, compose, fixed_point, mat,
                                 parse_quadnum, reconstruct, reflection_matrix,
                                 render_quadnum, rotation_matrix, rotation_order,
                                 vec)
from orbiforge.lattice import Lattice2
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
        with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(sqrt3\)$"):
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

    @pytest.mark.parametrize("text, value", [
        ("-10*rt3", qn(0, -10)), ("10*rt3", qn(0, 10)), ("12 * rt3", qn(0, 12)),
        ("12/35*rt3", qn(0, Fraction(12, 35))), ("3-10*rt3", qn(3, -10))])
    def test_multi_digit_coefficient_without_rational_part(self, text, value):
        # the rational part once matched a prefix of the coefficient,
        # reading `-10*rt3` as -1
        assert parse_quadnum(text) == value

    @pytest.mark.parametrize("text", ["2rt3", "2 rt3", "1/2rt3", "3/4 rt3", "2 3*rt3"])
    def test_rational_part_needs_an_operator_before_rt3(self, text):
        # these were read as sums: `2rt3` as 2+rt3
        with pytest.raises(ValueError, match="cannot parse"):
            parse_quadnum(text)

    @pytest.mark.parametrize("text, value", [
        ("2 - rt3", qn(2, -1)), ("1/2 + 1/2*rt3", qn(Fraction(1, 2), Fraction(1, 2))),
        (" -rt3", qn(0, -1))])
    def test_spaced_operator_before_rt3_stays_valid(self, text, value):
        assert parse_quadnum(text) == value

    def test_zero_denominator_is_a_value_error(self):
        for text in ("1/0", "1/00", "2+1/0*rt3", "0/0*rt3"):
            with pytest.raises(ValueError, match="zero denominator in"):
                parse_quadnum(text)


class _Ref:
    """The former representation, a + b*sqrt3 as two Fractions, kept as an
    independent reference for the integer triple."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _Ref(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Ref(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return _Ref(-self.a, -self.b)

    def __mul__(self, o):
        return _Ref(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    def conjugate(self):
        return _Ref(self.a, -self.b)

    def norm(self):
        return self.a * self.a - 3 * self.b * self.b

    def inverse(self):
        n = self.norm()
        return _Ref(self.a / n, -self.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_integer(self):
        return self.b == 0 and self.a.denominator == 1

    def sign(self):
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        bigger_a = a * a > 3 * b * b
        if a > 0:
            return 1 if bigger_a else -1
        return -1 if bigger_a else 1

    def floor(self):
        q = math.lcm(self.a.denominator, self.b.denominator)
        p, r = self.a.numerator * (q // self.a.denominator), self.b.numerator * (q // self.b.denominator)
        if r == 0:
            return p // q
        s = math.isqrt(3 * r * r)
        return (p + s) // q if r > 0 else (p - s - 1) // q

    def round_nearest(self):
        return (self + _Ref(Fraction(1, 2))).floor()

    def text(self):
        def frac(q):
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.b == 0:
            return frac(self.a)
        mag = frac(abs(self.b))
        tail = "rt3" if mag == "1" else f"{mag}*rt3"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return tail if sign == "+" else "-" + tail
        return f"{frac(self.a)}{sign}{tail}"


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
pairs = st.tuples(rationals, rationals)


def _same(x: QuadNum, ref: _Ref) -> bool:
    normalized = math.gcd(x.p, x.r, x.q) == 1 and x.q > 0
    return normalized and (x.a, x.b) == (ref.a, ref.b)


class TestQuadNumTriple:
    """The (p + r*sqrt3)/q triple against the Fraction-pair reference."""

    @given(pairs, pairs)
    @settings(max_examples=200)
    def test_operations_match_the_reference(self, xy, uv):
        x, y = QuadNum(*xy), QuadNum(*uv)
        rx, ry = _Ref(*xy), _Ref(*uv)
        assert _same(x, rx) and _same(y, ry)
        assert _same(x + y, rx + ry)
        assert _same(x - y, rx - ry)
        assert _same(x * y, rx * ry)
        assert _same(-x, -rx)
        assert _same(x.conjugate(), rx.conjugate())
        assert x.norm() == rx.norm()
        if not ry.is_zero():
            assert _same(y.inverse(), ry.inverse())
            assert _same(x / y, rx / ry)
        for v, rv in ((x, rx), (x - y, rx - ry)):
            assert v.sign() == rv.sign()
            assert v.floor() == rv.floor()
            assert v.round_nearest() == rv.round_nearest()
            assert v.is_integer() == rv.is_integer()
            assert v.is_zero() == rv.is_zero()
            assert str(v) == rv.text()
            assert repr(v) == f"QuadNum({rv.a!r}, {rv.b!r})"
            assert parse_quadnum(render_quadnum(v)) == v

    @given(pairs, st.integers(min_value=-50, max_value=50))
    @settings(max_examples=100)
    def test_mixed_operands_match_the_reference(self, xy, k):
        x, rx, rk = QuadNum(*xy), _Ref(*xy), _Ref(k)
        assert _same(x + k, rx + rk) and _same(k + x, rx + rk)
        assert _same(x - k, rx - rk) and _same(k - x, rk - rx)
        assert _same(x * k, rx * rk) and _same(k * x, rx * rk)
        assert _same(x * Fraction(k, 7), rx * _Ref(Fraction(k, 7)))
        if k:
            assert _same(x / k, rx / rk)
        if not rx.is_zero():
            assert _same(k / x, rk / rx)
        assert (x < k) == ((rx - rk).sign() < 0)
        assert (x >= k) == ((rx - rk).sign() >= 0)

    def test_integer_inputs_are_normalized(self):
        for x in (QuadNum(), QuadNum(0, 0), QuadNum.of(0), qn(3) - qn(3), qn(0, 5) * 0):
            assert (x.p, x.r, x.q) == (0, 0, 1)
        assert (QuadNum(6, -4).p, QuadNum(6, -4).r, QuadNum(6, -4).q) == (6, -4, 1)
        x = qn(Fraction(2, 6), Fraction(-3, 4))
        assert (x.p, x.r, x.q) == (4, -9, 12)

    def test_equal_values_hash_equal(self):
        routes = [QuadNum(Fraction(2, 4)), QuadNum(1) / 2, QuadNum.of(Fraction(1, 2)),
                  qn(Fraction(3, 2)) - 1, (QuadNum.sqrt3() * QuadNum.sqrt3()) / 6,
                  parse_quadnum("1/2"), QuadNum(Fraction(1, 2), 0)]
        assert all(x == routes[0] for x in routes)
        assert len({hash(x) for x in routes}) == 1
        assert len({x: None for x in routes}) == 1

    def test_immutable(self):
        x = qn(Fraction(1, 3), 2)
        for name in ("p", "r", "q", "a", "b", "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(x, name, 5)
        with pytest.raises(AttributeError, match="^cannot delete field 'p'$"):
            del x.p
        assert x == qn(Fraction(1, 3), 2)

    def test_copy_and_pickle_keep_the_value(self):
        x = qn(Fraction(-7, 3), Fraction(5, 6))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x) and (y.p, y.r, y.q) == (x.p, x.r, x.q)
        assert copy.deepcopy(vec(x, 1)) == vec(x, 1)

    def test_equality_with_plain_numbers_is_false(self):
        # as with the former dataclass __eq__, only a QuadNum equals a QuadNum
        assert QuadNum(1) != 1
        assert not QuadNum(1) == Fraction(1)
        assert QuadNum(1) == QuadNum.of(1)

    @pytest.mark.parametrize("bad", [1.5, "1", None, QuadNum(1)])
    def test_non_exact_arguments_are_type_errors(self, bad):
        with pytest.raises(TypeError):
            QuadNum(bad)
        with pytest.raises(TypeError):
            QuadNum(0, bad)
        if not isinstance(bad, QuadNum):
            with pytest.raises(TypeError, match="as an exact rational$"):
                QuadNum.of(bad)


class TestNoFractionOnTheHotPath:
    """Exact arithmetic on the hot path runs in ints: no Fraction is built."""

    @pytest.fixture()
    def fraction_count(self, monkeypatch):
        count = [0]
        original = fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            count[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
        return count

    def test_hot_path_builds_no_fraction(self, fraction_count):
        p6 = model("p6")
        f, g = p6.image(1), p6.image(2)
        m, n = g.linear, mat(QuadNum(0, Fraction(1, 2)), 1, Fraction(-3, 4), 2)
        lattice = Lattice2(vec(1, 0), vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
        lattice.coords(vec(3, 1))  # warm the cached inverse basis
        v, one = vec(Fraction(3, 2), QuadNum(0, Fraction(1, 2))), qn(1)
        x, y = qn(Fraction(2, 3), Fraction(-1, 5)), qn(Fraction(-7, 2), Fraction(1, 3))
        fraction_count[0] = 0
        assert f * g * f.inverse() == f * (g * f.inverse())
        assert (m * n) * n.inverse() == m and m.inverse() * m == IDENTITY_MAT
        assert lattice.coords(v) == (one, one)
        assert (x + y) * x / y != x
        assert (x * y).sign() == -1 and (x - y).floor() == 3
        assert fraction_count[0] == 0

    def test_counter_is_live(self, fraction_count):
        x = qn(Fraction(2, 3), 1)
        fraction_count[0] = 0
        assert x.a == Fraction(2, 3)
        assert fraction_count[0] > 0


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
        with pytest.raises(NonCrystallographicError, match="^rotation order exceeds 6: "):
            rotation_order(m)
        with pytest.raises(NonCrystallographicError, match="^rotation order exceeds 6: "):
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
        with pytest.raises(NoFixedPointError, match="^no unique fixed point: Translation$"):
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


def test_negative_power_is_a_power_of_the_inverse():
    # without its own branch, k >>= 1 would never reach 0 from a negative k
    f = model("p6").image(1) * Isometry.translation(vec(1, 0))
    assert f ** -1 == f.inverse()
    assert (f ** -3 * f ** 3).is_identity()


@pytest.mark.parametrize("call, exc, message", [
    (lambda: rotation_matrix(5), NonCrystallographicError,
     "^no crystallographic rotation of order 5$"),
    (lambda: reflection_matrix(vec(0, 0)), ValueError, "^zero direction$"),
    (lambda: reconstruct(vec(1, 0)), TypeError, r"^not an IsoClass: Vec2\("),
    (lambda: IDENTITY_MAT * 3, TypeError, r"for \*: 'Mat2' and 'int'$"),
    (lambda: Isometry.identity() * IDENTITY_MAT, TypeError, r"for \*: 'Isometry' and 'Mat2'$"),
], ids=["rotation-order", "zero-direction", "not-a-class", "mat-times-int", "isometry-times-mat"])
def test_input_errors(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
