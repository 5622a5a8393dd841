"""The fused Q(sqrt3) 2x2 kernels against the textbook QuadNum expressions,
and the orthogonality invariant where it now holds."""
import copy
import pickle
import random
from fractions import Fraction

import pytest

from orbiforge import exactgeom
from orbiforge.exactgeom import (IDENTITY_MAT, Isometry, Mat2, QuadNum, Vec2,
                                 mat, rotation_matrix, vec)
from orbiforge.wallpaper import MODEL_NAMES, model

ONE, MINUS_ONE = QuadNum(1), QuadNum(-1)
# small, coprime, equal and very large denominators
DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 10 ** 9 + 7, 2 ** 61 - 1, 10 ** 30)


def _triple(x: QuadNum) -> tuple[int, int, int]:
    return x.p, x.r, x.q


def _random_quadnum(rng: random.Random) -> QuadNum:
    kind = rng.random()
    den = rng.choice(DENOMINATORS)
    if kind < 0.15:
        return QuadNum(0)
    if kind < 0.3:  # pure sqrt3
        return QuadNum(0, Fraction(rng.randint(-99, 99), den))
    if kind < 0.4:  # rational
        return QuadNum(Fraction(rng.randint(-99, 99), den))
    big = 10 ** rng.randint(1, 40)
    return QuadNum(Fraction(rng.randint(-big, big), den),
                   Fraction(rng.randint(-big, big), rng.choice((1, 2, 3, den))))


def _random_mat(rng: random.Random) -> Mat2:
    return Mat2(*(_random_quadnum(rng) for _ in range(4)))


def _random_vec(rng: random.Random) -> Vec2:
    return Vec2(_random_quadnum(rng), _random_quadnum(rng))


# -- the textbook expressions: one QuadNum product or sum at a time -----------

def _ref_mat_mul(m: Mat2, n: Mat2) -> tuple[QuadNum, ...]:
    return (m.m11 * n.m11 + m.m12 * n.m21, m.m11 * n.m12 + m.m12 * n.m22,
            m.m21 * n.m11 + m.m22 * n.m21, m.m21 * n.m12 + m.m22 * n.m22)


def _ref_mat_vec(m: Mat2, v: Vec2) -> tuple[QuadNum, ...]:
    return m.m11 * v.x + m.m12 * v.y, m.m21 * v.x + m.m22 * v.y


def _ref_det(m: Mat2) -> QuadNum:
    return m.m11 * m.m22 - m.m12 * m.m21


def _ref_inverse(m: Mat2) -> tuple[QuadNum, ...]:
    d = _ref_det(m)
    return m.m22 / d, -m.m12 / d, -m.m21 / d, m.m11 / d


def _entries(m: Mat2) -> tuple[QuadNum, ...]:
    return m.m11, m.m12, m.m21, m.m22


def _same_triples(got, want) -> bool:
    return [_triple(x) for x in got] == [_triple(x) for x in want]


def test_fused_kernels_match_the_textbook_expressions():
    rng = random.Random(20261018)
    for _ in range(3000):
        m, n, v, w = _random_mat(rng), _random_mat(rng), _random_vec(rng), _random_vec(rng)
        assert _same_triples(_entries(m * n), _ref_mat_mul(m, n))
        product = m * v
        assert _same_triples((product.x, product.y), _ref_mat_vec(m, v))
        assert _triple(m.det()) == _triple(_ref_det(m))
        assert _triple(v.dot(w)) == _triple(v.x * w.x + v.y * w.y)
        assert _triple(v.cross(w)) == _triple(v.x * w.y - v.y * w.x)
        if not _ref_det(m).is_zero():
            assert _same_triples(_entries(m.inverse()), _ref_inverse(m))


def test_kernels_on_zero_and_singular_inputs():
    zero = mat(0, 0, 0, 0)
    assert _entries(zero * zero) == _entries(zero)
    assert _triple(zero.det()) == (0, 0, 1)
    assert _triple(vec(0, 0).dot(vec(0, 0))) == (0, 0, 1)
    # entries cancelling to zero over unequal denominators normalize to 0/1
    m = mat(Fraction(1, 3), Fraction(1, 7), Fraction(2, 3), Fraction(2, 7))
    assert _triple(m.det()) == (0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    assert _triple(vec(0, 1).cross(vec(0, 1))) == (0, 0, 1)
    r = rotation_matrix(6)
    assert m * IDENTITY_MAT == m == IDENTITY_MAT * m
    assert (r * r.inverse()).is_identity() and r.inverse() == r.transpose()


def test_private_constructors_build_ordinary_values():
    rng = random.Random(5)
    for _ in range(200):
        m, n, v = _random_mat(rng), _random_mat(rng), _random_vec(rng)
        product, image = m * n, m * v
        public = Mat2(*_ref_mat_mul(m, n))
        assert product == public and hash(product) == hash(public)
        assert image == Vec2(*_ref_mat_vec(m, v)) and type(image) is Vec2
        for x in (product, image):
            assert copy.deepcopy(x) == x == pickle.loads(pickle.dumps(x))
    with pytest.raises(AttributeError):
        (m * n).m11 = ONE
    assert (mat(1, 0, 0, 1) * IDENTITY_MAT).is_identity()
    assert not mat(1, 0, 0, -1).is_identity()


def _generator_isometries() -> list[list[Isometry]]:
    return [list(model(name).rep) + list(model(name).inverse_rep) for name in MODEL_NAMES]


def _is_rigid(f: Isometry) -> bool:
    return f.linear.is_orthogonal() and f.linear.det() in (ONE, MINUS_ONE)


def test_products_and_inverses_stay_orthogonal():
    # Isometry.__mul__ and inverse no longer run the check; a product or a
    # transpose of orthogonal matrices with det +-1 is one again
    rng = random.Random(17)
    for letters in _generator_isometries():
        for _ in range(60):
            f = Isometry.identity()
            for _ in range(rng.randint(1, 12)):
                f = f * rng.choice(letters)
            g = f.inverse()
            assert _is_rigid(f) and _is_rigid(g)
            assert (f * g).is_identity() and (g * f).is_identity()
            assert _is_rigid(f * g * f) and _is_rigid(g ** 3)


def test_the_check_runs_on_the_public_constructor_only(monkeypatch):
    p6 = model("p6")
    f, g = p6.image(1), p6.image(2)
    calls = 0
    check = Mat2.is_orthogonal

    def counted(self):
        nonlocal calls
        calls += 1
        return check(self)

    monkeypatch.setattr(Mat2, "is_orthogonal", counted)
    f * g * f.inverse()
    assert calls == 0
    Isometry(f.linear, g.trans)
    assert calls == 1


@pytest.mark.parametrize("linear", [
    mat(2, 0, 0, 2), mat(1, 1, 0, 1), mat(0, 0, 0, 0),
    mat(Fraction(1, 2), 0, 0, 2), Mat2(QuadNum(0, Fraction(1, 2)), ONE, ONE, ONE),
])
def test_public_constructor_rejects_a_non_orthogonal_part(linear):
    with pytest.raises(ValueError, match="not orthogonal"):
        Isometry(linear, vec(1, 0))


def test_fused_kernel_is_one_normalization(monkeypatch):
    # Mat2 * Mat2 runs four fused entries and no QuadNum product or sum
    counts = {"fused": 0, "mul": 0, "add": 0}
    fused, mul, add = exactgeom._fused, QuadNum.__mul__, QuadNum.__add__

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(exactgeom, "_fused", counting("fused", fused))
    monkeypatch.setattr(QuadNum, "__mul__", counting("mul", mul))
    monkeypatch.setattr(QuadNum, "__add__", counting("add", add))
    r = rotation_matrix(3)
    r * r
    assert counts == {"fused": 4, "mul": 0, "add": 0}
