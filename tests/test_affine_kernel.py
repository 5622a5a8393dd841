"""Each model's integer affine kernel: its generators as integer matrices plus
translations in (1/N)Z^2 in the basis of the model's translation lattice, one
lift per linear part of its point group, and the checks made once when it is
built."""
import collections
import itertools
import operator
from dataclasses import replace
from fractions import Fraction

import pytest

from orbiforge import wallpaper
from orbiforge.cosetenum import InvariantError
from orbiforge.exactgeom import IDENTITY_MAT, Isometry, QuadNum, Vec2, mat, vec
from orbiforge.lattice import Lattice2
from orbiforge.wallpaper import MODEL_NAMES, model
from oracle import closure, model_lifts

IDENTITY_AFFINE = (1, 0, 0, 1, 0, 0)

# |P| in MODEL_NAMES order
POINT_GROUP_ORDERS = dict(zip(MODEL_NAMES, (1, 2, 3, 4, 6, 2, 2, 2, 4, 4, 4, 4, 8, 8, 6, 6, 12)))


def _cartesian(m, f):
    """The Cartesian isometry v |-> L v + B (x, y)/N of an integer affine map,
    with L = B M B^-1 computed here."""
    kernel = m.kernel
    basis, n = m.lattice().basis_matrix(), kernel.denominator
    linear = basis * mat(*f[:4]) * m.lattice()._inverse_basis
    return Isometry(linear, basis * vec(Fraction(f[4], n), Fraction(f[5], n)))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_linear_parts_are_integral_unimodular_isometries(name):
    m = model(name)
    kernel = m.kernel
    basis = m.lattice().basis_matrix()
    assert (basis.m11, basis.m21, basis.m12, basis.m22) == \
        (m.lattice().b1.x, m.lattice().b1.y, m.lattice().b2.x, m.lattice().b2.y)
    gram = basis.transpose() * basis
    assert kernel.denominator in (1, 2)
    assert tuple(m._cartesian.values()) == m.point_group
    for key, cartesian in m._cartesian.items():
        assert all(isinstance(x, int) for x in key)
        a, b, c, d = key
        assert a * d - b * c in (1, -1)
        integer = mat(*key)
        assert integer.transpose() * gram * integer == gram
        assert basis * integer == cartesian * basis
    lifts = kernel.lifts
    for f in kernel.gens + lifts:
        assert len(f) == 6 and all(isinstance(x, int) for x in f)
        assert f[:4] in m._cartesian
    # one lift per linear part, in the point group's order, identity first
    assert [f[:4] for f in lifts] == list(m._cartesian)
    assert lifts[0] == IDENTITY_AFFINE


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_lifts_match_the_cartesian_walk(name):
    # the oracle walks the generator isometries in the same order and keeps
    # a word for each lift, which evaluates to it
    m = model(name)
    assert tuple(_cartesian(m, f) for f in m.kernel.gens) == m.rep
    reference = model_lifts(m)
    assert tuple(_cartesian(m, f) for f in m.kernel.lifts) == tuple(f for f, _ in reference)
    for f, w in reference:
        assert m.evaluate(w) == f, (f, w)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_point_group_is_the_closure_of_the_generator_linear_parts(name):
    m = model(name)
    linear = closure((iso.linear for iso in m.rep), IDENTITY_MAT, operator.mul)
    assert len(linear) == len(m.point_group) == POINT_GROUP_ORDERS[name]
    assert set(m.point_group) == set(linear)


def test_building_a_model_builds_its_kernel():
    # validating a model builds its kernel and reads the relators on it
    m = wallpaper._BUILDERS["p6"]()
    assert "kernel" in vars(m)
    assert m.kernel is m.kernel


def test_building_the_models_evaluates_each_translation_word_once(monkeypatch):
    # Q(sqrt3) builds and converts the generators and evaluates each model's
    # two translation words once; the relators are read in integers
    counts = collections.Counter()

    def counting(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(wallpaper.ModelGroup, "evaluate",
                        counting("evaluate", wallpaper.ModelGroup.evaluate))
    monkeypatch.setattr(QuadNum, "__mul__", counting("mul", QuadNum.__mul__))
    for build in wallpaper._BUILDERS.values():
        build().kernel
    assert counts["evaluate"] == 2 * len(MODEL_NAMES) == 34
    assert counts["mul"] < 3000


# -- the checks made when the kernel is built ---------------------------------

def _copy(name, **cached):
    """A fresh copy of a model with some cached properties filled in."""
    fake = replace(model(name))
    vars(fake).update(cached)
    return fake


def test_linear_part_must_be_integral_in_the_lattice_basis():
    # a rectangular lattice is not preserved by the quarter-turns of p4
    fake = _copy("p4", _lattice=Lattice2(vec(1, 0), vec(0, 2)))
    with pytest.raises(InvariantError, match="not integral in the lattice basis"):
        fake.kernel


@pytest.mark.parametrize("linear", [mat(2, 0, 0, 1), mat(1, 1, 0, 1)])
def test_generators_must_be_isometries(linear):
    # the kernel leaves the determinant and the Gram matrix of B^-1 L B to
    # the orthogonality of L, which `Isometry` proves: a stretch of
    # determinant 2 and a unimodular shear are refused there
    with pytest.raises(ValueError, match="^linear part is not orthogonal: "):
        Isometry(linear, vec(1, 0))


def test_point_group_walk_is_bounded(monkeypatch):
    # orthogonal generators that are integral in the lattice basis keep the
    # point group finite; were that to fail, the walk stops at 12 linear
    # parts instead of running on
    shears = itertools.count(1)
    monkeypatch.setattr(wallpaper, "_amul", lambda p, q: (1, next(shears), 0, 1, 0, 0))
    with pytest.raises(InvariantError, match="point group larger than 12"):
        _copy("p1").kernel


@pytest.mark.parametrize("name", ["p1", "p2", "pm", "pmm"])
def test_translations_must_lie_in_the_lattice_of_the_translation_words(name):
    # t1^2 and t2 span a sublattice of index 2, in which the model's own
    # translation t1 is half a basis vector: the kernel, and so validate,
    # refuses it
    t1, t2 = model(name).translation_words
    fake = replace(model(name), translation_words=(t1 ** 2, t2))
    with pytest.raises(InvariantError,
                       match="^translation of the subgroup is not a lattice translation$"):
        fake.validate()


def test_generator_translation_must_be_rational_in_the_lattice_basis():
    # u = (0, 1) has coordinate 1/sqrt3 along (0, sqrt3)
    fake = _copy("p1", _lattice=Lattice2(vec(1, 0), Vec2(QuadNum.of(0), QuadNum.sqrt3())))
    with pytest.raises(InvariantError, match=r"not in \(1/1\)Z\^2"):
        fake.kernel
