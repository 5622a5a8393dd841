"""Each model's integer affine kernel: its generators as integer matrices plus
translations in (1/N)Z^2 in the basis of the model's translation lattice,
and the checks made once when it is built."""
from dataclasses import replace

import pytest

from orbiforge import wallpaper
from orbiforge.cosetenum import InvariantError
from orbiforge.exactgeom import IDENTITY_MAT, QuadNum, Vec2, mat, vec
from orbiforge.lattice import Lattice2
from orbiforge.wallpaper import MODEL_NAMES, _amul, _mmul, model

IDENTITY_AFFINE = (1, 0, 0, 1, 0, 0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_linear_parts_are_integral_unimodular_isometries(name):
    m = model(name)
    kernel = m.kernel
    basis = kernel.basis
    assert (basis.m11, basis.m21, basis.m12, basis.m22) == \
        (m.lattice().b1.x, m.lattice().b1.y, m.lattice().b2.x, m.lattice().b2.y)
    gram = basis.transpose() * basis
    assert kernel.denominator in (1, 2)
    assert tuple(kernel.cartesian.values()) == m.point_group
    for key, cartesian in kernel.cartesian.items():
        assert all(isinstance(x, int) for x in key)
        a, b, c, d = key
        assert a * d - b * c in (1, -1)
        integer = mat(*key)
        assert integer.transpose() * gram * integer == gram
        assert basis * integer == cartesian * basis
    for f in kernel.gens + kernel.invs:
        assert len(f) == 6 and all(isinstance(x, int) for x in f)
        assert f[:4] in kernel.cartesian


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_each_image_composed_with_its_inverse_is_the_identity(name):
    kernel = model(name).kernel
    for g, g_inv in zip(kernel.gens, kernel.invs):
        assert _amul(g, g_inv) == _amul(g_inv, g) == IDENTITY_AFFINE
        assert _mmul(g[:4], g_inv[:4]) == (1, 0, 0, 1)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_cartesian_view_of_each_generator_is_the_model_image(name):
    m = model(name)
    assert tuple(map(m.kernel.isometry, m.kernel.gens)) == m.rep
    assert tuple(map(m.kernel.isometry, m.kernel.invs)) == m.inverse_rep


def test_building_a_model_does_not_build_its_kernel():
    m = wallpaper._BUILDERS["p6"]()
    assert "kernel" not in vars(m)
    assert m.kernel is m.kernel


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


def test_linear_part_must_have_determinant_one():
    fake = _copy("p1", point_group=(IDENTITY_MAT, mat(2, 0, 0, 1)))
    with pytest.raises(InvariantError, match="determinant other than"):
        fake.kernel


def test_linear_part_must_keep_the_gram_matrix():
    # a shear is unimodular but not an isometry of the square lattice
    fake = _copy("p1", point_group=(IDENTITY_MAT, mat(1, 1, 0, 1)))
    with pytest.raises(InvariantError, match="does not keep the Gram matrix"):
        fake.kernel


def test_generator_translation_must_be_rational_in_the_lattice_basis():
    # u = (0, 1) has coordinate 1/sqrt3 along (0, sqrt3)
    fake = _copy("p1", _lattice=Lattice2(vec(1, 0), Vec2(QuadNum.of(0), QuadNum.sqrt3())))
    with pytest.raises(InvariantError, match=r"not in \(1/1\)Z\^2"):
        fake.kernel
