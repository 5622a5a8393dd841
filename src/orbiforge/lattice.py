"""Exact rank-2 lattices: Gauss-Lagrange reduction, rotational symmetry
detection, the rotationally-rhombic predicate, and norm-form sublattice
indices over Z[i] and Z[sqrt(-3)].

Note on rings: the quadratic forms used for the hexagonal-family indices are
n1^2 + 3*n2^2, the norm form of the sub-ring Z[sqrt(-3)] (ring tag
`root_minus3`), not of the maximal order Z[(1+sqrt(-3))/2] whose norm form
would be n1^2 + n1*n2 + n2^2.  Reports that surface these indices flag the
distinction rather than silently switching forms.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .cosetenum import InvariantError
from .exactgeom import Mat2, QuadNum, Vec2, _mat, vec
from .fpgroup import _xgcd


class InvalidLatticeError(ValueError):
    """Basis vectors are linearly dependent."""


@dataclass(frozen=True)
class Lattice2:
    """Lattice Z*b1 + Z*b2 with exact Q(sqrt3) basis vectors."""

    b1: Vec2
    b2: Vec2

    def __post_init__(self):
        if self.det().is_zero():
            raise InvalidLatticeError(f"degenerate basis {self.b1}, {self.b2}")

    def det(self) -> QuadNum:
        return self.b1.cross(self.b2)

    def basis_matrix(self) -> Mat2:
        return Mat2(self.b1.x, self.b2.x, self.b1.y, self.b2.y)

    @cached_property
    def _inverse_basis(self) -> Mat2:
        return self.basis_matrix().inverse()

    def integer_matrix(self, m: Mat2) -> tuple[int, int, int, int]:
        """B^-1 m B for the basis matrix B, as (a, b, c, d) for [[a, b], [c, d]]:
        the integer matrix of m acting on this lattice's coordinates.  An
        InvariantError unless every entry is an integer, that is unless m
        maps the lattice into itself."""
        c = self._inverse_basis * m * self.basis_matrix()
        entries = (c.m11, c.m12, c.m21, c.m22)
        if not all(x.is_integer() for x in entries):
            raise InvariantError(f"{m} is not integral in the lattice basis {self.b1}, {self.b2}")
        return tuple(x.p for x in entries)  # an integer QuadNum is p/1

    def coords(self, v: Vec2) -> tuple[QuadNum, QuadNum]:
        """Exact coordinates of v in this basis."""
        w = self._inverse_basis * v
        return w.x, w.y

    def contains(self, v: Vec2) -> bool:
        a, b = self.coords(v)
        return a.is_integer() and b.is_integer()

    def reduce_mod(self, v: Vec2) -> Vec2:
        """Canonical representative of v modulo the lattice (coords in [0,1))."""
        a, b = self.coords(v)
        return v - self.b1.scale(a.floor()) - self.b2.scale(b.floor())

    def index_in(self, larger: "Lattice2") -> int:
        """[larger : self] for a sublattice, as an exact positive integer."""
        if not (larger.contains(self.b1) and larger.contains(self.b2)):
            raise InvalidLatticeError("not a sublattice")
        ratio = abs(self.det() / larger.det())
        if not ratio.is_integer():
            raise InvalidLatticeError("determinant ratio is not an integer")
        return ratio.p  # an integer QuadNum is p/1

    def gram(self) -> tuple[QuadNum, QuadNum, QuadNum]:
        """(|b1|^2, b1.b2, |b2|^2)."""
        return self.b1.norm_sq(), self.b1.dot(self.b2), self.b2.norm_sq()


def gauss_reduce(lattice: Lattice2) -> Lattice2:
    """Lagrange-Gauss reduced basis: |v1|^2 <= |v2|^2 and 2|v1.v2| <= |v1|^2.

    The output spans the same lattice (unimodular change of basis).
    """
    v1, v2 = lattice.b1, lattice.b2
    if v1.norm_sq() > v2.norm_sq():
        v1, v2 = v2, v1
    while True:
        dot = v1.dot(v2)
        if abs(dot) * 2 <= v1.norm_sq():
            break  # already reduced; leave borderline bases untouched
        mu = (dot / v1.norm_sq()).round_nearest()
        v2 = v2 - v1.scale(mu)
        if v2.norm_sq() < v1.norm_sq():
            v1, v2 = v2, v1
    return Lattice2(v1, v2)


def symmetry_order(lattice: Lattice2) -> int:
    """Order (2, 4 or 6) of the rotation group of the lattice.

    Decided from the reduced Gram matrix: proportional to [[1,1/2],[1/2,1]]
    (up to the sign of the off-diagonal entry) means hexagonal, proportional
    to the identity means square, anything else has only the -1 symmetry.
    """
    a, b, c = gauss_reduce(lattice).gram()
    if a == c:
        if b.is_zero():
            return 4
        if abs(b) * 2 == a:
            return 6
    return 2


def is_rotationally_rhombic(lattice: Lattice2) -> bool:
    """Whether the lattice is spanned by two equal-length vectors mapped to
    each other by a rotation of order 3, 4 or 6 (angle pi/2, pi/3 or 2pi/3).

    That is the reduced Gram condition under which `symmetry_order` finds
    rotations of order 4 or 6.
    """
    return symmetry_order(lattice) != 2


class Ring(enum.Enum):
    GAUSSIAN = "gaussian"        # tau^2 = -1
    ROOT_MINUS3 = "root_minus3"  # tau^2 = -3


@dataclass(frozen=True)
class QuadInt:
    """n1 + n2*tau with tau^2 = -1 (gaussian) or tau^2 = -3 (root_minus3)."""

    n1: int
    n2: int
    ring: Ring

    def is_zero(self) -> bool:
        return self.n1 == 0 and self.n2 == 0

    def norm(self) -> int:
        k = 1 if self.ring is Ring.GAUSSIAN else 3
        return self.n1 * self.n1 + k * self.n2 * self.n2

    def __str__(self) -> str:
        tau = "i" if self.ring is Ring.GAUSSIAN else "rt-3"
        return f"{self.n1}{self.n2:+}*{tau}"


# one lattice per ring, so its cached inverse basis is computed once
_RING_LATTICES = {
    Ring.GAUSSIAN: Lattice2(vec(1, 0), vec(0, 1)),
    Ring.ROOT_MINUS3: Lattice2(vec(1, 0), Vec2(QuadNum.of(0), QuadNum.sqrt3())),
}


def standard_ring_lattice(ring: Ring) -> Lattice2:
    """Planar realization of the ring: Z[i] as Z^2, Z[sqrt(-3)] as Z+Z*(0,sqrt3).

    The same immutable lattice is returned on every call."""
    return _RING_LATTICES[ring]


def multiplication_matrix(z: QuadInt) -> Mat2:
    """Real 2x2 matrix of complex multiplication by z on the plane."""
    n1 = QuadNum.of(z.n1)
    n2 = QuadNum.of(z.n2) if z.ring is Ring.GAUSSIAN else QuadNum.sqrt3() * z.n2
    return _mat(n1, -n2, n2, n1)


# tau's integer matrix in the basis of its ring lattice, converted once per ring
_TAU_MATRICES = {ring: lattice.integer_matrix(multiplication_matrix(QuadInt(0, 1, ring)))
                 for ring, lattice in _RING_LATTICES.items()}


def sublattice_index(z: QuadInt) -> int:
    """Index of z*L in L for the ring lattice L: n1^2+n2^2 (gaussian) or
    n1^2+3*n2^2 (root_minus3), cross-checked against |det(n1*I + n2*T)|,
    the determinant of z's integer multiplication matrix in the basis of L,
    for T the integer matrix of tau."""
    if z.is_zero():
        raise ValueError("index of the zero multiple is undefined")
    a, b, c, d = _TAU_MATRICES[z.ring]
    n1, n2 = z.n1, z.n2
    ratio = abs((n1 + n2 * a) * (n1 + n2 * d) - n2 * b * n2 * c)
    if ratio != z.norm():
        raise InvariantError("determinant ratio differs from the norm")
    return ratio


_RIGID_CUSPS = {
    "s2(2,3,6)": (6, Ring.ROOT_MINUS3),
    "s2(2,4,4)": (4, Ring.GAUSSIAN),
    "s2(3,3,3)": (3, Ring.ROOT_MINUS3),
}


def rigid_abelian_index(cusp: str, z: QuadInt) -> int:
    """Index of the rotationally rhombic abelian subgroup attached to z inside
    the rigid cusp group: 6*(n1^2+3*n2^2), 4*(n1^2+n2^2) or 3*(n1^2+3*n2^2).
    """
    key = cusp.lower().replace(" ", "")
    if key not in _RIGID_CUSPS:
        raise ValueError(f"not a rigid cusp label: {cusp!r}")
    factor, ring = _RIGID_CUSPS[key]
    if z.ring is not ring:
        raise ValueError(f"{cusp} needs ring {ring.value}, got {z.ring.value}")
    return factor * sublattice_index(z)


def integer_lattice_basis(pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Hermite-form basis ((a, b), (0, g)) of the sublattice of Z^2 generated
    by the given pairs; requires full rank.

    One pass folds each pair (x, y) into the first row (a, b) by the
    extended gcd step: with d = gcd(a, x) = s*a + t*x the row becomes
    (d, s*b + t*y), and the row the step kills, (0, (a*y - x*b)/d), folds
    into g, modulo which b is kept."""
    a = b = g = 0
    for x, y in pairs:
        d, s, t = _xgcd(a, x)
        g = gcd(g, (a * y - x * b) // d if d else y)
        a, b = d, s * b + t * y
        if g:
            b %= g
    if a == 0 or g == 0:
        raise InvalidLatticeError("generators do not span a rank-2 sublattice")
    return (a, b), (0, g)
