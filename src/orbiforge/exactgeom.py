"""Exact arithmetic in Q(sqrt3) and exact affine isometries of the plane.

Q(sqrt3) is large enough to hold every rotation and reflection matrix of the
seventeen wallpaper groups (all relevant angles are multiples of pi/6 or
pi/4, and the doubled-angle cosines/sines lie in Q(sqrt3) or Q).  An element
is held over a common denominator as (p + r*sqrt3)/q in arbitrary-precision
ints, normalized so equal values have equal triples; no arithmetic on the
hot path builds a Fraction.  Every value here is immutable and every
operation is pure, so everything is safe to share across threads.

The 2x2 kernels (`Mat2` times `Mat2` or `Vec2`, `Mat2.det`, `Vec2.dot` and
`Vec2.cross`) are the textbook QuadNum expressions.  They run when a model
or a lattice is built and converted to integer lattice coordinates, and in
the display and oracle views; the decisions, and the rotation and norm-form
identities of verify-paper, read the integer coordinates.  QuadNum results
are built from normalized triples by the private constructor `_make`, which
skips `__init__`; every `Vec2` and `Mat2` is built by its public
constructor.  The public `Isometry` constructor checks that the linear part
is orthogonal with det +-1; products and inverses are built by `_isometry`
without the check, since a product or a transpose of such matrices is one
again.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


class NonCrystallographicError(ValueError):
    """Rotation of finite order larger than 6 (impossible in a wallpaper group)."""


class NoFixedPointError(ValueError):
    """fixed_point() was asked for an isometry that is not a rotation."""


_Raw = "QuadNum | Fraction | int"


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational given as int or Fraction."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _floor(p: int, r: int, q: int) -> int:
    """floor((p + r*sqrt3)/q) for q > 0, computed exactly.

    For r != 0, r*sqrt3 is irrational and s = isqrt(3 r^2) = floor(|r|*sqrt3),
    so r*sqrt3 lies strictly between s and s + 1 (r > 0) or between -s - 1
    and -s (r < 0)."""
    if r == 0:
        return p // q
    s = math.isqrt(3 * r * r)
    return (p + s) // q if r > 0 else (p - s - 1) // q


class QuadNum:
    """Element (p + r*sqrt3)/q of Q(sqrt3), held as three machine ints.

    The triple is normalized: gcd(p, r, q) = 1 and q > 0, so equal values have
    equal triples.  `QuadNum(a, b)` builds a + b*sqrt3 from ints or
    Fractions, and `.a`, `.b` read the two rational coordinates back as
    Fractions.  Arithmetic never builds a Fraction.  Values are immutable.
    """

    __slots__ = ("p", "r", "q")

    def __init__(self, a: "Fraction | int" = 0, b: "Fraction | int" = 0):
        if type(a) is int and type(b) is int:
            p, r, q = a, b, 1
        else:
            na, da = _ratio(a)
            nb, db = _ratio(b)
            # both ratios are reduced, so over their lcm gcd(p, r, q) = 1
            q = math.lcm(da, db)
            p, r = na * (q // da), nb * (q // db)
        _set_p(self, p)
        _set_r(self, r)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the public constructor, as
        # __setattr__ refuses the default slot-by-slot restore
        return QuadNum, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        """Rational part a of a + b*sqrt3."""
        return Fraction(self.p, self.q)

    @property
    def b(self) -> Fraction:
        """Coefficient b of sqrt3 in a + b*sqrt3."""
        return Fraction(self.r, self.q)

    def __eq__(self, other) -> bool:
        if other.__class__ is not QuadNum:
            return NotImplemented
        return self.p == other.p and self.r == other.r and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.q))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x: _Raw) -> "QuadNum":
        if isinstance(x, QuadNum):
            return x
        n, d = _ratio(x)
        return _make(n, 0, d)

    @staticmethod
    def sqrt3() -> "QuadNum":
        return _make(0, 1, 1)

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other) -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = QuadNum.of(other)
        q = self.q
        if q == other.q:
            p, r = self.p + other.p, self.r + other.r
        else:
            q2 = other.q
            p, r = self.p * q2 + other.p * q, self.r * q2 + other.r * q
            q *= q2
        return _normalized(p, r, q)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return _make(-self.p, -self.r, self.q)

    def __sub__(self, other) -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = QuadNum.of(other)
        q = self.q
        if q == other.q:
            p, r = self.p - other.p, self.r - other.r
        else:
            q2 = other.q
            p, r = self.p * q2 - other.p * q, self.r * q2 - other.r * q
            q *= q2
        return _normalized(p, r, q)

    def __rsub__(self, other) -> "QuadNum":
        return QuadNum.of(other) - self

    def __mul__(self, other) -> "QuadNum":
        if other.__class__ is not QuadNum:
            other = QuadNum.of(other)
        p1, r1, p2, r2 = self.p, self.r, other.p, other.r
        return _normalized(p1 * p2 + 3 * r1 * r2, p1 * r2 + r1 * p2, self.q * other.q)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadNum":
        return _make(self.p, -self.r, self.q)

    def norm(self) -> Fraction:
        """Field norm a^2 - 3 b^2 (rational)."""
        return Fraction(self.p * self.p - 3 * self.r * self.r, self.q * self.q)

    def inverse(self) -> "QuadNum":
        # 1/((p + r*sqrt3)/q) = q*(p - r*sqrt3)/n with the integer norm n
        p, r, q = self.p, self.r, self.q
        n = p * p - 3 * r * r
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        if n < 0:
            q, n = -q, -n
        return _normalized(q * p, -q * r, n)

    def __truediv__(self, other) -> "QuadNum":
        return self * QuadNum.of(other).inverse()

    def __rtruediv__(self, other) -> "QuadNum":
        return QuadNum.of(other) * self.inverse()

    # -- order and size -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.r == 0

    def is_integer(self) -> bool:
        return self.r == 0 and self.q == 1

    def sign(self) -> int:
        """Exact sign of the real number (p + r*sqrt3)/q (q > 0)."""
        p, r = self.p, self.r
        if p >= 0 and r >= 0:
            return 1 if p or r else 0
        if p <= 0 and r <= 0:
            return -1
        # opposite signs: the term with the larger square wins (never a tie,
        # as sqrt3 is irrational)
        if p * p > 3 * r * r:
            return 1 if p > 0 else -1
        return 1 if r > 0 else -1

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(3.0)

    def floor(self) -> int:
        """Largest integer <= self, computed exactly."""
        return _floor(self.p, self.r, self.q)

    def round_nearest(self) -> int:
        # floor(self + 1/2) = floor((2p + q + 2r*sqrt3)/(2q))
        return _floor(2 * self.p + self.q, 2 * self.r, 2 * self.q)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        return render_quadnum(self)

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r})"


# the slots' own setters: a private constructor from an already normalized
# triple skips __init__ and the __setattr__ guard
_set_p = QuadNum.p.__set__
_set_r = QuadNum.r.__set__
_set_q = QuadNum.q.__set__
_new = object.__new__


def _make(p: int, r: int, q: int) -> QuadNum:
    """QuadNum from a triple with gcd(p, r, q) = 1 and q > 0."""
    x = _new(QuadNum)
    _set_p(x, p)
    _set_r(x, r)
    _set_q(x, q)
    return x


def _normalized(p: int, r: int, q: int) -> QuadNum:
    """QuadNum from any triple with q > 0."""
    g = math.gcd(p, r, q)
    if g != 1:
        p, r, q = p // g, r // g, q // g
    return _make(p, r, q)


def _render_frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_quadnum(x: QuadNum) -> str:
    """Canonical text form: `p/q`, `p/q+r/s*rt3` or `p/q-r/s*rt3`."""
    if x.b == 0:
        return _render_frac(x.a)
    mag = _render_frac(abs(x.b))
    tail = "rt3" if mag == "1" else f"{mag}*rt3"
    sign = "-" if x.b < 0 else "+"
    if x.a == 0:
        return tail if sign == "+" else "-" + tail
    return f"{_render_frac(x.a)}{sign}{tail}"


# the rational part may not be a prefix of the coefficient: in `-10*rt3` it
# would otherwise match `-1`, leaving `0*rt3`; after a rational part the rt3
# term needs its sign, so `2rt3` is not read as 2+rt3
_QN_RE = re.compile(
    r"""^\s*(?P<rat>[+-]?\d+(?:/\d+)?(?![\d/]|\s*\*))?\s*
        (?:(?(rat)(?=[+-]))(?P<sign>[+-])?\s*(?:(?P<coef>\d+(?:/\d+)?)\s*\*\s*)?rt3)?\s*$""",
    re.VERBOSE,
)


def parse_quadnum(text: str) -> QuadNum:
    """Parse the canonical text form (also accepts `rt3`, `-rt3`, `2*rt3`);
    a coefficient needs its `*`, and a rational part its `+` or `-`."""
    m = _QN_RE.match(text)
    if not m or (m.group("rat") is None and "rt3" not in text):
        raise ValueError(f"cannot parse {text!r} as an element of Q(sqrt3)")
    for part in (m.group("rat"), m.group("coef")):
        if part and "/" in part and int(part.partition("/")[2]) == 0:
            raise ValueError(f"zero denominator in {text!r}")
    a = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
    b = Fraction(0)
    if "rt3" in text:
        b = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
    return QuadNum(a, b)


@dataclass(frozen=True)
class Vec2:
    """Plane vector with exact Q(sqrt3) coordinates."""

    x: QuadNum
    y: QuadNum

    def __post_init__(self):
        object.__setattr__(self, "x", QuadNum.of(self.x))
        object.__setattr__(self, "y", QuadNum.of(self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, k: _Raw) -> "Vec2":
        k = QuadNum.of(k)
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> QuadNum:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> QuadNum:
        return self.x * other.y - self.y * other.x

    def norm_sq(self) -> QuadNum:
        return self.dot(self)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def vec(x: _Raw, y: _Raw) -> Vec2:
    return Vec2(QuadNum.of(x), QuadNum.of(y))


ZERO_VEC = vec(0, 0)


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Q(sqrt3)."""

    m11: QuadNum
    m12: QuadNum
    m21: QuadNum
    m22: QuadNum

    def __post_init__(self):
        for f in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, f, QuadNum.of(getattr(self, f)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(QuadNum(1), QuadNum(0), QuadNum(0), QuadNum(1))

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 + other.m11, self.m12 + other.m12,
                    self.m21 + other.m21, self.m22 + other.m22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.m11 - other.m11, self.m12 - other.m12,
                    self.m21 - other.m21, self.m22 - other.m22)

    def __mul__(self, other):
        a, b, c, d = self.m11, self.m12, self.m21, self.m22
        if other.__class__ is Mat2:
            e, f, g, h = other.m11, other.m12, other.m21, other.m22
            return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        if other.__class__ is Vec2:
            x, y = other.x, other.y
            return Vec2(a * x + b * y, c * x + d * y)
        return NotImplemented

    def transpose(self) -> "Mat2":
        return Mat2(self.m11, self.m21, self.m12, self.m22)

    def det(self) -> QuadNum:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "Mat2":
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("singular matrix")
        k = d.inverse()
        minus_k = -k
        return Mat2(self.m22 * k, self.m12 * minus_k, self.m21 * minus_k, self.m11 * k)

    def is_identity(self) -> bool:
        return self == IDENTITY_MAT

    def is_orthogonal(self) -> bool:
        return (self.transpose() * self).is_identity()

    def __str__(self) -> str:
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"


def mat(m11, m12, m21, m22) -> Mat2:
    return Mat2(QuadNum.of(m11), QuadNum.of(m12), QuadNum.of(m21), QuadNum.of(m22))


IDENTITY_MAT = Mat2.identity()


def rotation_order(m: Mat2) -> int:
    """Least k <= 6 with m^k = I; error beyond (crystallographic restriction)."""
    if m.is_identity():
        return 1
    p = m
    for k in range(2, 7):
        p = p * m
        if p.is_identity():
            return k
    raise NonCrystallographicError(f"rotation order exceeds 6: {m}")


def reflection_axis_direction(m: Mat2) -> Vec2:
    """Canonical +1 eigenvector of an orthogonal matrix with det -1, scaled
    so its first nonzero coordinate is 1 (deterministic equality)."""
    if not m.m12.is_zero():
        return Vec2(QuadNum(1), (QuadNum(1) - m.m11) / m.m12)
    if (m.m11 - 1).is_zero():
        return vec(1, 0)
    return vec(0, 1)


@dataclass(frozen=True)
class Isometry:
    """Affine map x |-> linear*x + trans with orthogonal linear part."""

    linear: Mat2
    trans: Vec2

    def __post_init__(self):
        if not self.linear.is_orthogonal():
            raise ValueError(f"linear part is not orthogonal: {self.linear}")
        d = self.linear.det()
        if d != QuadNum.of(1) and d != QuadNum.of(-1):
            raise ValueError("determinant is not +-1")

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(IDENTITY_MAT, ZERO_VEC)

    @staticmethod
    def translation(v: Vec2) -> "Isometry":
        return Isometry(IDENTITY_MAT, v)

    def apply(self, v: Vec2) -> Vec2:
        return self.linear * v + self.trans

    def __mul__(self, other: "Isometry") -> "Isometry":
        """Composition self o other (apply `other` first)."""
        if not isinstance(other, Isometry):
            return NotImplemented
        # a product of orthogonal matrices is orthogonal with det +-1
        return _isometry(self.linear * other.linear,
                         self.linear * other.trans + self.trans)

    def inverse(self) -> "Isometry":
        # the inverse of an orthogonal matrix is its transpose
        inv = self.linear.transpose()
        return _isometry(inv, -(inv * self.trans))

    def __pow__(self, k: int) -> "Isometry":
        if k < 0:
            return self.inverse() ** (-k)
        out = Isometry.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return self.linear.is_identity() and self.trans.is_zero()


def _isometry(linear: Mat2, trans: Vec2) -> Isometry:
    """Isometry whose linear part is known orthogonal with det +-1, built
    without the check in __post_init__."""
    f = _new(Isometry)
    d = f.__dict__
    d["linear"] = linear
    d["trans"] = trans
    return f


def compose(f: Isometry, g: Isometry) -> Isometry:
    """f o g, i.e. x |-> f(g(x))."""
    return f * g


# --------------------------------------------------------------------------
# classification into geometric types


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Translation:
    vector: Vec2


@dataclass(frozen=True)
class Rotation:
    center: Vec2
    order: int


@dataclass(frozen=True)
class Reflection:
    point: Vec2
    direction: Vec2


@dataclass(frozen=True)
class Glide:
    point: Vec2
    direction: Vec2
    vector: Vec2


IsoClass = Identity | Translation | Rotation | Reflection | Glide


def _foot_of_perpendicular(point: Vec2, direction: Vec2) -> Vec2:
    # closest point to the origin on the line {point + t*direction}
    t = point.dot(direction) / direction.dot(direction)
    return point - direction.scale(t)


def classify_isometry(f: Isometry) -> IsoClass:
    """Exact geometric type of f, with canonical axis/center data.

    Axes are reported by the foot of the perpendicular from the origin plus a
    direction normalised so its first nonzero coordinate is 1; rotation order
    is the least k <= 6 with linear^k = I.
    """
    m = f.linear
    if m.is_identity():
        if f.trans.is_zero():
            return Identity()
        return Translation(f.trans)
    if m.det() == QuadNum.of(1):
        order = rotation_order(m)
        center = (IDENTITY_MAT - m).inverse() * f.trans
        return Rotation(center, order)
    # det -1: reflection iff f o f is the identity, else glide
    square = f * f
    direction = reflection_axis_direction(m)
    if square.trans.is_zero():
        point = _foot_of_perpendicular(f.trans.scale(Fraction(1, 2)), direction)
        return Reflection(point, direction)
    glide_vector = square.trans.scale(Fraction(1, 2))
    raw_point = ((IDENTITY_MAT - m) * f.trans).scale(Fraction(1, 4))
    point = _foot_of_perpendicular(raw_point, direction)
    return Glide(point, direction, glide_vector)


_ROTATION_COS_SIN = {
    2: (Fraction(-1), Fraction(0)),
    3: (Fraction(-1, 2), None),  # sin = sqrt3/2
    4: (Fraction(0), Fraction(1)),
    6: (Fraction(1, 2), None),
}


def rotation_matrix(order: int) -> Mat2:
    """Counterclockwise rotation by 2*pi/order, order in {2, 3, 4, 6}."""
    if order not in _ROTATION_COS_SIN:
        raise NonCrystallographicError(f"no crystallographic rotation of order {order}")
    c, s = _ROTATION_COS_SIN[order]
    s_qn = QuadNum.of(s) if s is not None else QuadNum(0, Fraction(1, 2))
    c_qn = QuadNum.of(c)
    return Mat2(c_qn, -s_qn, s_qn, c_qn)


def reflection_matrix(direction: Vec2) -> Mat2:
    """Reflection across the line through the origin with the given direction."""
    n = direction.dot(direction)
    if n.is_zero():
        raise ValueError("zero direction")
    dx, dy = direction.x, direction.y
    return Mat2((dx * dx - dy * dy) / n, (dx * dy * 2) / n,
                (dx * dy * 2) / n, (dy * dy - dx * dx) / n)


def reconstruct(c: IsoClass) -> Isometry:
    """Build the canonical isometry carrying the class data of c.

    classify_isometry(reconstruct(c)) == c for any canonical IsoClass value.
    """
    if isinstance(c, Identity):
        return Isometry.identity()
    if isinstance(c, Translation):
        return Isometry.translation(c.vector)
    if isinstance(c, Rotation):
        m = rotation_matrix(c.order)
        return Isometry(m, (IDENTITY_MAT - m) * c.center)
    if isinstance(c, Reflection):
        m = reflection_matrix(c.direction)
        return Isometry(m, (IDENTITY_MAT - m) * c.point)
    if isinstance(c, Glide):
        m = reflection_matrix(c.direction)
        return Isometry(m, (IDENTITY_MAT - m) * c.point + c.vector)
    raise TypeError(f"not an IsoClass: {c!r}")


def fixed_point(f: Isometry) -> Vec2:
    """The unique fixed point of a rotation; error for any other type."""
    kind = classify_isometry(f)
    if not isinstance(kind, Rotation):
        raise NoFixedPointError(f"no unique fixed point: {type(kind).__name__}")
    return kind.center
