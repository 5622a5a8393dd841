"""The seventeen plane crystallographic groups with exact isometry
representations, translation-lattice extraction, the full classification
decision tree, orientation double covers, and orbifold Euler characteristics.

Each model carries a presentation, a faithful representation of its
generators by exact isometries, and a pair of words whose images span the
translation lattice; all of that is machine-checked at construction time.

Classification runs in machine integers.  Each model's generators are
rewritten once, when it is built, as integer affine maps in the basis of the
model's translation lattice (`ModelGroup.kernel`): an integer matrix and a
translation in (1/N)Z^2, on which `ModelGroup.validate` checks the relators.
One walk over such maps, `_walk`, fixes the order of the model's linear parts
from its generators, and from the images of a subgroup's generating words
(`_word_closure`) keeps one element of the subgroup per linear part and the
translations that, by Schreier's lemma, span its translation lattice.  In the
basis of that lattice, where it is Z^2 and linear parts are integer matrices,
those elements are its affine classes.  A `SubgroupHandle` runs that closure
when it is built, and the coset table cross-checks it there, through its
index alone; the double covers read translation membership from the same
proof, as a lattice index of 1.  One scan of the classes (`_class_orders`)
gives the rotation orders and the mirror matrices, the det -1 linear parts
whose class holds a reflection; the decision tree names the type from them, by
their number and by how they act on Z^2/2Z^2 or, in a three-fold group with
rotation R, on Z^2/(R - I)Z^2.  Cartesian Q(sqrt3) arithmetic only builds the
generators, evaluates the translation words once, converts the generators to
the lattice basis and serves the views `evaluate`, `schreier_images`,
`classes`, `lattice` and `point_group`; all else reads the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .cosetenum import CosetTable, InvariantError, todd_coxeter
from .exactgeom import IDENTITY_MAT, Isometry, Mat2, QuadNum, Vec2, mat, vec
from .fpgroup import Presentation, SignHom, Word
from .lattice import InvalidLatticeError, Lattice2, integer_lattice_basis


Linear = tuple[int, int, int, int]            # [[a, b], [c, d]] as (a, b, c, d)
Affine = tuple[int, int, int, int, int, int]  # v |-> [[a, b], [c, d]] v + (x, y)/N
Class = tuple[Linear, tuple[int, int]]        # v |-> m v + (x, y)/D modulo Z^2
Closure = tuple[tuple[int, int, int], tuple[int, tuple[Class, ...]], tuple[Linear, ...]]


class UnknownModelError(LookupError):
    """Name does not denote one of the seventeen plane groups."""


class UnknownSignatureError(LookupError):
    """Name does not denote one of the seventeen Euclidean 2-orbifolds."""


class Names(NamedTuple):
    thurston: str
    conway: str
    crystallographic: str


@dataclass(frozen=True)
class OrbifoldSignature:
    """Closed Euclidean 2-orbifold: underlying space, cone points, corner
    reflectors, orientability, reflector-boundary flag, and standard names."""

    orientable: bool
    has_boundary_reflector: bool
    underlying: str
    cone_orders: tuple[int, ...]
    corner_orders: tuple[int, ...]
    names: Names = Names("", "", "")
    note: str = ""

    def __post_init__(self):
        if self.corner_orders and not self.has_boundary_reflector:
            raise ValueError("corner reflectors need a boundary reflector")

    def __str__(self) -> str:
        return self.names.thurston or self._ad_hoc_name()

    def _ad_hoc_name(self) -> str:
        cones = ",".join(str(c) for c in self.cone_orders)
        return f"{self.underlying}({cones})"


_UNDERLYING_CHI = {
    "sphere": Fraction(2),
    "torus": Fraction(0),
    "klein_bottle": Fraction(0),
    "projective_plane": Fraction(1),
    "disk": Fraction(1),
    "annulus": Fraction(0),
    "moebius": Fraction(0),
}


def euler_characteristic(sig: OrbifoldSignature) -> Fraction:
    """Orbifold Euler characteristic
    chi(underlying) - sum(1 - 1/a_i) - (1/2) sum(1 - 1/b_j)."""
    chi = _UNDERLYING_CHI[sig.underlying]
    for a in sig.cone_orders:
        chi -= 1 - Fraction(1, a)
    for b in sig.corner_orders:
        chi -= Fraction(1, 2) * (1 - Fraction(1, b))
    return chi


def _sig(orient, refl, underlying, cones, corners, thurston, conway, cryst, note=""):
    return OrbifoldSignature(orient, refl, underlying, tuple(cones), tuple(corners),
                             Names(thurston, conway, cryst), note)


#: the seventeen Euclidean 2-orbifold types, keyed by crystallographic name
SIGNATURES: dict[str, OrbifoldSignature] = {
    "p1": _sig(True, False, "torus", (), (), "T2", "o", "p1"),
    "p2": _sig(True, False, "sphere", (2, 2, 2, 2), (), "S2(2,2,2,2)", "2222", "p2"),
    "p3": _sig(True, False, "sphere", (3, 3, 3), (), "S2(3,3,3)", "333", "p3"),
    "p4": _sig(True, False, "sphere", (2, 4, 4), (), "S2(2,4,4)", "442", "p4"),
    "p6": _sig(True, False, "sphere", (2, 3, 6), (), "S2(2,3,6)", "632", "p6"),
    "pm": _sig(False, True, "annulus", (), (), "T_R", "**", "pm"),
    "pg": _sig(False, False, "klein_bottle", (), (), "K2", "xx", "pg"),
    "cm": _sig(False, True, "moebius", (), (), "K_R", "*x", "cm"),
    "pmm": _sig(False, True, "disk", (), (2, 2, 2, 2), "D2(;2,2,2,2)", "*2222", "pmm"),
    "pmg": _sig(False, True, "disk", (2, 2), (), "D2(2,2;R)", "22*", "pmg",
                note="also listed as '(2;2;)' in some sources (likely a typo)"),
    "pgg": _sig(False, False, "projective_plane", (2, 2), (), "RP2(2,2)", "22x", "pgg"),
    "cmm": _sig(False, True, "disk", (2,), (2, 2), "D2(2;2,2)", "2*22", "cmm"),
    "p4m": _sig(False, True, "disk", (), (2, 4, 4), "D2(;2,4,4)", "*442", "p4m"),
    "p4g": _sig(False, True, "disk", (4,), (2,), "D2(4;2)", "4*2", "p4g"),
    "p3m1": _sig(False, True, "disk", (), (3, 3, 3), "D2(;3,3,3)", "*333", "p3m1"),
    "p31m": _sig(False, True, "disk", (3,), (3,), "D2(3;3)", "3*3", "p31m"),
    "p6m": _sig(False, True, "disk", (), (2, 3, 6), "D2(;2,3,6)", "*632", "p6m"),
}

MODEL_NAMES = tuple(SIGNATURES)


def _alias_map() -> dict[str, str]:
    aliases: dict[str, str] = {}
    for cryst, sig in SIGNATURES.items():
        for label in (cryst, sig.names.thurston, sig.names.conway):
            aliases[label.lower().replace(" ", "")] = cryst
    aliases["t^2"] = "p1"
    aliases["tr"] = aliases["t_r"]
    aliases["kr"] = aliases["k_r"]
    aliases["k^2"] = "pg"
    aliases["(2;2;)"] = "pmg"  # garbled source form recorded as an alias
    return aliases


_ALIASES = _alias_map()


def signature_by_name(name: str) -> OrbifoldSignature:
    """Look up a signature by crystallographic, Thurston-style or orbifold
    name (case-insensitive)."""
    key = name.lower().replace(" ", "")
    if key not in _ALIASES:
        raise UnknownSignatureError(f"unknown 2-orbifold name {name!r}")
    return SIGNATURES[_ALIASES[key]]


def crystallographic_name(name: str) -> str:
    key = name.lower().replace(" ", "")
    if key not in _ALIASES:
        raise UnknownModelError(f"unknown plane-group name {name!r}")
    return _ALIASES[key]


# --------------------------------------------------------------------------
# exact matrices used by the models

_H = Fraction(1, 2)
_RT3_H = QuadNum(0, _H)          # sqrt3/2

ROT_CW_60 = mat(_H, _RT3_H, -_RT3_H, _H)
ROT_CCW_90 = mat(0, -1, 1, 0)
ROT_CW_90 = mat(0, 1, -1, 0)
ROT_CW_120 = mat(-_H, _RT3_H, -_RT3_H, -_H)
ROT_180 = mat(-1, 0, 0, -1)

MIRROR_X = mat(1, 0, 0, -1)       # across the x-axis
MIRROR_Y = mat(-1, 0, 0, 1)       # across the y-axis
MIRROR_DIAG = mat(0, 1, 1, 0)     # across y = x
MIRROR_60 = mat(-_H, _RT3_H, _RT3_H, _H)     # across the 60-degree line
MIRROR_120 = mat(-_H, -_RT3_H, -_RT3_H, _H)  # across the 120-degree line


def _iso(linear: Mat2, tx=0, ty=0) -> Isometry:
    return Isometry(linear, vec(tx, ty))


def _halfturn(px, py) -> Isometry:
    p = vec(px, py)
    return Isometry(ROT_180, p + p)


def _mirror_through(linear: Mat2, px, py) -> Isometry:
    p = vec(px, py)
    return Isometry(linear, p - linear * p)


# --------------------------------------------------------------------------
# model groups

_ID_LINEAR: Linear = (1, 0, 0, 1)
_ID_AFFINE: Affine = (1, 0, 0, 1, 0, 0)
_IDENTITY = Isometry.identity()


def _det(m: Linear) -> int:
    return m[0] * m[3] - m[1] * m[2]


def _mmul(p: Linear, q: Linear) -> Linear:
    a, b, c, d = p
    e, f, g, h = q
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _amul(p: Affine, q: Affine) -> Affine:
    """Composition p o q of integer affine maps over the same N."""
    a, b, c, d, x, y = p
    e, f, g, h, u, v = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
            a * u + b * v + x, c * u + d * v + y)


def _ainv(f: Affine) -> Affine:
    """Inverse of an integer affine map whose matrix has determinant +-1."""
    a, b, c, d, x, y = f
    e = a * d - b * c  # +-1, its own inverse
    a, b, c, d = d * e, -b * e, -c * e, a * e
    return a, b, c, d, -(a * x + b * y), -(c * x + d * y)


def _walk(maps: list[Affine], n: int) -> tuple[dict[Linear, Affine], list[tuple[int, int]]]:
    """The point group and the translations of the group that integer affine
    maps over the same N generate.  A BFS from the identity, f |-> f s over
    the maps s, keeps the first element it meets over each linear part, in
    the order met; a thirteenth linear part is an `InvariantError`.  Every
    product h = f s over a linear part already held by e gives the
    translation h e^-1, whose vector, h's translation minus e's, must lie in
    N Z^2; it is returned in units of N.  By Schreier's lemma those
    translations generate every translation of the group."""
    held = {_ID_LINEAR: _ID_AFFINE}
    queue = [_ID_AFFINE]
    pairs = []
    for f in queue:
        for s in maps:
            h = _amul(f, s)
            e = held.setdefault(h[:4], h)
            if e is h:
                queue.append(h)
                if len(queue) > 12:
                    raise InvariantError("point group larger than 12")
                continue
            x, y = h[4] - e[4], h[5] - e[5]
            if x % n or y % n:
                raise InvariantError("translation of the subgroup is not a lattice translation")
            pairs.append((x // n, y // n))
    return held, pairs


class AffineKernel(NamedTuple):
    """A model's generators as integer affine maps in the basis B of its
    translation lattice (`lattice().basis_matrix()`), and one lift per
    linear part of its point group, walked once from them
    (`ModelGroup.kernel`)."""

    denominator: int                  # N
    gens: tuple[Affine, ...]
    lifts: tuple[Affine, ...]         # one element of the model per linear part


def _images(kernel: AffineKernel, words: Iterable[Word]) -> list[Affine]:
    """Each word as an integer affine map over the kernel's generators."""
    maps = dict(enumerate(kernel.gens, 1))
    maps.update({-k: _ainv(gen) for k, gen in maps.items()})
    images = []
    for w in words:
        f = _ID_AFFINE
        for letter in w.letters:
            f = _amul(f, maps[letter])
        images.append(f)
    return images


@dataclass(frozen=True)
class ModelGroup:
    presentation: Presentation
    rep: tuple[Isometry, ...]                 # one image per generator
    translation_words: tuple[Word, Word]
    signature: OrbifoldSignature

    def image(self, gen_index: int) -> Isometry:
        return self.rep[gen_index - 1]

    # Cached on first use; `validate` fills `kernel` and what it reads.

    @cached_property
    def inverse_rep(self) -> tuple[Isometry, ...]:
        """The inverse of each generator image."""
        return tuple(g.inverse() for g in self.rep)

    def evaluate(self, w: Word) -> Isometry:
        out = _IDENTITY
        for letter in w.letters:
            out = out * (self.rep[letter - 1] if letter > 0
                         else self.inverse_rep[-letter - 1])
        return out

    @cached_property
    def _lattice(self) -> Lattice2:
        """The translation words' images, each evaluated once, as a lattice."""
        images = [self.evaluate(w) for w in self.translation_words]
        if not all(img.linear.is_identity() for img in images):
            raise InvariantError("translation word image is not a translation")
        return Lattice2(*(img.trans for img in images))

    def translation_images(self) -> tuple[Vec2, Vec2]:
        return self._lattice.b1, self._lattice.b2

    def lattice(self) -> Lattice2:
        return self._lattice

    @cached_property
    def point_group(self) -> tuple[Mat2, ...]:
        """The linear parts, in the order of the kernel's walk."""
        return tuple(self._cartesian.values())

    @cached_property
    def _cartesian(self) -> Mapping[Linear, Mat2]:
        """B M B^-1 for each linear part M of the kernel's lifts, in their
        order: the Cartesian view that only the `point_group` displays read,
        so it is built on first read, not with the kernel."""
        basis, inverse = self.lattice().basis_matrix(), self.lattice()._inverse_basis
        return {f[:4]: basis * mat(*f[:4]) * inverse for f in self.kernel.lifts}

    @cached_property
    def kernel(self) -> AffineKernel:
        """The generators as integer affine maps in the basis
        B = (v1, v2) of `translation_images()`, and one lift per linear part.

        Each generator's linear part L becomes M = B^-1 L B, which must be
        integral (`Lattice2.integer_matrix`); `Isometry` proved L orthogonal,
        so M has L's determinant +-1 and keeps the Gram matrix G = B^T B.
        Its translation must lie in (1/N)Z^2, N the lcm of the translation
        denominators.  `_walk` over the inverses g^-1, each element inverted,
        gives the lifts in the order of a BFS f |-> g f, since
        (g f)^-1 = f^-1 g^-1; it also refuses a translation outside the
        lattice of the translation words."""
        lattice = self.lattice()
        coords = [lattice.coords(iso.trans) for iso in self.rep]
        n = lcm(*(x.a.denominator for v in coords for x in v))
        gens = []
        for iso, v in zip(self.rep, coords):
            m = lattice.integer_matrix(iso.linear)
            scaled = [x * n for x in v]
            if not all(x.is_integer() for x in scaled):
                raise InvariantError(f"generator translation of {self.presentation.name} "
                                     f"is not in (1/{n})Z^2 in the lattice basis")
            gens.append(m + tuple(int(x.a) for x in scaled))
        held, _ = _walk([_ainv(g) for g in gens], n)
        return AffineKernel(n, tuple(gens), tuple(map(_ainv, held.values())))

    def validate(self) -> None:
        """Build the kernel and check each relator on it: conjugation by B,
        with translations scaled by N, is an injective homomorphism, so a
        relator's integer image is the identity exactly when its Cartesian
        image is."""
        relators = self.presentation.relators
        for rel, f in zip(relators, _images(self.kernel, relators)):
            if f != _ID_AFFINE:
                raise InvariantError(
                    f"relator {self.presentation.spell(rel)} does not act trivially "
                    f"in model {self.presentation.name}")


def _build(name, gens, relators, images, twords) -> ModelGroup:
    pres = Presentation(name, tuple(gens), tuple(Word(tuple(r)) for r in relators))
    model = ModelGroup(pres, tuple(images),
                       (Word(tuple(twords[0])), Word(tuple(twords[1]))),
                       SIGNATURES[name])
    model.validate()
    return model


def _model_p1():
    return _build(
        "p1", ["t", "u"], [(1, 2, -1, -2)],
        [_iso(IDENTITY_MAT, 1, 0), _iso(IDENTITY_MAT, 0, 1)],
        [(1,), (2,)])


def _model_p2():
    # four half-turns with product 1 (corners of half a unit cell)
    return _build(
        "p2", ["w", "x", "y", "z"],
        [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2, 3, 4)],
        [_halfturn(0, 0), _halfturn(_H, 0), _halfturn(_H, _H), _halfturn(0, _H)],
        [(2, 1), (4, 1)])


def _model_pm():
    return _build(
        "pm", ["s", "z", "t"],
        [(1, 1), (2, 2), (1, 3, -1, -3), (2, 3, -2, -3)],
        [_iso(MIRROR_X), _iso(MIRROR_X, 0, 1), _iso(IDENTITY_MAT, 1, 0)],
        [(3,), (2, 1)])


def _model_pg():
    # Klein-bottle group: vertical translation a, horizontal glide b
    return _build(
        "pg", ["a", "b"], [(1, 2, 1, -2)],
        [_iso(IDENTITY_MAT, 0, 1), _iso(MIRROR_X, _H, 0)],
        [(2, 2), (1,)])


def _model_cm():
    return _build(
        "cm", ["s", "p", "q"],
        [(1, 1), (2, 3, -2, -3), (1, 2, -1, -3)],
        [_iso(MIRROR_X), _iso(IDENTITY_MAT, _H, _H), _iso(IDENTITY_MAT, _H, -_H)],
        [(2,), (3,)])


def _model_pmm():
    # reflection group of the rectangle [0,1/2] x [0,1/2]
    return _build(
        "pmm", ["p", "q", "r", "s"],
        [(1, 1), (2, 2), (3, 3), (4, 4),
         (1, 2, 1, 2), (2, 3, 2, 3), (3, 4, 3, 4), (4, 1, 4, 1)],
        [_iso(MIRROR_Y), _iso(MIRROR_X), _iso(MIRROR_Y, 1, 0), _iso(MIRROR_X, 0, 1)],
        [(3, 1), (4, 2)])


def _model_pmg():
    return _build(
        "pmg", ["r", "g", "t"],
        [(1, 1), (2, 3, -2, 3), (1, 2, -1, 2), (1, 3, -1, 3)],
        [_iso(ROT_180), _iso(MIRROR_X, _H, 0), _iso(IDENTITY_MAT, 0, 1)],
        [(2, 2), (3,)])


def _model_pgg():
    return _build(
        "pgg", ["r", "g", "v"],
        [(1, 1), (2, 3, -2, 3), (1, 2, -1, 2, 3), (1, 3, -1, 3)],
        [_iso(ROT_180), _iso(MIRROR_X, _H, _H), _iso(IDENTITY_MAT, 0, 1)],
        [(2, 2), (3,)])


def _model_cmm():
    return _build(
        "cmm", ["x", "y", "p", "q"],
        [(1, 1), (2, 2), (1, 2, 1, 2), (3, 4, -3, -4),
         (1, 3, -1, -4), (1, 4, -1, -3), (2, 3, -2, 4), (2, 4, -2, 3)],
        [_iso(MIRROR_X), _iso(MIRROR_Y),
         _iso(IDENTITY_MAT, _H, _H), _iso(IDENTITY_MAT, _H, -_H)],
        [(3,), (4,)])


def _model_p3():
    return _build(
        "p3", ["x", "y"],
        [(1, 1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2)],
        [_iso(ROT_CW_120), Isometry(ROT_CW_120, Vec2(QuadNum.of(_H), _RT3_H))],
        [(2, -1), (-2, 1)])


def _model_p4():
    # order-4 rotation about (1,0); half-turn about (1/2,0)
    return _build(
        "p4", ["c", "d"],
        [(1, 1, 1, 1), (2, 2), (1, 2, 1, 2, 1, 2, 1, 2)],
        [_iso(ROT_CW_90, 1, 1), _iso(ROT_180, 1, 0)],
        [(1, 1, -2), (1, -2, 1)])


def _model_p4m():
    # reflection group of the (pi/4, pi/2, pi/4) triangle
    return _build(
        "p4m", ["p", "q", "r"],
        [(1, 1), (2, 2), (3, 3),
         (1, 2, 1, 2, 1, 2, 1, 2), (2, 3, 2, 3, 2, 3, 2, 3), (3, 1, 3, 1)],
        [_iso(MIRROR_X), _iso(MIRROR_DIAG), _iso(MIRROR_Y, 1, 0)],
        [(3, 2, 1, 2), (2, 3, 2, 1)])


def _model_p4g():
    return _build(
        "p4g", ["c", "s", "u", "v"],
        [(1, 1, 1, 1), (2, 2), (1, 2, 1, 2, -4), (3, 4, -3, -4),
         (1, 3, -1, -4), (1, 4, -1, 3), (2, 3, -2, -4), (2, 4, -2, -3)],
        [_iso(ROT_CCW_90), _mirror_through(MIRROR_DIAG, _H, 0),
         _iso(IDENTITY_MAT, 1, 0), _iso(IDENTITY_MAT, 0, 1)],
        [(3,), (4,)])


def _model_p3m1():
    # reflection group of the equilateral triangle (0,0), (1,0), (1/2, rt3/2)
    return _build(
        "p3m1", ["p", "q", "r"],
        [(1, 1), (2, 2), (3, 3),
         (1, 2, 1, 2, 1, 2), (2, 3, 2, 3, 2, 3), (3, 1, 3, 1, 3, 1)],
        [_iso(MIRROR_X), _iso(MIRROR_60), _mirror_through(MIRROR_120, 1, 0)],
        [(2, 3, -2, -1), (1, 2, 2, 3, -2, -1, -2, -1)])


def _model_p31m():
    return _build(
        "p31m", ["x", "p", "u", "v"],
        [(1, 1, 1), (2, 2), (2, 1, 2, 1), (3, 4, -3, -4),
         (1, 3, -1, 4), (1, 4, -1, 4, -3), (2, 3, -2, -3), (2, 4, -2, 4, -3)],
        [_iso(ROT_CW_120), _iso(MIRROR_X),
         _iso(IDENTITY_MAT, 1, 0), Isometry(IDENTITY_MAT, Vec2(QuadNum.of(_H), _RT3_H))],
        [(3,), (4,)])


def _model_p6():
    return _build(
        "p6", ["a", "b"],
        [(1,) * 6, (2,) * 3, (1, 2, 1, 2)],
        [_iso(ROT_CW_60), Isometry(ROT_CW_120, Vec2(QuadNum.of(_H), _RT3_H))],
        [(2, -1, -1), (-2, 1, 1)])


def _model_p6m():
    # mirrors of the (pi/2, pi/3, pi/6) triangle, right angle at the origin:
    # a = y-axis leg, c = x-axis leg, b = hypotenuse through (1/2, 0)
    return _build(
        "p6m", ["a", "b", "c"],
        [(1, 1), (2, 2), (3, 3),
         (1, 2) * 6, (2, 3) * 3, (3, 1) * 2],
        [_iso(MIRROR_Y), _mirror_through(MIRROR_120, _H, 0), _iso(MIRROR_X)],
        [(1, 2, 1, 2, -1, -2, -1, 3), (1, 2, 1, 2, 1, 2, -1, -2, -1, 3, -2, -1)])


_BUILDERS = {
    "p1": _model_p1, "p2": _model_p2, "pm": _model_pm, "pg": _model_pg,
    "cm": _model_cm, "pmm": _model_pmm, "pmg": _model_pmg, "pgg": _model_pgg,
    "cmm": _model_cmm, "p3": _model_p3, "p4": _model_p4, "p4m": _model_p4m,
    "p4g": _model_p4g, "p3m1": _model_p3m1, "p31m": _model_p31m,
    "p6": _model_p6, "p6m": _model_p6m,
}


@lru_cache(maxsize=None)
def model(name: str) -> ModelGroup:
    """The standard model of a plane group, accepted by any of its names."""
    return _BUILDERS[crystallographic_name(name)]()


# --------------------------------------------------------------------------
# subgroups of a model


class SubgroupHandle:
    """A finite-index subgroup of a model group, held as a coset table and
    proved when the handle is built: `_word_closure` of the table's subgroup
    words gives its Hermite triple, `integer_classes` and linear parts, and
    the table, which shares no code with it, checks them by the index
    identity [G:H] |P_H| = [L_G:L_H] |P_G|.  A closure that missed an
    element or a translation of the subgroup, or found one outside it,
    breaks the identity, and so does a table that is not the subgroup's.

    `integer_classes` is (D, classes): the finite quotient (subgroup mod its
    translation lattice) as pairs (m, (x, y)) in the basis of `lattice`,
    where the lattice is Z^2: m is an integer matrix and (x, y)/D,
    0 <= x, y < D, the canonical translation representative.  One class per
    linear part of the subgroup, in the order of the model's point-group
    walk, with the identity first."""

    def __init__(self, model_group: ModelGroup, table: CosetTable):
        if table.parent != model_group.presentation:
            raise ValueError("table does not belong to this model")
        self.model = model_group
        self.table = table
        self._hermite, self.integer_classes, self._linear = _word_closure(
            model_group, table.subgroup_words)
        a, _, g = self._hermite
        self.lattice_index = a * g
        if table.index * len(self._linear) != self.lattice_index * len(model_group.kernel.lifts):
            raise InvariantError("index identity violated")

    @property
    def index(self) -> int:
        return self.table.index

    @cached_property
    def schreier_images(self) -> tuple[Isometry, ...]:
        """`table.schreier_generators()` evaluated as Cartesian isometries."""
        return tuple(map(self.model.evaluate, self.table.schreier_generators()))

    @cached_property
    def point_group(self) -> tuple[Mat2, ...]:
        """The linear parts of the subgroup, in the order of `integer_classes`."""
        cartesian = self.model._cartesian
        return tuple(cartesian[m] for m in self._linear)

    @cached_property
    def lattice(self) -> Lattice2:
        return translation_lattice(self)

    @cached_property
    def classes(self) -> tuple[tuple[Mat2, Vec2], ...]:
        """`integer_classes` as exact matrices and vectors."""
        d, out = self.integer_classes
        return tuple((mat(*m), vec(Fraction(x, d), Fraction(y, d))) for m, (x, y) in out)


def subgroup(model_group: ModelGroup, words: Iterable[Word]) -> SubgroupHandle:
    table = todd_coxeter(model_group.presentation, tuple(words))
    return SubgroupHandle(model_group, table)


def whole_group(model_group: ModelGroup) -> SubgroupHandle:
    gens = [Word((i,)) for i in range(1, model_group.presentation.ngens + 1)]
    return subgroup(model_group, gens)


def sign_kernel(model_group: ModelGroup,
                hom: SignHom | Mapping[str, int]) -> SubgroupHandle:
    """Index-2 subgroup cut out by a sign homomorphism (given directly or as a
    partial {generator name: sign} mapping, unnamed generators meaning +1)."""
    if not isinstance(hom, SignHom):
        pres = model_group.presentation
        signs = [1] * pres.ngens
        for gen_name, s in hom.items():
            signs[pres.gen_index(gen_name) - 1] = s
        hom = SignHom(pres, tuple(signs))
    if not hom.holds():
        raise ValueError("sign assignment violates a relator")
    return subgroup(model_group, hom.kernel_words())


def translation_lattice(handle: SubgroupHandle) -> Lattice2:
    """Lattice of the translations lying in the subgroup: the images of
    t1^a t2^b and t2^g for its Hermite triple (a, b, g)."""
    a, b, g = handle._hermite
    v1, v2 = handle.model.translation_images()
    return Lattice2(v1.scale(a) + v2.scale(b), v2.scale(g))


def _word_closure(model_group: ModelGroup, words: Iterable[Word]) -> Closure:
    """((a, b, g), (D, classes), linear) of the subgroup the words generate:
    its Hermite triple, its `integer_classes` and its linear parts in the
    model's lattice basis, from the words alone.

    Each word is evaluated once as an integer affine map of the model's
    kernel, and `_walk` over those maps keeps one element of the subgroup
    per linear part and gives its translations.  So t1^i t2^j lies in the
    subgroup exactly when (i, j) lies in the lattice with Hermite basis
    (a, b), (0, g), whose triple `integer_lattice_basis` returns.  The table
    that proved the index finite proved that lattice of rank 2.

    The subgroup lattice has basis H = [[a, 0], [b, g]] in the model's
    lattice basis and a g H^-1 = [[g, 0], [-b, a]], so a linear part M
    becomes H^-1 M H = ([[g, 0], [-b, a]] M H) / (a g) and a translation
    (x, y)/N becomes (g x, a y - b x)/D with D = a g N.  The classes follow
    the order of the model's point-group walk."""
    kernel = model_group.kernel
    n = kernel.denominator
    held, pairs = _walk(_images(kernel, words), n)
    try:
        a, b, g = integer_lattice_basis(pairs)
    except InvalidLatticeError as exc:
        raise InvariantError("translations of the subgroup do not span a rank-2 lattice") from exc
    ag = a * g
    d = ag * n
    linear = tuple(f[:4] for f in kernel.lifts if f[:4] in held)
    classes = []
    for m in linear:
        scaled = _mmul(_mmul((g, 0, -b, a), m), (a, 0, b, g))
        if any(v % ag for v in scaled):
            raise InvariantError("point group does not preserve the lattice")
        x, y = held[m][4:]
        classes.append((tuple(v // ag for v in scaled), ((g * x) % d, (a * y - b * x) % d)))
    return (a, b, g), (d, tuple(classes)), linear


# --------------------------------------------------------------------------
# classification


# The helpers below take classes in the lattice basis (`integer_classes`).

_ORDER_OF_TRACE = {2: 1, -2: 2, -1: 3, 0: 4, 1: 6}


def _rotation_order(m: Linear) -> int:
    """Order of a determinant-1 integer matrix of finite order, from its
    trace t: m^2 = t m - I fixes it for t in {-1, 0, 1}, and t = +-2 leaves
    only +-I."""
    t = m[0] + m[3]
    if t not in _ORDER_OF_TRACE or (abs(t) == 2 and m != (t // 2, 0, 0, t // 2)):
        raise InvariantError(f"rotation matrix {m} has no crystallographic order")
    return _ORDER_OF_TRACE[t]


def _class_has_reflection(m: Linear, v: tuple[int, int], d: int) -> bool:
    """Whether some lattice translate of (m, v) is a true reflection, i.e.
    (m + I)v lies in (m + I)Z^2.  m + I is a rank-1 integer matrix a*n^T, n a
    nonzero row r divided by the gcd of its entries, so (m + I)Z^2 = Z*a and
    (m + I)v = (n.v)*a: the test is whether r.(x, y) = 0 mod gcd(r) d."""
    a, b, c, e = m[0] + 1, m[1], m[2], m[3] + 1
    if a * e != b * c or not (a or b or c or e):
        raise InvariantError("m + I of a reflection class is not a nonzero rank-1 integer matrix")
    r0, r1 = (a, b) if a or b else (c, e)
    return (r0 * v[0] + r1 * v[1]) % (gcd(r0, r1) * d) == 0


def _fixes_rows_mod(a: Linear, m: Linear, k: int) -> bool:
    """Whether a m = a modulo k: m fixes each row of a, as a linear form
    modulo k."""
    return all(x % k == 0 for x in _mmul(a, (m[0] - 1, m[1], m[2], m[3] - 1)))


def _class_orders(handle: SubgroupHandle) -> tuple[list[tuple[int, Linear]], bool, list[Linear]]:
    """The subgroup's rotations with their orders, whether some class
    reverses orientation, and its mirror matrices, the det -1 linear parts
    whose class holds a reflection, from one scan of `integer_classes`."""
    d, classes = handle.integer_classes
    rotations = [(_rotation_order(m), m) for m, _ in classes if _det(m) == 1]
    mirrors = [m for m, v in classes if _det(m) == -1 and _class_has_reflection(m, v, d)]
    return rotations, len(rotations) < len(classes), mirrors


# (highest rotation order, number of mirror matrices) of the ten groups with
# mirrors: pm/cm, pmg, pmm/cmm, p3m1/p31m, p4g, p4m, p6m
_MIRROR_COUNTS = {(1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (4, 4), (6, 6)}


def crystallographic_type(handle: SubgroupHandle) -> str:
    """Crystallographic type of the subgroup, from its integer affine classes
    in the lattice basis: the highest rotation order n and the mirror
    matrices, the det -1 linear parts whose class holds a reflection.

    n and their number decide all but three pairs, which the arithmetic
    class splits (International Tables A).  A mirror matrix is = I mod 2
    exactly when the lattice has a basis along and across its axis: pm, pmm
    against cm, cmm; Gamma(2) is normal in GL(2, Z), so this does not depend
    on the basis.  For n = 3 and R of order 3, p31m is the case where a
    mirror matrix acts trivially on Z^2/(R - I)Z^2, a group of order 3 whose
    linear forms mod 3 are the rows of adj(R - I)."""
    rotations, reverses, mirrors = _class_orders(handle)
    # the identity class is first, so the maximum is 1 when nothing rotates
    n = max(order for order, _ in rotations)
    if not reverses:
        return {1: "p1", 2: "p2", 3: "p3", 4: "p4", 6: "p6"}[n]
    if not mirrors:
        if n > 2:
            raise InvariantError(f"{n}-fold group with glides but no mirrors")
        return "pg" if n == 1 else "pgg"
    if ((n, len(mirrors)) not in _MIRROR_COUNTS
            or n <= 2 and len({tuple(x % 2 for x in m) for m in mirrors}) > 1):
        raise InvariantError(f"{n}-fold group with mirror matrices {mirrors}")
    if n == 6:
        return "p6m"
    if n == 4:
        return "p4m" if len(mirrors) == 4 else "p4g"
    if n == 3:
        r = next(m for order, m in rotations if order == 3)
        adj = (r[3] - 1, -r[1], -r[2], r[0] - 1)
        return "p31m" if any(_fixes_rows_mod(adj, m, 3) for m in mirrors) else "p3m1"
    if n == 2 and len(mirrors) == 1:
        return "pmg"
    # the mirror matrices agree mod 2, so the first one decides
    if _fixes_rows_mod(_ID_LINEAR, mirrors[0], 2):
        return "pm" if n == 1 else "pmm"
    return "cm" if n == 1 else "cmm"


def classify(handle: SubgroupHandle) -> OrbifoldSignature:
    """Euclidean 2-orbifold signature of the subgroup's quotient orbifold;
    the handle checked the classes it reads by the index identity when it
    was built."""
    return SIGNATURES[crystallographic_type(handle)]


def orientation_double_cover(model_group: ModelGroup) -> tuple[SubgroupHandle, OrbifoldSignature]:
    """The orientation-preserving subgroup with its classification.

    For an orientable model this is the whole group; otherwise it is the
    kernel, which contains every translation, of the determinant sign map,
    read from the kernel's generators (B^-1 L B has the determinant of L);
    its lattice index must be 1.  The translation words' images are the
    basis of L_G, and the Hermite basis (a, b), (0, g) of L_H holds (1, 0)
    and (0, 1) exactly when a = g = 1; the index identity ties that lattice
    to the table.  The map respects every relator: `validate` proved each
    relator's integer image the identity, and its determinant is the
    product of the letters' signs.  `sign_kernel` refuses a model that
    skipped `validate` and breaks a relator."""
    signs = tuple(_det(g[:4]) for g in model_group.kernel.gens)
    if all(s == 1 for s in signs):
        return whole_group(model_group), model_group.signature
    handle = sign_kernel(model_group, SignHom(model_group.presentation, signs))
    if handle.lattice_index != 1:
        raise InvariantError("translation fails to lift to the double cover")
    return handle, classify(handle)
