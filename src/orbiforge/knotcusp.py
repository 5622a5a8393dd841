"""The theorem engine: peripheral amalgam presentations, the order-2
collapse certificates, double-cover cusp computations, the peripheral-order
predicate, and the realizable/excluded verdict for all seventeen Euclidean
2-orbifold cusp types.

Machine-checked facts are group-theoretic (certified by exponent sums, coset
enumeration and the wallpaper classifier); the three-dimensional steps they
feed into are recorded as cited assumptions in the verdict checks, never
re-proved here.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import neg
from typing import Callable

from .fpgroup import (AbelianGroup, Presentation, SignHom, Word, _check_relators,
                      _presentation, _reduce_valid, _reduced_word, abelianization)
from .wallpaper import (ModelGroup, OrbifoldSignature, SIGNATURES,
                        UnknownSignatureError, _class_orders, classify, model,
                        orientation_double_cover, sign_kernel,
                        signature_by_name, whole_group)


class AmalgamError(ValueError):
    """Invalid amalgam data: bad gluing coverage or a non-meridional knot input."""


class TheoremCheckError(RuntimeError):
    """A certified group-theoretic fact failed to verify (should be impossible
    for valid inputs)."""


@dataclass(frozen=True)
class GluingDatum:
    """One conjugation relation g mu g^-1 = w t1^r t2^s w^-1 between a cusp
    generator g and a knot meridian mu, with conjugator w over the knot
    generators."""

    peripheral_generator: str
    knot_generator: str
    conjugator: Word
    r: int
    s: int


_INTEGERS = AbelianGroup(1)  # Z, the abelianization of a meridian-style knot
_Z2 = AbelianGroup(0, (2,))  # Z/2, the abelianization of each order-2 collapse


@dataclass(frozen=True)
class AmalgamSpec:
    cusp_model: str                      # "p6" or "p4"
    knot_presentation: Presentation
    gluings: tuple[GluingDatum, ...]

    def validate(self) -> None:
        if self.cusp_model not in ("p6", "p4"):
            raise AmalgamError(f"cusp model must be p6 or p4, not {self.cusp_model!r}")
        cusp = model(self.cusp_model).presentation
        knot = self.knot_presentation
        pairs = {(g.peripheral_generator, g.knot_generator) for g in self.gluings}
        if pairs != set(product(cusp.generators, knot.generators)) \
                or len(pairs) != len(self.gluings):
            raise AmalgamError("need exactly one gluing per "
                               "(cusp generator, knot generator) pair")
        for g in self.gluings:
            for exponent in (g.r, g.s):
                if not isinstance(exponent, int) or isinstance(exponent, bool):
                    raise AmalgamError(
                        f"gluing exponents r and s must be ints, not {exponent!r}")
            if g.conjugator.max_index() > knot.ngens:
                raise AmalgamError("conjugator uses an unknown knot generator")
        ab = abelianization(knot)
        if ab != _INTEGERS:
            raise AmalgamError(
                f"knot presentation must abelianize to Z (meridian-generated), got {ab}")


def build_amalgam(spec: AmalgamSpec) -> Presentation:
    """Presentation of the one-cusped amalgam: cusp relators, knot relators,
    and one conjugation relator g mu g^-1 (w t1^r t2^s w^-1)^-1 per gluing.

    Each conjugation relator is spelled out as one letter sequence,
    g mu g^-1 w t2^-s t1^-r w^-1, and freely reduced once; free reduction is
    confluent, so this is the word the stepwise products give.  The relators'
    letters are not checked again, as values or against the generators: the
    cusp's and the knot's were checked when their presentations were built,
    `AmalgamSpec.validate` checks the conjugators and the exponents, the knot
    letters move through one table over the knot's generators, and g and mu
    are indices of the distinct generator names."""
    spec.validate()
    cusp = model(spec.cusp_model)
    cp = cusp.presentation
    knot = spec.knot_presentation
    offset = cp.ngens
    gens = cp.generators + knot.generators
    if len(set(gens)) != len(gens):
        raise AmalgamError("knot generator names collide with cusp generators")
    index = {name: i for i, name in enumerate(gens, 1)}
    shift = {}  # knot letter -> amalgam letter
    for x in range(1, knot.ngens + 1):
        shift[x], shift[-x] = x + offset, -x - offset
    shifted = shift.__getitem__
    relators = list(cp.relators)
    relators += [_reduced_word(tuple(map(shifted, w.letters))) for w in knot.relators]
    t1, t2 = (t.letters for t in cusp.translation_words)
    t1_inv, t2_inv = (tuple(map(neg, reversed(t))) for t in (t1, t2))
    for g in spec.gluings:
        gi, r, s = index[g.peripheral_generator], g.r, g.s
        w = tuple(map(shifted, g.conjugator.letters))
        relators.append(_reduced_word(_reduce_valid(
            (gi, index[g.knot_generator], -gi, *w,
             *(t2 * -s if s < 0 else t2_inv * s), *(t1 * -r if r < 0 else t1_inv * r),
             *map(neg, reversed(w))))))
    return _presentation(f"amalgam[{spec.cusp_model}+{knot.name}]",
                         gens, tuple(relators))


def _knot_letters(p: Presentation, cusp_ngens: int) -> list[Word]:
    return [_reduced_word((i,)) for i in range(cusp_ngens + 1, p.ngens + 1)]


@dataclass(frozen=True)
class CollapseResult:
    order: int
    abelian: AbelianGroup


def _certify_order_two(p: Presentation, extras: list[Word], name: str) -> SignHom:
    """Certify that p modulo the normal closure of the extras has order
    exactly 2; returns the quotient map, x |-> -1 and every other generator
    |-> +1.

    Each single-letter extra (b, d, a meridian) kills its generator.  When
    exactly one generator x survives, the quotient is generated by x, and
    each relator and each extra equals x^k in it, k its exponent sum in x.
    So the quotient is <x | x^k, ...>: cyclic of order the gcd of those k
    (0: infinite), and a cyclic group is its own abelianization.  A gcd of 2
    makes every relator's exponent sum in x even, so the sign map respects
    every relator of p: it is the quotient map onto Z/2.  The proof is one
    pass over the letters, for every amalgam alike."""
    _check_relators(extras, p.ngens)
    killed = {abs(w.letters[0]) for w in extras if len(w) == 1}
    survivors = [g for g in range(1, p.ngens + 1) if g not in killed]
    if len(survivors) != 1:
        raise TheoremCheckError(
            f"quotient {name} keeps {len(survivors)} generators, not one")
    x = survivors[0]
    order = gcd(*(w.letters.count(x) - w.letters.count(-x)
                  for w in (*p.relators, *extras)))
    if order != 2:
        raise TheoremCheckError(f"quotient {name} has order {order or 'infinite'}, not 2")
    return SignHom(p, tuple(-1 if g == x else 1 for g in range(1, p.ngens + 1)))


def collapse_236(p: Presentation) -> CollapseResult:
    """Quotient of a p6-cusped amalgam by b, both cusp translations, and all
    meridians; certifies by `_certify_order_two` that the quotient has order
    exactly 2 with abelianization Z/2."""
    cusp = model("p6")
    t1, t2 = cusp.translation_words
    b = _reduced_word((cusp.presentation.gen_index("b"),))
    extras = [b, t1, t2] + _knot_letters(p, cusp.presentation.ngens)
    _certify_order_two(p, extras, f"{p.name}.collapse")
    return CollapseResult(2, _Z2)


def h_map_244(p: Presentation) -> tuple[SignHom, AbelianGroup]:
    """The sign map killing d and c^2 on a p4-cusped amalgam: the quotient
    map, c |-> -1, d |-> +1, mu_j |-> +1, that `_certify_order_two` returns
    once it certifies that the quotient by d, c^2, the meridians and both
    cusp translations has order exactly 2."""
    cusp = model("p4")
    cp = cusp.presentation
    c, d = cp.gen_index("c"), cp.gen_index("d")
    t1, t2 = cusp.translation_words
    extras = [_reduced_word((d,)), _reduced_word((c, c)), t1, t2] + _knot_letters(p, cp.ngens)
    return _certify_order_two(p, extras, f"{p.name}.h"), _Z2


def _double_cover_cusp(cusp_name: str, signs: dict[str, int],
                       expected: str) -> OrbifoldSignature:
    """Cusp cross-section of the double cover cut out by a sign map on a cusp
    group: its kernel must hold both cusp translations and classify to the
    expected model's signature.

    The kernel H holds both translations exactly when its lattice index is
    1: their images are the basis of L_G, and the Hermite basis (a, b),
    (0, g) of L_H holds (1, 0) and (0, 1) exactly when a = g = 1.  That
    proves its index is 2: the handle enforced the index identity
    [G:H] |P_H| = [L_G:L_H] |P_G| when it was built, so [G:H] = |P_G|/|P_H|:
    6/3 for p3 in p6 and 4/2 for p2 in p4."""
    handle = sign_kernel(model(cusp_name), signs)
    if handle.lattice_index != 1:
        raise TheoremCheckError("cusp translations missing from the double cover")
    sig = classify(handle)
    if sig != SIGNATURES[expected]:
        raise TheoremCheckError(f"double cover cusp is {sig}, not {SIGNATURES[expected]}")
    return sig


def double_cover_cusp_244() -> OrbifoldSignature:
    """Cusp cross-section of the double cover cut out by the sign map on the
    2,4,4 cusp group: the kernel of c |-> -1, d |-> +1 inside the p4 model."""
    return _double_cover_cusp("p4", {"c": -1, "d": 1}, "p2")


def peripheral_order_profile(group: ModelGroup) -> frozenset[int]:
    """Finite orders (> 1) of elements of the plane group.

    Rotation classes contribute the order of their linear part; an
    orientation-reversing class contributes 2 exactly when it contains a true
    reflection (glides have infinite order).
    """
    rotations, _, mirrors = _class_orders(whole_group(group))
    orders = {order for order, _ in rotations if order > 1}
    if mirrors:
        orders.add(2)
    return frozenset(orders)


# --------------------------------------------------------------------------
# the verdict table


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CuspVerdict:
    signature: OrbifoldSignature
    status: str                       # "realizable" | "excluded"
    witness: str | None = None
    reason: str | None = None         # "four_torsion" | "reflection_symmetry"
    notes: tuple[tuple[str, str], ...] = ()
    checks: tuple[CheckRecord, ...] = ()

    def degree_allowed(self, degree: int) -> bool:
        """Whether a covering degree is compatible with the verdict's degree
        congruence note (always true when no congruence is recorded)."""
        for key, value in self.notes:
            if key == "degree_multiple":
                return degree > 0 and degree % int(value) == 0
        return degree > 0


REALIZABLE_WITNESSES = {
    "p1": "torus-cusped quotients of the figure-eight knot complement",
    "p2": "S2(2,2,2,2)-cusped quotients of the figure-eight knot complement",
    "p6": "figure-eight knot complement (degree-24 cover) and the dodecahedral "
          "knot complements (degree-120 covers)",
    "p3": "double covers of the S2(2,3,6)-cusped quotients above",
    "pg": "the Gieseking manifold, covered by the figure-eight knot complement",
    "pgg": "figure-eight knot complement modulo its full symmetry group",
    "p6m": "non-orientable tetrahedral orbifolds covered by the figure-eight "
           "and dodecahedral knot complements",
    "p3m1": "non-orientable tetrahedral orbifold covered by the figure-eight "
            "knot complement",
    "p31m": "index-2 quotient of the minimal non-orientable tetrahedral "
            "orbifold, covered by the figure-eight knot complement",
}

FOUR_TORSION_EXCLUDED = ("p4", "p4m", "p4g")
REFLECTION_EXCLUDED = ("pmm", "cmm", "pmg", "pm", "cm")


def _certificate_check(name: str, certify: Callable[[], object], detail: str) -> CheckRecord:
    """Run a certificate that raises TheoremCheckError when it fails; on
    success the detail is formatted with its result."""
    try:
        result = certify()
    except TheoremCheckError as exc:
        return CheckRecord(name, False, str(exc))
    return CheckRecord(name, True, detail.format(result))


def _four_torsion_checks(cryst: str) -> tuple[CheckRecord, ...]:
    """The checks behind a 4-torsion exclusion: the orientation double cover
    of a non-orientable type is the 2,4,4 cusp, then the two 2,4,4
    certificates."""
    certificates = (
        _certificate_check(
            "h-map-order-2", lambda: h_map_244(_minimal_amalgam("p4")),
            "killing d, c^2, meridians and translations leaves exactly 2 elements"),
        _certificate_check(
            "double-cover-cusp", double_cover_cusp_244,
            "the resulting double cover has cusp {} (no 4-torsion)"))
    if cryst == "p4":
        return certificates
    _, cover = orientation_double_cover(model(cryst))
    return (CheckRecord("orientation-double-cover", cover == SIGNATURES["p4"],
                        f"orientation double cover of {cryst} has cusp {cover}"),
            *certificates)


def _reflection_checks(cryst: str) -> tuple[CheckRecord, ...]:
    profile = peripheral_order_profile(model(cryst))
    ok = profile <= {2}
    return (CheckRecord(
        "peripheral-orders",
        ok,
        f"finite peripheral orders {sorted(profile)} lie in {{2}}, so the cusp "
        "reflection extends to a knot symmetry (excluded externally)"),)


def verdict(signature: OrbifoldSignature | str, run_checks: bool = True) -> CuspVerdict:
    """Realizable/excluded verdict for one of the seventeen cusp types."""
    sig = signature if isinstance(signature, OrbifoldSignature) \
        else signature_by_name(signature)
    cryst = sig.names.crystallographic
    if SIGNATURES.get(cryst) != sig:
        raise UnknownSignatureError(f"not one of the seventeen Euclidean 2-orbifolds: {sig!r}")
    if cryst in FOUR_TORSION_EXCLUDED:
        checks = _four_torsion_checks(cryst) if run_checks else ()
        return CuspVerdict(sig, "excluded", reason="four_torsion", checks=checks)
    if cryst in REFLECTION_EXCLUDED:
        checks = _reflection_checks(cryst) if run_checks else ()
        return CuspVerdict(sig, "excluded", reason="reflection_symmetry", checks=checks)
    notes: list[tuple[str, str]] = []
    checks: tuple[CheckRecord, ...] = ()
    if cryst == "p6":
        notes.append(("degree_multiple", "24"))
        notes.append(("witness_degrees", "figure-eight 24; dodecahedral 120"))
        if run_checks:
            checks = (_certificate_check(
                "collapse-order-2", lambda: collapse_236(_minimal_amalgam("p6")),
                "quotient by b and all parabolic words has order exactly 2"),)
    if cryst == "p3":
        notes.append(("cover_degree_to_236_cusped", "1 or 2"))
        notes.append(("torus_cover_degree_multiple", "6"))
    return CuspVerdict(sig, "realizable", witness=REALIZABLE_WITNESSES[cryst],
                       notes=tuple(notes), checks=checks)


def verdict_table() -> list[CuspVerdict]:
    """Verdicts for all seventeen types, in the canonical model order, without
    their supporting checks."""
    return [verdict(SIGNATURES[name], run_checks=False) for name in SIGNATURES]


# --------------------------------------------------------------------------
# randomized amalgam harness


def _minimal_knot() -> Presentation:
    return Presentation("unknot-meridian", ("mu1",), ())


def _trivial_gluings(cusp_name: str) -> tuple[GluingDatum, ...]:
    cusp = model(cusp_name).presentation
    return tuple(GluingDatum(c, "mu1", Word(()), 1, 0) for c in cusp.generators)


def _minimal_amalgam(cusp_name: str) -> Presentation:
    """The cusp group amalgamated with a one-meridian knot, every gluing trivial."""
    return build_amalgam(AmalgamSpec(cusp_name, _minimal_knot(), _trivial_gluings(cusp_name)))


# Every value is drawn through the getrandbits of a `random.Random`, bit for
# bit as `Random._randbelow` draws from range(n): k = n.bit_length() bits,
# drawn again while the value is n or more.  So a value below 7 (a length,
# or an exponent plus 3) takes 3 bits, redrawn at 7; a sign, choice([-1, 1]),
# takes 2 bits, redrawn at 2 or 3, 0 meaning -1; and randint(1, n) is one
# plus n.bit_length() bits, redrawn above n.  The loops spell these draws out
# in place, so the stream and the samples are the ones that one randint or
# choice call per value gives.


def _random_letters(bits: Callable[[int], int], n: int) -> tuple[int, ...]:
    """Up to 6 letters over n knot generators, not yet reduced: a length,
    then per letter a sign and a generator."""
    k = n.bit_length()
    length = bits(3)
    while length == 7:
        length = bits(3)
    letters = []
    for _ in range(length):
        sign = bits(2)
        while sign > 1:
            sign = bits(2)
        x = bits(k) + 1
        while x > n:
            x = bits(k) + 1
        letters.append(x if sign else -x)
    return tuple(letters)


def random_knot_presentation(rng: random.Random) -> Presentation:
    """Meridian-style presentation: each extra generator is a conjugate of an
    earlier one, so the abelianization is Z.

    The relator i (w j w^-1)^-1 is spelled i w j^-1 w^-1 and freely reduced
    once.  It is built unchecked: the names mu1, ..., mun are distinct, and
    every letter is i <= n, -j with 1 <= j < i, or one of w's letters or
    their inverses, each of absolute value at most n."""
    bits = rng.getrandbits
    n = bits(2)
    while n == 3:
        n = bits(2)
    n += 1
    relators = []
    for i in range(2, n + 1):
        k = (i - 1).bit_length()
        j = bits(k) + 1
        while j >= i:
            j = bits(k) + 1
        w = _random_letters(bits, n)
        relators.append(_reduced_word(_reduce_valid(
            (i, *w, -j, *map(neg, reversed(w))))))
    return _presentation(f"knot{n}", tuple(f"mu{i}" for i in range(1, n + 1)),
                         tuple(relators))


def random_amalgam(rng: random.Random, cusp_name: str) -> AmalgamSpec:
    knot = random_knot_presentation(rng)
    cusp = model(cusp_name).presentation
    bits = rng.getrandbits
    n = knot.ngens
    gluings = []
    for c in cusp.generators:
        for k in knot.generators:
            w = _reduced_word(_reduce_valid(_random_letters(bits, n)))
            r = bits(3)
            while r == 7:
                r = bits(3)
            s = bits(3)
            while s == 7:
                s = bits(3)
            gluings.append(GluingDatum(c, k, w, r - 3, s - 3))
    return AmalgamSpec(cusp_name, knot, tuple(gluings))
