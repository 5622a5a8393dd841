"""The theorem engine: peripheral amalgam presentations, the order-2
collapse certificates, double-cover cusp computations, the peripheral-order
predicate, and the realizable/excluded verdict for all seventeen Euclidean
2-orbifold cusp types.

Machine-checked facts are group-theoretic (certified by coset enumeration and
the wallpaper classifier); the three-dimensional steps they feed into are
recorded as cited assumptions in the verdict checks, never re-proved here.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .cosetenum import todd_coxeter
from .fpgroup import (AbelianGroup, Presentation, SignHom, Word, _presentation,
                      _reduce_valid, _reduced_word, abelianization, quotient,
                      tietze_pass)
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


@dataclass(frozen=True)
class AmalgamSpec:
    cusp_model: str                      # "p6" or "p4"
    knot_presentation: Presentation
    gluings: tuple[GluingDatum, ...]

    def validate(self) -> None:
        if self.cusp_model not in ("p6", "p4"):
            raise AmalgamError(f"cusp model must be p6 or p4, not {self.cusp_model!r}")
        cusp = model(self.cusp_model).presentation
        pairs = {(g.peripheral_generator, g.knot_generator) for g in self.gluings}
        wanted = {(c, k) for c in cusp.generators
                  for k in self.knot_presentation.generators}
        if pairs != wanted or len(pairs) != len(self.gluings):
            raise AmalgamError("need exactly one gluing per "
                               "(cusp generator, knot generator) pair")
        for g in self.gluings:
            for exponent in (g.r, g.s):
                if not isinstance(exponent, int) or isinstance(exponent, bool):
                    raise AmalgamError(
                        f"gluing exponents r and s must be ints, not {exponent!r}")
            if g.conjugator.max_index() > self.knot_presentation.ngens:
                raise AmalgamError("conjugator uses an unknown knot generator")
        ab = abelianization(self.knot_presentation)
        if ab != AbelianGroup(1):
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
    `AmalgamSpec.validate` checks the conjugators and the exponents, and the
    other letters come from `gen_index`."""
    spec.validate()
    cusp = model(spec.cusp_model)
    cp = cusp.presentation
    knot = spec.knot_presentation
    offset = cp.ngens
    gens = cp.generators + knot.generators
    if len(set(gens)) != len(gens):
        raise AmalgamError("knot generator names collide with cusp generators")
    relators = list(cp.relators)
    relators += [w.shift(offset) for w in knot.relators]
    t1, t2 = (t.letters for t in cusp.translation_words)
    t1_inv, t2_inv = (t.inverse().letters for t in cusp.translation_words)
    for g in spec.gluings:
        gi = cp.gen_index(g.peripheral_generator)
        mu = knot.gen_index(g.knot_generator) + offset
        w = tuple(x + offset if x > 0 else x - offset for x in g.conjugator.letters)
        w_inv = tuple(-x for x in reversed(w))
        relators.append(_reduced_word(_reduce_valid(
            (gi, mu, -gi) + w
            + (t2 * -g.s if g.s < 0 else t2_inv * g.s)
            + (t1 * -g.r if g.r < 0 else t1_inv * g.r) + w_inv)))
    return _presentation(f"amalgam[{spec.cusp_model}+{knot.name}]",
                         gens, tuple(relators))


def _knot_letters(p: Presentation, cusp_ngens: int) -> list[Word]:
    return [Word((i,)) for i in range(cusp_ngens + 1, p.ngens + 1)]


@dataclass(frozen=True)
class CollapseResult:
    order: int
    abelian: AbelianGroup


def _certify_order_two(p: Presentation, extras: list[Word], name: str) -> AbelianGroup:
    """Certify by coset enumeration that p modulo the normal closure of the
    extras has order exactly 2; returns its abelianization, checked to be Z/2.
    Both are computed after `fpgroup.tietze_pass`, the pass Reidemeister-
    Schreier also uses, which presents the same group on fewer generators:
    each single-letter extra (b, d, a meridian) deletes its generator."""
    q, _ = tietze_pass(quotient(p, extras, name=name))
    order = todd_coxeter(q).index
    ab = abelianization(q)
    if order != 2 or ab != AbelianGroup(0, (2,)):
        raise TheoremCheckError(
            f"quotient {name} has order {order} and abelianization {ab}, "
            "not order 2 with abelianization Z/2")
    return ab


def collapse_236(p: Presentation) -> CollapseResult:
    """Quotient of a p6-cusped amalgam by b, both cusp translations, and all
    meridians; certifies by coset enumeration that the quotient has order
    exactly 2 with abelianization Z/2."""
    cusp = model("p6")
    t1, t2 = cusp.translation_words
    b = Word((cusp.presentation.gen_index("b"),))
    extras = [b, t1, t2] + _knot_letters(p, cusp.presentation.ngens)
    ab = _certify_order_two(p, extras, f"{p.name}.collapse")
    return CollapseResult(2, ab)


def h_map_244(p: Presentation) -> tuple[SignHom, AbelianGroup]:
    """The sign map killing d and c^2 on a p4-cusped amalgam.

    Verifies that c |-> -1, d |-> +1, mu_j |-> +1 satisfies every relator, and
    that the quotient by d, c^2, the meridians and both cusp translations has
    order exactly 2."""
    cusp = model("p4")
    cp = cusp.presentation
    signs = [1] * p.ngens
    signs[cp.gen_index("c") - 1] = -1
    hom = SignHom(p, tuple(signs))
    if not hom.holds():
        raise TheoremCheckError("sign map killing d and c^2 violates a relator")
    c = Word((cp.gen_index("c"),))
    d = Word((cp.gen_index("d"),))
    t1, t2 = cusp.translation_words
    extras = [d, c * c, t1, t2] + _knot_letters(p, cp.ngens)
    return hom, _certify_order_two(p, extras, f"{p.name}.h")


def _double_cover_cusp(cusp_name: str, signs: dict[str, int],
                       expected: str) -> OrbifoldSignature:
    """Cusp cross-section of the double cover cut out by a sign map on a cusp
    group: its kernel must hold both cusp translations, have index 2, and
    classify to the expected model's signature."""
    group = model(cusp_name)
    handle = sign_kernel(group, signs)
    if not all(handle.table.contains(t) for t in group.translation_words):
        raise TheoremCheckError("cusp translations missing from the double cover")
    if handle.index != 2:
        raise TheoremCheckError(f"double cover has index {handle.index}, not 2")
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
    checks = []
    sig244 = SIGNATURES["p4"]
    if cryst != "p4":
        _, cover = orientation_double_cover(model(cryst))
        checks.append(CheckRecord(
            "orientation-double-cover",
            cover == sig244,
            f"orientation double cover of {cryst} has cusp {cover}"))
    checks.append(_certificate_check(
        "h-map-order-2", lambda: h_map_244(_minimal_amalgam("p4")),
        "killing d, c^2, meridians and translations leaves exactly 2 elements"))
    checks.append(_certificate_check(
        "double-cover-cusp", double_cover_cusp_244,
        "the resulting double cover has cusp {} (no 4-torsion)"))
    return tuple(checks)


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


def random_knot_presentation(rng: random.Random) -> Presentation:
    """Meridian-style presentation: each extra generator is a conjugate of an
    earlier one, so the abelianization is Z."""
    n = rng.randint(1, 3)
    gens = tuple(f"mu{i + 1}" for i in range(n))
    relators = []
    for i in range(2, n + 1):
        j = rng.randint(1, i - 1)
        w = Word(tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                       for _ in range(rng.randint(0, 6))))
        relators.append(Word((i,)) * (w * Word((j,)) * w.inverse()).inverse())
    return Presentation(f"knot{n}", gens, tuple(relators))


def random_amalgam(rng: random.Random, cusp_name: str) -> AmalgamSpec:
    knot = random_knot_presentation(rng)
    cusp = model(cusp_name).presentation
    gluings = []
    for c in cusp.generators:
        for k in knot.generators:
            w = Word(tuple(rng.choice([-1, 1]) * rng.randint(1, knot.ngens)
                           for _ in range(rng.randint(0, 6))))
            gluings.append(GluingDatum(
                c, k, w, rng.randint(-3, 3), rng.randint(-3, 3)))
    return AmalgamSpec(cusp_name, knot, tuple(gluings))
