"""The verification runner: every machine-checkable claim behind the cusp
classification, as a deterministic pass/fail report.

Each check either certifies a group-theoretic fact (status pass/fail) or
records an externally proved step the verdicts depend on (status cited).
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import knotcusp as kc
from .cosetenum import CosetLimitError, todd_coxeter
from .exactgeom import QuadNum, Vec2, rotation_matrix, vec
from .fixtures import load_fixture
from .fpgroup import AbelianGroup, Presentation, abelianization, sign_homs
from .lattice import (Lattice2, QuadInt, Ring, is_rotationally_rhombic,
                      rigid_abelian_index, standard_ring_lattice,
                      sublattice_index, symmetry_order)
from .presfile import render_word
from .wallpaper import (MODEL_NAMES, SIGNATURES, Linear, _mmul, classify,
                        euler_characteristic, model, orientation_double_cover,
                        sign_kernel, whole_group)

AMALGAM_SAMPLES = 100


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    kind: str  # "machine" | "cited"
    fn: Callable[[int], tuple[bool, str]] | None = None


@dataclass(frozen=True)
class CheckOutcome:
    id: str
    anchor: str
    status: str  # pass | fail | cited
    detail: str
    wall_time_ms: float


@dataclass(frozen=True)
class Report:
    seed: int
    outcomes: tuple[CheckOutcome, ...]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "fail")

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pass")

    @property
    def cited(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cited")


def _expect(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


# -- individual checks -------------------------------------------------------


def _check_rep(name: str, images: tuple[Vec2, Vec2], summary: str) -> tuple[bool, str]:
    """The model's translation words translate by the expected vectors.
    `ModelGroup.validate` proved, when `model` built the model, that its
    relators act trivially and that these images are translations."""
    group = model(name)
    fails: list[str] = []
    for w, got, v in zip(group.translation_words, group.translation_images(), images):
        _expect(got == v, f"{render_word(w, group.presentation)} translates by {got}", fails)
    return not fails, "; ".join(fails) or summary


def _check_rep_236(seed: int) -> tuple[bool, str]:
    half = Fraction(1, 2)
    return _check_rep(
        "p6", (vec(half, QuadNum(0, half)), vec(1, 0)),
        "a^6 = b^3 = (ab)^2 = 1 exactly; b a^-2 -> (x+1/2, y+rt3/2); b^-1 a^2 -> (x+1, y)")


def _check_rep_244(seed: int) -> tuple[bool, str]:
    return _check_rep(
        "p4", (vec(1, 0), vec(0, 1)),
        "c^4 = d^2 = (cd)^4 = 1 exactly; c^2 d^-1 -> (x+1, y); c d^-1 c -> (x, y+1)")


def _check_rigid_index(seed: int) -> tuple[bool, str]:
    fails: list[str] = []
    p6 = model("p6")
    p4 = model("p4")
    i6 = todd_coxeter(p6.presentation, p6.translation_words).index
    i4 = todd_coxeter(p4.presentation, p4.translation_words).index
    _expect(i6 == 6, f"index in the 236 group is {i6}", fails)
    _expect(i4 == 4, f"index in the 244 group is {i4}", fails)
    _expect(rigid_abelian_index("S2(2,3,6)", QuadInt(1, 0, Ring.ROOT_MINUS3)) == i6,
            "norm-form index disagrees for the 236 group", fails)
    _expect(rigid_abelian_index("S2(2,4,4)", QuadInt(1, 0, Ring.GAUSSIAN)) == i4,
            "norm-form index disagrees for the 244 group", fails)
    _expect(rigid_abelian_index("S2(3,3,3)", QuadInt(1, 1, Ring.ROOT_MINUS3)) == 12,
            "333 norm-form index at 1+rt-3 is not 12", fails)
    return not fails, "; ".join(fails) or \
        ("coset enumeration gives indices 6 and 4, matching 6*(n1^2+3n2^2) and "
         "4*(n1^2+n2^2) at z=1 (hexagonal form taken on Z[rt-3], not the maximal order)")


def _sample_amalgams(cusp: str, certify: Callable[[Presentation], object],
                     seed: int) -> None:
    """Run the certificate on AMALGAM_SAMPLES seeded random amalgams with the
    given cusp model; a failure names the sample it happened on."""
    rng = random.Random(seed)
    for i in range(AMALGAM_SAMPLES):
        spec = kc.random_amalgam(rng, cusp)
        try:
            certify(kc.build_amalgam(spec))
        except kc.TheoremCheckError as exc:
            raise kc.TheoremCheckError(f"random amalgam #{i}: {exc}") from exc


def _check_collapse_236(seed: int) -> tuple[bool, str]:
    kc.collapse_236(model("p6").presentation)
    kc.collapse_236(kc._minimal_amalgam("p6"))
    _sample_amalgams("p6", kc.collapse_236, seed)
    return True, (f"order-2 collapse certified for the bare group, the minimal "
                  f"amalgam, and {AMALGAM_SAMPLES} random amalgams (seed {seed})")


def _check_double_cover_236(seed: int) -> tuple[bool, str]:
    kc._double_cover_cusp("p6", {"a": -1}, "p3")
    return True, "kernel of a -> -1 has index 2, contains both translations, cusp S2(3,3,3)"


def _check_h_map_244(seed: int) -> tuple[bool, str]:
    kc.h_map_244(model("p4").presentation)
    kc.double_cover_cusp_244()  # raises unless the cover's cusp is S2(2,2,2,2)
    _sample_amalgams("p4", kc.h_map_244, seed + 1)
    return True, (f"|quotient by d, c^2| = 2; kernel cusp S2(2,2,2,2); sign map valid "
                  f"on {AMALGAM_SAMPLES} random amalgams (seed {seed + 1})")


def _check_census(seed: int) -> tuple[bool, str]:
    gamma = load_fixture("tetrahedral")
    fails: list[str] = []
    ab = abelianization(gamma)
    _expect(ab == AbelianGroup(0, (2, 2)), f"abelianization {ab}", fails)
    homs = sign_homs(gamma)
    _expect(len(homs) == 3, f"{len(homs)} sign maps", fails)
    p6m = model("p6m")
    kinds = []
    for hom in homs:
        restricted = {name: hom.sign_of(name) for name in p6m.presentation.generators}
        kinds.append(classify(sign_kernel(p6m, restricted)).names.thurston)
    _expect(sorted(kinds) == ["D2(3;3)", "D2(;3,3,3)", "S2(2,3,6)"],
            f"kernel cusps {sorted(kinds)}", fails)
    return not fails, "; ".join(fails) or \
        ("abelianization Z/2 x Z/2; exactly 3 sign maps; their kernels have cusps "
         "S2(2,3,6), D2(;3,3,3), D2(3;3)")


_COVER_EXPECTATION = [
    ("p4m", "p4"), ("p4g", "p4"), ("pg", "p1"), ("pgg", "p2"),
    ("p6m", "p6"), ("p3m1", "p3"), ("p31m", "p3"),
]


def _check_orientation_covers(seed: int) -> tuple[bool, str]:
    """Every target is orientable, and `classify` names an orientable type
    only when no class reverses orientation, so the signature certifies it."""
    fails: list[str] = []
    for name, target in _COVER_EXPECTATION:
        _, sig = orientation_double_cover(model(name))
        _expect(sig == SIGNATURES[target],
                f"{name} double cover is {sig}, expected {SIGNATURES[target]}", fails)
    return not fails, "; ".join(fails) or \
        "p4m, p4g -> S2(2,4,4); pg -> T2; pgg -> S2(2,2,2,2); p6m -> S2(2,3,6); p3m1, p31m -> S2(3,3,3)"


def _check_verdicts(seed: int) -> tuple[bool, str]:
    fails: list[str] = []
    table = kc.verdict_table()
    realizable = [v for v in table if v.status == "realizable"]
    excluded = [v for v in table if v.status == "excluded"]
    _expect(len(realizable) == 9 and len(excluded) == 8,
            f"{len(realizable)} realizable / {len(excluded)} excluded", fails)
    for v in table:
        has4 = 4 in v.signature.cone_orders or 4 in v.signature.corner_orders
        if v.reason == "four_torsion":
            _expect(has4, f"{v.signature} excluded for 4-torsion without any", fails)
        if v.status == "realizable":
            _expect(not has4, f"{v.signature} realizable despite 4-torsion", fails)
    # the supporting machine facts behind the exclusions, as `verdict` records
    # them; the 2,4,4 certificates run once for the three 4-torsion types
    certificates = kc._four_torsion_certificates()
    for v in excluded:
        cryst = v.signature.names.crystallographic
        checks = (kc._four_torsion_checks(cryst, certificates) if v.reason == "four_torsion"
                  else kc._reflection_checks(cryst))
        _expect(all(c.passed for c in checks),
                f"supporting checks failed for {v.signature}", fails)
    return not fails, "; ".join(fails) or \
        ("9 realizable / 8 excluded; the three 4-torsion types are excluded with "
         "machine-checked double-cover facts; the five reflection types have "
         "peripheral orders in {2}")


def _check_roundtrip(seed: int) -> tuple[bool, str]:
    fails: list[str] = []
    for name in MODEL_NAMES:
        # the handle checks its index identity before classify returns
        sig = classify(whole_group(model(name)))
        _expect(sig == SIGNATURES[name], f"{name} classifies to {sig}", fails)
        chi = euler_characteristic(sig)
        _expect(chi == 0, f"chi({name}) = {chi}", fails)
    return not fails, "; ".join(fails) or \
        "all 17 models classify to their own signatures; chi = 0; index identity holds"


def _image(m: Linear, v: tuple[int, int]) -> tuple[int, int]:
    """m v for the integer matrix m = [[a, b], [c, d]] given as (a, b, c, d)."""
    return m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]


def _check_lattice_identities(seed: int) -> tuple[bool, str]:
    fails: list[str] = []
    rng = random.Random(seed + 2)
    square = standard_ring_lattice(Ring.GAUSSIAN)
    hexagonal = Lattice2(vec(1, 0), vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
    # r4 and r3 as integer matrices on the coordinates of the lattices they
    # keep: r4^2 = -I and I + r3 + r3^2 = 0 there prove, by linearity, the
    # identities on every lattice vector; the samples are instances of them
    r4 = square.integer_matrix(rotation_matrix(4))
    r3 = hexagonal.integer_matrix(rotation_matrix(3))
    order4 = _mmul(r4, r4) == (-1, 0, 0, -1)
    order3 = _mmul(r3, r3) == (-1 - r3[0], -r3[1], -r3[2], -1 - r3[3])
    for _ in range(100):
        v = rng.randint(-9, 9), rng.randint(-9, 9)
        w = _image(r3, v)
        order4 = order4 and _image(r4, _image(r4, v)) == (-v[0], -v[1])
        order3 = order3 and _image(r3, w) == (-v[0] - w[0], -v[1] - w[1])
    _expect(order4, "order-4 identity r^2 v = -v fails", fails)
    _expect(order3, "order-3 identity v + rv + r^2 v = 0 fails", fails)
    indexed = 0
    while indexed < 100:
        ring = rng.choice([Ring.GAUSSIAN, Ring.ROOT_MINUS3])
        z = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9), ring)
        if not z.is_zero():  # sublattice_index refuses 0, so a zero is drawn again
            sublattice_index(z)  # returns only once the determinant ratio is the norm
            indexed += 1
    _expect(symmetry_order(square) == 4 and is_rotationally_rhombic(square),
            "square lattice verdict wrong", fails)
    _expect(symmetry_order(hexagonal) == 6 and is_rotationally_rhombic(hexagonal),
            "hexagonal lattice verdict wrong", fails)
    rect = Lattice2(vec(2, 0), vec(0, 1))
    _expect(symmetry_order(rect) == 2 and not is_rotationally_rhombic(rect),
            "rectangular lattice verdict wrong", fails)
    return not fails, "; ".join(fails) or \
        ("order-4 and order-3 rotation identities hold on 100 lattice vectors each; "
         "norm-form index = determinant ratio on 100 random multipliers; "
         "square/hexagonal/rectangular verdicts correct")


def _check_degree_metadata(seed: int) -> tuple[bool, str]:
    fails: list[str] = []
    v = kc.verdict("S2(2,3,6)", run_checks=False)
    _expect(v.degree_allowed(24), "degree 24 rejected", fails)
    _expect(v.degree_allowed(48), "degree 48 rejected", fails)
    _expect(not v.degree_allowed(12), "degree 12 wrongly allowed", fails)
    notes = dict(v.notes)
    _expect("figure-eight 24" in notes.get("witness_degrees", ""),
            "figure-eight witness degree missing", fails)
    _expect("dodecahedral 120" in notes.get("witness_degrees", ""),
            "dodecahedral witness degree missing", fails)
    return not fails, "; ".join(fails) or \
        "S2(2,3,6) verdicts carry degree = 0 mod 24 (12 rejected); witness degrees 24 and 120 recorded"


CHECKS: tuple[Check, ...] = (
    Check("rep-236", "2,3,6 cusp group: relators act trivially; translation pair "
          "maps to (x+1/2, y+rt3/2) and (x+1, y)", "machine", _check_rep_236),
    Check("rep-244", "2,4,4 cusp group: relators act trivially; translation pair "
          "maps to (x+1, y) and (x, y+1)", "machine", _check_rep_244),
    Check("rigid-index", "translations have index 6 resp. 4 in the rigid cusp "
          "groups, matching the norm-form indices", "machine", _check_rigid_index),
    Check("collapse-236", "every 2,3,6-cusped amalgam collapses to exactly 2 "
          "elements after killing b and all parabolic words", "machine",
          _check_collapse_236),
    Check("double-cover-236", "the index-2 kernel of the 2,3,6 sign map is an "
          "S2(3,3,3) group containing both translations", "machine",
          _check_double_cover_236),
    Check("h-map-244", "killing d and c^2 defines a sign map; the double cover "
          "has an S2(2,2,2,2) cusp with no 4-torsion", "machine", _check_h_map_244),
    Check("census-tetrahedral", "the tetrahedral reflection group abelianizes to "
          "Z/2 x Z/2 and its three index-2 subgroups have cusps S2(2,3,6), "
          "D2(;3,3,3), D2(3;3)", "machine", _check_census),
    Check("orientation-covers", "orientation double covers of the reflection "
          "models land on the expected orientable cusps", "machine",
          _check_orientation_covers),
    Check("verdict-table", "9 realizable and 8 excluded cusp types with "
          "consistent reasons and supporting facts", "machine", _check_verdicts),
    Check("classifier-roundtrip", "all 17 models classify to their own "
          "signatures; Euler characteristic 0; index identity", "machine",
          _check_roundtrip),
    Check("lattice-identities", "rotation identities on lattice vectors; "
          "norm-form sublattice indices; rhombic verdicts", "machine",
          _check_lattice_identities),
    Check("degree-metadata", "covering-degree congruence mod 24 with witness "
          "degrees 24 and 120", "machine", _check_degree_metadata),
    Check("cited-normal-closure", "meridian normal closures / regularity of the "
          "relevant covers rest on an external result; recorded as an assumption",
          "cited"),
    Check("cited-ab-upgrade", "upgrading the certified order-2 surjection to an "
          "abelianization isomorphism rests on an external result", "cited"),
    Check("cited-singular-set", "the 3-dimensional singular-set case analysis "
          "behind the verdicts is external; verdicts inherit it as an assumption",
          "cited"),
)

CHECK_IDS = tuple(c.id for c in CHECKS)


def selected_checks(selection: list[str] | None) -> list[Check]:
    """The checks a selection names, in declared order (every one for None);
    an empty selection, or one naming an unknown id, raises KeyError."""
    if selection is None:
        return list(CHECKS)
    unknown = [s for s in selection if s not in CHECK_IDS]
    if unknown or not selection:
        what = f"unknown check ids: {unknown}" if unknown else "no check ids given"
        raise KeyError(f"{what}; available: {', '.join(CHECK_IDS)}")
    return [c for c in CHECKS if c.id in selection]


def run_verification(selection: list[str] | None = None, seed: int = 0) -> Report:
    """Run the selected checks (`selected_checks`); deterministic given the seed."""
    chosen = selected_checks(selection)
    outcomes = []
    for check in chosen:
        start = time.perf_counter()
        if check.kind == "cited":
            status, detail = "cited", "recorded assumption; not machine-checked"
        else:
            try:
                ok, detail = check.fn(seed)  # type: ignore[misc]
                status = "pass" if ok else "fail"
            except CosetLimitError:
                raise  # resource exhaustion aborts the run (exit code 3)
            except Exception as exc:  # any other crash is a failure, not an abort
                status, detail = "fail", f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * 1000.0
        outcomes.append(CheckOutcome(check.id, check.anchor, status, detail, elapsed))
    return Report(seed, tuple(outcomes))


def report_text(report: Report) -> str:
    lines = []
    for o in report.outcomes:
        lines.append(f"{o.status.upper():5s} {o.id:22s} [{o.wall_time_ms:8.1f} ms] {o.detail}")
    lines.append(f"summary: {report.passed} pass, {report.failed} fail, "
                 f"{report.cited} cited (seed {report.seed})")
    return "\n".join(lines)


def report_json(report: Report, include_timings: bool = False) -> str:
    payload = {
        "seed": report.seed,
        "checks": [
            {
                "id": o.id,
                "anchor": o.anchor,
                "status": o.status,
                "detail": o.detail,
                "wall_time_ms": round(o.wall_time_ms, 3) if include_timings else None,
            }
            for o in report.outcomes
        ],
        "summary": {
            "pass": report.passed,
            "fail": report.failed,
            "cited": report.cited,
            "total": len(report.outcomes),
        },
    }
    return json.dumps(payload, indent=2)
