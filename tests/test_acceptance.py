"""Acceptance suite: the headline group-theoretic facts, one test per
criterion, all at exact tolerance.  Each test prints its own pass line so the
suite reads as a checklist under `pytest -s` or `-v`.
"""
import random
from fractions import Fraction

from orbiforge import knotcusp as kc
from orbiforge.cosetenum import todd_coxeter
from orbiforge.exactgeom import QuadNum, Translation, classify_isometry, vec
from orbiforge.fixtures import load_fixture
from orbiforge.fpgroup import (AbelianGroup, Word, abelianization, quotient,
                               sign_homs)
from orbiforge.lattice import (Lattice2, QuadInt, Ring,
                               is_rotationally_rhombic, multiplication_matrix,
                               rigid_abelian_index, standard_ring_lattice,
                               sublattice_index, symmetry_order)
from orbiforge.exactgeom import rotation_matrix
from orbiforge.wallpaper import (MODEL_NAMES, SIGNATURES, classify,
                                 euler_characteristic, model,
                                 orientation_double_cover, sign_kernel,
                                 whole_group)
from oracle import index_in

SEED = 0
SAMPLES = 100


def _done(label: str) -> None:
    print(f"criterion {label}: PASS")


def test_criterion_01_representation_236():
    p6 = model("p6")
    for rel in p6.presentation.relators:
        assert p6.evaluate(rel).is_identity()
    t1, t2 = (classify_isometry(p6.evaluate(w)) for w in p6.translation_words)
    assert t1 == Translation(vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
    assert t2 == Translation(vec(1, 0))
    _done("01 representation-236")


def test_criterion_02_representation_244():
    p4 = model("p4")
    for rel in p4.presentation.relators:
        assert p4.evaluate(rel).is_identity()
    t1, t2 = (classify_isometry(p4.evaluate(w)) for w in p4.translation_words)
    assert t1 == Translation(vec(1, 0))
    assert t2 == Translation(vec(0, 1))
    _done("02 representation-244")


def test_criterion_03_translation_indices():
    p6, p4 = model("p6"), model("p4")
    assert todd_coxeter(p6.presentation, p6.translation_words).index == 6
    assert todd_coxeter(p4.presentation, p4.translation_words).index == 4
    assert rigid_abelian_index("S2(2,3,6)", QuadInt(1, 0, Ring.ROOT_MINUS3)) == 6
    assert rigid_abelian_index("S2(2,4,4)", QuadInt(1, 0, Ring.GAUSSIAN)) == 4
    _done("03 translation-indices")


def test_criterion_04_collapse_order_two():
    p6 = model("p6")
    t1, t2 = p6.translation_words
    bare = quotient(p6.presentation, [t1, t2, Word((2,))])
    assert todd_coxeter(bare, ()).index == 2
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        spec = kc.random_amalgam(rng, "p6")
        assert kc.collapse_236(kc.build_amalgam(spec)).order == 2
    _done(f"04 collapse-order-2 ({SAMPLES} random amalgams, seed {SEED})")


def test_criterion_05_double_cover_236():
    p6 = model("p6")
    handle = sign_kernel(p6, {"a": -1})
    assert classify(handle) == SIGNATURES["p3"]
    for w in p6.translation_words:
        assert handle.table.contains(w)
    _done("05 double-cover-236")


def test_criterion_06_h_map_244():
    p4 = model("p4")
    bare = quotient(p4.presentation, [Word((2,)), Word((1, 1))])
    assert todd_coxeter(bare, ()).index == 2
    assert classify(sign_kernel(p4, {"c": -1})) == SIGNATURES["p2"]
    rng = random.Random(SEED + 1)
    for _ in range(SAMPLES):
        spec = kc.random_amalgam(rng, "p4")
        hom, ab = kc.h_map_244(kc.build_amalgam(spec))
        assert hom.holds() and ab == AbelianGroup(0, (2,))
    _done(f"06 h-map-244 ({SAMPLES} random amalgams, seed {SEED + 1})")


def test_criterion_07_tetrahedral_census():
    gamma = load_fixture("tetrahedral")
    assert abelianization(gamma) == AbelianGroup(0, (2, 2))
    homs = sign_homs(gamma)
    assert len(homs) == 3
    p6m = model("p6m")
    kinds = []
    for hom in homs:
        restricted = {name: hom.sign_of(name) for name in ("a", "b", "c")}
        kinds.append(classify(sign_kernel(p6m, restricted)).names.thurston)
    assert sorted(kinds) == ["D2(3;3)", "D2(;3,3,3)", "S2(2,3,6)"]
    _done("07 tetrahedral-census")


def test_criterion_08_orientation_double_covers():
    expected = [("p4m", "p4"), ("p4g", "p4"), ("pg", "p1"), ("pgg", "p2"),
                ("p6m", "p6"), ("p3m1", "p3"), ("p31m", "p3")]
    for name, target in expected:
        _, sig = orientation_double_cover(model(name))
        assert sig == SIGNATURES[target], name
    _done("08 orientation-double-covers")


def test_criterion_09_verdict_table():
    table = kc.verdict_table()
    assert len(table) == 17
    realizable = {v.signature.names.thurston for v in table if v.status == "realizable"}
    excluded_4 = {v.signature.names.thurston for v in table
                  if v.reason == "four_torsion"}
    excluded_r = {v.signature.names.thurston for v in table
                  if v.reason == "reflection_symmetry"}
    assert realizable == {"T2", "S2(2,2,2,2)", "S2(2,3,6)", "S2(3,3,3)", "K2",
                          "RP2(2,2)", "D2(;2,3,6)", "D2(;3,3,3)", "D2(3;3)"}
    assert excluded_4 == {"S2(2,4,4)", "D2(;2,4,4)", "D2(4;2)"}
    assert excluded_r == {"D2(;2,2,2,2)", "D2(2;2,2)", "D2(2,2;R)", "T_R", "K_R"}
    for v in table:
        has4 = 4 in v.signature.cone_orders or 4 in v.signature.corner_orders
        assert (v.reason == "four_torsion") == (v.status == "excluded" and has4)
        if v.reason == "reflection_symmetry":
            profile = kc.peripheral_order_profile(
                model(v.signature.names.crystallographic))
            assert profile <= {2}
    _done("09 verdict-table (9 realizable / 8 excluded)")


def test_criterion_10_classifier_roundtrip():
    for name in MODEL_NAMES:
        m = model(name)
        handle = whole_group(m)
        assert classify(handle) == SIGNATURES[name]
        assert euler_characteristic(SIGNATURES[name]) == 0
        assert handle.index * len(handle.point_group) == \
            handle.lattice_index * len(m.point_group)
    for name, signs in [("p6", {"a": -1}), ("p4", {"c": -1}),
                        ("p6m", {"a": -1}), ("p6m", {"a": -1, "b": -1, "c": -1})]:
        handle = sign_kernel(model(name), signs)
        classify(handle)
        assert handle.index * len(handle.point_group) == \
            handle.lattice_index * len(handle.model.point_group)
    _done("10 classifier-roundtrip")


def test_criterion_11_lattice_identities():
    rng = random.Random(SEED + 2)
    square = standard_ring_lattice(Ring.GAUSSIAN)
    hexagonal = Lattice2(vec(1, 0), vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
    r4, r3 = rotation_matrix(4), rotation_matrix(3)
    for _ in range(SAMPLES):
        v = square.b1.scale(rng.randint(-9, 9)) + square.b2.scale(rng.randint(-9, 9))
        assert r4 * (r4 * v) == -v
        w = hexagonal.b1.scale(rng.randint(-9, 9)) + hexagonal.b2.scale(rng.randint(-9, 9))
        assert (w + r3 * w + r3 * (r3 * w)).is_zero()
    count = 0
    while count < SAMPLES:
        ring = rng.choice([Ring.GAUSSIAN, Ring.ROOT_MINUS3])
        z = QuadInt(rng.randint(-9, 9), rng.randint(-9, 9), ring)
        if z.is_zero():
            continue
        base = standard_ring_lattice(ring)
        m = multiplication_matrix(z)
        assert index_in(Lattice2(m * base.b1, m * base.b2), base) == sublattice_index(z)
        count += 1
    assert symmetry_order(square) == 4 and is_rotationally_rhombic(square)
    assert symmetry_order(hexagonal) == 6 and is_rotationally_rhombic(hexagonal)
    rect = Lattice2(vec(2, 0), vec(0, 1))
    assert symmetry_order(rect) == 2 and not is_rotationally_rhombic(rect)
    _done("11 lattice-identities")


def test_criterion_12_degree_metadata():
    v = kc.verdict("S2(2,3,6)", run_checks=False)
    assert v.degree_allowed(24)
    assert not v.degree_allowed(12)
    notes = dict(v.notes)
    assert notes["degree_multiple"] == "24"
    assert "figure-eight 24" in notes["witness_degrees"]
    assert "dodecahedral 120" in notes["witness_degrees"]
    _done("12 degree-metadata")
