"""Model groups, classification, lattices, covers, Euler characteristics."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from orbiforge import wallpaper
from orbiforge.cosetenum import InvariantError
from orbiforge.exactgeom import QuadNum, Translation, classify_isometry, vec
from orbiforge.fpgroup import Presentation, PresentationError, Word, sign_homs
from orbiforge.lattice import InvalidLatticeError
from orbiforge.verify import _COVER_EXPECTATION
from orbiforge.wallpaper import (MODEL_NAMES, Names, OrbifoldSignature,
                                 SIGNATURES, SubgroupHandle, UnknownModelError,
                                 UnknownSignatureError, classify,
                                 crystallographic_name, euler_characteristic,
                                 model, orientation_double_cover, sign_kernel,
                                 signature_by_name, subgroup,
                                 translation_lattice, whole_group)
from oracle import index_in


class TestModels:
    def test_all_models_validate(self):
        for name in MODEL_NAMES:
            model(name).validate()

    @pytest.mark.parametrize("name, words", [("p6", ((1,), (2, -1, -1))),
                                             ("pg", ((2,), (1,))),
                                             ("p4m", ((1,), (2, 3, 2, 1)))])
    def test_translation_words_must_be_translations(self, name, words):
        # a rotation of p6, the glide of pg, a mirror of p4m
        fake = replace(model(name), translation_words=tuple(map(Word, words)))
        with pytest.raises(InvariantError, match="^translation word image is not a translation$"):
            fake.validate()

    @pytest.mark.parametrize("name", ["p1", "p6", "cmm"])
    def test_translation_words_must_be_independent(self, name):
        # the lattice refuses dependent images, the zero translation among them
        t1, t2 = model(name).translation_words
        for words in ((t1, t1), (t2, t2.inverse()), (t1 ** 2, t1 ** -3),
                      (t1 * t2 * t1.inverse() * t2.inverse(), t2)):
            fake = replace(model(name), translation_words=words)
            with pytest.raises(InvalidLatticeError, match="^degenerate basis "):
                fake.validate()

    @pytest.mark.parametrize("name, extra, spelled", [("p1", (1,), "t"),
                                                      ("p6", (1, 1, 1), "a a a"),
                                                      ("pm", (1, 2), "s z")])
    def test_relators_must_act_trivially(self, name, extra, spelled):
        # a translation of p1, a rotation of p6 and a translation of pm made
        # of two mirrors, each added as a relator, move the plane
        m = model(name)
        pres = m.presentation
        bad = Presentation(pres.name, pres.generators, pres.relators + (Word(extra),))
        with pytest.raises(InvariantError,
                           match=f"^relator {spelled} does not act trivially in model {name}$"):
            replace(m, presentation=bad).validate()

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_relators_act_trivially_on_the_cartesian_isometries(self, name):
        # validate reads the relators on the integer kernel; evaluating them
        # as Q(sqrt3) isometries stays the oracle
        m = model(name)
        assert all(m.evaluate(r).is_identity() for r in m.presentation.relators)

    def test_p6_matches_required_images(self):
        p6 = model("p6")
        t1, t2 = (classify_isometry(p6.evaluate(w)) for w in p6.translation_words)
        assert t1 == Translation(vec(Fraction(1, 2), QuadNum(0, Fraction(1, 2))))
        assert t2 == Translation(vec(1, 0))

    def test_p4_matches_required_images(self):
        p4 = model("p4")
        t1, t2 = (classify_isometry(p4.evaluate(w)) for w in p4.translation_words)
        assert t1 == Translation(vec(1, 0))
        assert t2 == Translation(vec(0, 1))

    def test_p1_shape(self):
        p1 = model("p1")
        assert p1.presentation.ngens == 2
        assert all(iso.linear.is_identity() for iso in p1.rep)
        assert p1.signature == SIGNATURES["p1"]

    def test_aliases(self):
        assert model("S2(2,3,6)") .presentation.name == "p6"
        assert model("d2(3;3)").presentation.name == "p31m"
        assert model("T_R").presentation.name == "pm"
        assert model("k_r").presentation.name == "cm"
        assert crystallographic_name("*632") == "p6m"
        assert crystallographic_name("(2;2;)") == "pmg"  # recorded typo alias
        with pytest.raises(UnknownModelError, match="^unknown plane-group name 'p5'$"):
            model("p5")
        with pytest.raises(UnknownSignatureError,
                           match=r"^unknown 2-orbifold name 'S2\(5,5,5\)'$"):
            signature_by_name("S2(5,5,5)")

    def test_faithfulness_spot_check(self):
        # a short word acts trivially iff it traces trivially through the
        # point-group table and carries no translation
        rng = random.Random(3)
        for name in ("p6", "p4", "pgg", "p6m", "cm"):
            m = model(name)
            t_table = subgroup(m, m.translation_words).table
            n = m.presentation.ngens
            for _ in range(50):
                letters = [rng.choice([1, -1]) * rng.randint(1, n)
                           for _ in range(rng.randint(0, 8))]
                w = m.presentation.word(letters)
                iso = m.evaluate(w)
                abstractly_trivial = t_table.contains(w) and iso.trans.is_zero()
                assert iso.is_identity() == abstractly_trivial


class TestClassification:
    def test_roundtrip_all_17(self):
        for name in MODEL_NAMES:
            assert classify(whole_group(model(name))) == SIGNATURES[name]

    def test_sign_kernel_of_p6(self):
        handle = sign_kernel(model("p6"), {"a": -1})
        assert classify(handle) == SIGNATURES["p3"]

    def test_sign_kernel_of_p4(self):
        handle = sign_kernel(model("p4"), {"c": -1})
        assert classify(handle) == SIGNATURES["p2"]

    def test_three_kernels_of_p6m(self):
        p6m = model("p6m")
        homs = sign_homs(p6m.presentation)
        assert len(homs) == 3
        kinds = sorted(classify(sign_kernel(p6m, h)).names.thurston for h in homs)
        assert kinds == ["D2(3;3)", "D2(;3,3,3)", "S2(2,3,6)"]

    def test_index_identity_per_handle(self):
        handles = [whole_group(model(n)) for n in MODEL_NAMES]
        handles.append(sign_kernel(model("p6"), {"a": -1}))
        handles.append(sign_kernel(model("p4"), {"c": -1}))
        for h in handles:
            assert h.index * len(h.point_group) == \
                h.lattice_index * len(h.model.point_group)

    def test_handle_refuses_a_table_of_another_model(self):
        with pytest.raises(ValueError, match="^table does not belong to this model$"):
            SubgroupHandle(model("p4"), whole_group(model("p6")).table)

    def test_invalid_sign_assignment_rejected(self):
        with pytest.raises(ValueError, match="^sign assignment violates a relator$"):
            sign_kernel(model("p6"), {"b": -1})  # b^3 forces b -> +1

    @pytest.mark.parametrize("sign", [-1.0, 1.0, True])
    def test_signs_must_be_ints(self, sign):
        with pytest.raises(PresentationError, match=r"^signs must be \+1 or -1$"):
            sign_kernel(model("p6"), {"a": sign})


class TestPointGroupsAndLattices:
    def test_p6_point_group(self):
        pg = whole_group(model("p6")).point_group
        assert len(pg) == 6
        assert all(m.det() == QuadNum.of(1) for m in pg)

    def test_p6m_point_group(self):
        pg = whole_group(model("p6m")).point_group
        assert len(pg) == 12
        assert sum(1 for m in pg if m.det() == QuadNum.of(-1)) == 6

    def test_kernel_point_group(self):
        handle = sign_kernel(model("p6"), {"a": -1})
        assert len(handle.point_group) == 3
        assert all(m.det() == QuadNum.of(1) for m in handle.point_group)

    def test_whole_group_lattice_is_model_lattice(self):
        for name in MODEL_NAMES:
            m = model(name)
            assert index_in(translation_lattice(whole_group(m)), m.lattice()) == 1

    def test_p6_kernel_keeps_full_lattice(self):
        handle = sign_kernel(model("p6"), {"a": -1})
        assert handle.lattice_index == 1

    def test_p4_kernel_keeps_full_lattice(self):
        # oracle: both translation words have even sign under c -> -1
        p4 = model("p4")
        handle = sign_kernel(p4, {"c": -1})
        for w in p4.translation_words:
            assert handle.table.contains(w)
        assert handle.lattice_index == 1

    def test_proper_sublattice_example(self):
        # index-2 subgroup of p1 generated by t^2, u has half the lattice
        p1 = model("p1")
        handle = subgroup(p1, [Word((1, 1)), Word((2,))])
        assert handle.index == 2
        assert handle.lattice_index == 2
        assert classify(handle) == SIGNATURES["p1"]


class TestOrientationDoubleCover:
    def test_expected_covers(self):
        cases = [("p4m", "p4"), ("p4g", "p4"), ("pg", "p1"), ("pgg", "p2"),
                 ("p6m", "p6"), ("p3m1", "p3"), ("p31m", "p3"),
                 ("pm", "p1"), ("cm", "p1"), ("pmm", "p2"), ("pmg", "p2"),
                 ("cmm", "p2")]
        for name, target in cases:
            handle, sig = orientation_double_cover(model(name))
            assert sig == SIGNATURES[target], name
            assert handle.index == 2
            assert all(m.det() == QuadNum.of(1) for m in handle.point_group)

    def test_orientable_models_return_themselves(self):
        for name in ("p1", "p2", "p3", "p4", "p6"):
            handle, sig = orientation_double_cover(model(name))
            assert handle.index == 1
            assert sig == SIGNATURES[name]

    def test_translations_lift(self):
        for name in MODEL_NAMES:
            m = model(name)
            handle, _ = orientation_double_cover(m)
            for w in m.translation_words:
                assert handle.table.contains(w)

    def test_determinant_sign_map_must_hold(self):
        # pm with the extra relator s t: s reverses orientation and t keeps
        # it, so the determinant sign of s t is -1
        pm = model("pm")
        pres = pm.presentation
        bad = Presentation(pres.name, pres.generators, pres.relators + (Word((1, 3)),))
        with pytest.raises(ValueError, match="^sign assignment violates a relator$"):
            orientation_double_cover(replace(pm, presentation=bad))

    @pytest.mark.parametrize("name", ["pm", "pg", "p4m", "p6m"])
    def test_translation_words_must_lift_to_the_double_cover(self, name, monkeypatch):
        # a generator that reverses orientation, as t1, is refused before any
        # cover is built: its image is no translation, so no kernel builds
        m = model(name)
        k = next(k for k, iso in enumerate(m.rep, 1) if iso.linear.det() == QuadNum.of(-1))
        fake = replace(m, translation_words=(Word((k,)), m.translation_words[1]))
        with pytest.raises(InvariantError, match="^translation word image is not a translation$"):
            orientation_double_cover(fake)
        # a cover that misses t1 is refused even when every sign is right
        t1, t2 = m.translation_words
        monkeypatch.setattr(wallpaper, "sign_kernel", lambda m_, hom: subgroup(m, [t1 ** 2, t2]))
        with pytest.raises(InvariantError,
                           match="^translation fails to lift to the double cover$"):
            orientation_double_cover(m)

    def test_membership_is_read_from_the_lattice(self, monkeypatch):
        # a table that claims every word refuses nothing; the kernel's lattice
        # index, which the index identity ties to its table, still refuses
        # <pq, t1^2, t2^2> in p4m, a quarter-turn with half the translations
        m = model("p4m")
        t1, t2 = m.translation_words
        monkeypatch.setattr(wallpaper.CosetTable, "contains", lambda self, w: True)
        monkeypatch.setattr(wallpaper, "sign_kernel",
                            lambda m_, hom: subgroup(m, [Word((1, 2)), t1 ** 2, t2 ** 2]))
        with pytest.raises(InvariantError,
                           match="^translation fails to lift to the double cover$"):
            orientation_double_cover(m)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_kernel_signs_match_the_cartesian_determinants(self, name):
        # the signs were once read from Q(sqrt3) determinants of the
        # generator images; that reading stays the oracle for the kernel's
        m = model(name)
        signs = tuple(1 if iso.linear.det() == QuadNum.of(1) else -1 for iso in m.rep)
        assert tuple(g[0] * g[3] - g[1] * g[2] for g in m.kernel.gens) == signs
        handle, sig = orientation_double_cover(m)
        target = dict(_COVER_EXPECTATION).get(name, name if -1 not in signs else None)
        assert handle.index == (2 if -1 in signs else 1)
        assert sig.orientable
        if target is not None:
            assert sig == SIGNATURES[target]


class TestEulerCharacteristic:
    def test_all_17_are_flat(self):
        for sig in SIGNATURES.values():
            assert euler_characteristic(sig) == 0

    def test_torus(self):
        assert euler_characteristic(SIGNATURES["p1"]) == 0

    def test_236_arithmetic_identity(self):
        assert euler_characteristic(SIGNATURES["p6"]) == \
            2 - (Fraction(1, 2) + Fraction(2, 3) + Fraction(5, 6))

    def test_negative_control(self):
        hyperbolic = OrbifoldSignature(True, False, "sphere", (3, 3, 4), (),
                                       Names("S2(3,3,4)", "433", ""))
        assert euler_characteristic(hyperbolic) == Fraction(-1, 12)

    def test_unnamed_signature_prints_its_cone_orders(self):
        assert str(OrbifoldSignature(True, False, "sphere", (3, 3, 4), ())) == "sphere(3,3,4)"

    def test_signature_invariant(self):
        with pytest.raises(ValueError, match="^corner reflectors need a boundary reflector$"):
            OrbifoldSignature(False, False, "disk", (), (2, 2),
                              Names("bad", "", ""))


class TestSubgroupZoo:
    """Subgroups with known classifications beyond the sign-map kernels."""

    def test_index_two_sublattice_of_p1(self):
        p1 = model("p1")
        h = subgroup(p1, [Word((1, 1)), Word((2,))])
        assert (h.index, h.lattice_index) == (2, 2)
        assert classify(h) == SIGNATURES["p1"]

    def test_index_three_sublattice_of_p1(self):
        h = subgroup(model("p1"), [Word((1, 1, 1)), Word((2,))])
        assert (h.index, h.lattice_index) == (3, 3)
        assert classify(h) == SIGNATURES["p1"]

    def test_doubled_cell_p2(self):
        # half-turns kept, horizontal period doubled
        p2 = model("p2")
        h = subgroup(p2, [Word((1,)), Word((2, 1, 2, 1)), Word((4, 1))])
        assert h.index == 2
        assert h.lattice_index == 2
        assert classify(h) == SIGNATURES["p2"]

    def test_rotations_only_subgroup_of_p4(self):
        # dropping c to c^2 leaves the half-turn group on the same lattice
        p4 = model("p4")
        t1, t2 = p4.translation_words
        h = subgroup(p4, [Word((1, 1)), Word((2,)), t1, t2])
        assert h.index == 2
        assert classify(h) == SIGNATURES["p2"]

    def test_mirror_plus_centered_lattice_inside_cmm(self):
        # one mirror family over the centered lattice is the moebius type
        h = subgroup(model("cmm"), [Word((1,)), Word((3,))])
        assert h.index == 2
        assert classify(h) == SIGNATURES["cm"]

    def test_mirror_plus_rectangular_lattice_inside_cmm(self):
        # same mirror over the rectangular sublattice is the annulus type
        h = subgroup(model("cmm"), [Word((1,)), Word((3, 4)), Word((3, -4))])
        assert h.index == 4
        assert h.lattice_index == 2
        assert classify(h) == SIGNATURES["pm"]

    def test_glide_subgroups_are_klein(self):
        h = subgroup(model("pgg"), [Word((2,)), Word((3,))])
        assert h.index == 2
        assert classify(h) == SIGNATURES["pg"]
        h2 = subgroup(model("pmg"), [Word((2,)), Word((3,))])
        assert h2.index == 2
        assert classify(h2) == SIGNATURES["pg"]

    def test_triangle_subgroup_of_p6m_is_whole(self):
        # the three mirrors generate everything
        h = subgroup(model("p6m"), [Word((1,)), Word((2,)), Word((3,))])
        assert h.index == 1

    def test_translation_subgroup_is_torus(self):
        # the maximal abelian subgroup of each rigid cusp group is a torus group
        for name, expected_index in (("p6", 6), ("p4", 4)):
            m = model(name)
            h = subgroup(m, m.translation_words)
            assert h.index == expected_index
            assert len(h.point_group) == 1
            assert classify(h) == SIGNATURES["p1"]

    def test_halfturn_subgroup_of_p6(self):
        p6 = model("p6")
        t1, t2 = p6.translation_words
        h = subgroup(p6, [Word((1, 1, 1)), t1, t2])
        assert h.index == 3
        assert classify(h) == SIGNATURES["p2"]

    def test_rectangular_point_group_inside_p6m(self):
        # two perpendicular mirror families over the hexagonal lattice make a
        # centered-rectangular group
        p6m = model("p6m")
        t1, t2 = p6m.translation_words
        h = subgroup(p6m, [Word((1,)), Word((3,)), t1, t2])
        assert h.index == 3
        assert len(h.point_group) == 4
        assert classify(h) == SIGNATURES["cmm"]

    def test_doubled_centered_lattice_inside_cm(self):
        cm = model("cm")
        h = subgroup(cm, [Word((1,)), Word((2, 2)), Word((3, 3))])
        assert h.index == 4
        assert h.lattice_index == 4
        assert classify(h) == SIGNATURES["cm"]

    def test_rectangular_sublattice_inside_cm(self):
        h = subgroup(model("cm"), [Word((1,)), Word((2, 3)), Word((2, -3))])
        assert h.index == 2
        assert h.lattice_index == 2
        assert classify(h) == SIGNATURES["pm"]
