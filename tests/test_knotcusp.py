"""Amalgam presentations, collapse certificates, and the verdict table."""
import hashlib
import random
import re
import sys
from dataclasses import replace

import pytest

import oracle
from oracle import order_two_full_path
from orbiforge.cosetenum import CosetLimitError, todd_coxeter
from orbiforge.fixtures import load_fixture
from orbiforge.fpgroup import (AbelianGroup, Presentation, PresentationError, SignHom, Word,
                               abelianization, quotient, tietze_pass)
from orbiforge.knotcusp import (AmalgamError, AmalgamSpec, CollapseResult, GluingDatum,
                                FOUR_TORSION_EXCLUDED, REFLECTION_EXCLUDED,
                                TheoremCheckError, build_amalgam, collapse_236,
                                double_cover_cusp_244, h_map_244,
                                peripheral_order_profile, random_amalgam,
                                random_knot_presentation, verdict,
                                verdict_table, _certify_order_two,
                                _minimal_knot, _trivial_gluings)
from orbiforge.lattice import QuadInt
from orbiforge.wallpaper import (SIGNATURES, OrbifoldSignature, SubgroupHandle,
                                 UnknownSignatureError, model, subgroup, whole_group)

HARNESS_SAMPLES = 100


def _stepwise_amalgam_relators(spec):
    """Reference for build_amalgam's relators: each gluing relator formed as
    the product of reduced Words, one step at a time."""
    cusp = model(spec.cusp_model)
    cp = cusp.presentation
    knot = spec.knot_presentation
    offset = cp.ngens
    t1, t2 = cusp.translation_words
    relators = list(cp.relators) + [w.shift(offset) for w in knot.relators]
    for g in spec.gluings:
        gi = cp.gen_index(g.peripheral_generator)
        mu = Word((knot.gen_index(g.knot_generator) + offset,))
        w = g.conjugator.shift(offset)
        parabolic = w * (t1 ** g.r) * (t2 ** g.s) * w.inverse()
        relators.append(Word((gi,)) * mu * Word((-gi,)) * parabolic.inverse())
    return tuple(relators)


class TestBuildAmalgam:
    def test_minimal_p6_shape(self):
        spec = AmalgamSpec("p6", _minimal_knot(), _trivial_gluings("p6"))
        p = build_amalgam(spec)
        assert p.ngens == 3
        assert len(p.relators) == 5

    def test_minimal_p4_shape(self):
        spec = AmalgamSpec("p4", _minimal_knot(), _trivial_gluings("p4"))
        p = build_amalgam(spec)
        assert p.ngens == 3
        assert len(p.relators) == 5

    def test_figure_eight_input_with_random_gluings(self):
        fig8 = load_fixture("figure8")
        rng = random.Random(42)
        cusp = model("p6").presentation
        gluings = tuple(
            GluingDatum(c, k,
                        Word(tuple(rng.choice([-1, 1]) * rng.randint(1, 2)
                                   for _ in range(rng.randint(0, 6)))),
                        rng.randint(-3, 3), rng.randint(-3, 3))
            for c in cusp.generators for k in fig8.generators)
        p = build_amalgam(AmalgamSpec("p6", fig8, gluings))
        assert p.ngens == 4
        assert len(p.relators) == 3 + 1 + 4

    def test_incomplete_gluings_rejected(self):
        spec = AmalgamSpec("p6", _minimal_knot(), _trivial_gluings("p6")[:1])
        with pytest.raises(AmalgamError, match=r"^need exactly one gluing per \(cusp generator, "
                                               r"knot generator\) pair$"):
            build_amalgam(spec)

    def test_non_meridional_knot_rejected(self):
        from orbiforge.fpgroup import Presentation
        bad = Presentation("bad", ("mu1",), (Word((1, 1)),))  # abelianizes to Z/2
        cusp = model("p6").presentation
        gluings = tuple(GluingDatum(c, "mu1", Word(()), 1, 0)
                        for c in cusp.generators)
        with pytest.raises(AmalgamError, match=r"^knot presentation must abelianize to Z "
                                               r"\(meridian-generated\), got Z/2$"):
            build_amalgam(AmalgamSpec("p6", bad, gluings))

    def test_relators_match_the_stepwise_products(self):
        # 300 random specs per cusp model, each also with every exponent
        # set to 0, where w w^-1 cancels and leaves g mu g^-1
        rng = random.Random(19)
        specs = []
        for cusp in ("p6", "p4"):
            for _ in range(300):
                spec = random_amalgam(rng, cusp)
                zeroed = tuple(replace(g, r=0, s=0) for g in spec.gluings)
                specs += [spec, replace(spec, gluings=zeroed)]
        negative = cancelled = 0
        for spec in specs:
            p = build_amalgam(spec)
            assert p.relators == _stepwise_amalgam_relators(spec)
            negative += any(g.r < 0 or g.s < 0 for g in spec.gluings)
            offset = model(spec.cusp_model).presentation.ngens
            for g, rel in zip(spec.gluings, p.relators[-len(spec.gluings):]):
                if g.r == g.s == 0 and len(g.conjugator):
                    cancelled += 1
                    gi = p.gen_index(g.peripheral_generator)
                    mu = spec.knot_presentation.gen_index(g.knot_generator) + offset
                    assert rel.letters == (gi, mu, -gi)
        assert len(specs) == 1200
        assert negative > 400 and cancelled > 1000

    @pytest.mark.parametrize("field", ["r", "s"])
    @pytest.mark.parametrize("exponent", [1.5, "2", None, True])
    def test_non_int_exponent_rejected(self, field, exponent):
        # 1.5 used to escape as TypeError from Word.__pow__, "2" and None as
        # TypeError from a comparison, and True was read as 1
        gluings = list(_trivial_gluings("p6"))
        gluings[0] = replace(gluings[0], **{field: exponent})
        spec = AmalgamSpec("p6", _minimal_knot(), tuple(gluings))
        with pytest.raises(AmalgamError, match=f"must be ints, not {exponent!r}"):
            spec.validate()
        with pytest.raises(AmalgamError):
            build_amalgam(spec)

    def test_random_knot_presentations_abelianize_to_z(self):
        rng = random.Random(5)
        for _ in range(50):
            assert abelianization(random_knot_presentation(rng)) == AbelianGroup(1)


class TestGeneratorOracle:
    @pytest.mark.parametrize("cusp, seed", [("p6", 2029), ("p4", 2030)])
    def test_draws_match_the_one_call_per_value_generator(self, cusp, seed):
        # the package spells each draw out and builds words and the knot
        # unchecked; tests/oracle.py keeps the generator that drew one value
        # per call and built every word through Word.  After each of 2000
        # draws the two streams and specs must agree, and the amalgam must
        # be the one the stepwise products give on the oracle's spec
        ours, theirs = random.Random(seed), random.Random(seed)
        cusp_gens = model(cusp).presentation.generators
        lengths = set()
        for i in range(2000):
            spec, expected = random_amalgam(ours, cusp), oracle.random_amalgam(theirs, cusp)
            assert ours.getstate() == theirs.getstate(), i
            assert spec == expected and repr(spec) == repr(expected), i
            p, knot = build_amalgam(spec), expected.knot_presentation
            assert p.name == f"amalgam[{cusp}+{knot.name}]", i
            assert p.generators == cusp_gens + knot.generators, i
            assert p.relators == _stepwise_amalgam_relators(expected), i
            lengths.update(len(g.conjugator) for g in spec.gluings)
        assert lengths == set(range(7))
        assert random_knot_presentation(ours) == oracle.random_knot_presentation(theirs)
        assert ours.getstate() == theirs.getstate()


class TestCollapse236:
    def test_bare_group(self):
        p6 = model("p6")
        t1, t2 = p6.translation_words
        q = quotient(p6.presentation, [t1, t2, Word((2,))])
        assert todd_coxeter(q, ()).index == 2

    def test_minimal_amalgam(self):
        # oracle by hand: killing b and mu makes the conjugation relators
        # trivial and leaves <a | a^6, a^2> of order 2
        p = build_amalgam(AmalgamSpec("p6", _minimal_knot(), _trivial_gluings("p6")))
        result = collapse_236(p)
        assert result.order == 2
        assert result.abelian == AbelianGroup(0, (2,))

    def test_randomized_harness(self):
        rng = random.Random(0)
        for _ in range(HARNESS_SAMPLES):
            spec = random_amalgam(rng, "p6")
            assert collapse_236(build_amalgam(spec)).order == 2


class TestHMap244:
    def test_bare_quotient(self):
        p4 = model("p4").presentation
        q = quotient(p4, [Word((2,)), Word((1, 1))])
        assert todd_coxeter(q, ()).index == 2

    def test_minimal_amalgam_sign_validates(self):
        p = build_amalgam(AmalgamSpec("p4", _minimal_knot(), _trivial_gluings("p4")))
        hom, ab = h_map_244(p)
        assert hom.holds()
        assert ab == AbelianGroup(0, (2,))

    def test_randomized_harness(self):
        rng = random.Random(1)
        for _ in range(HARNESS_SAMPLES):
            spec = random_amalgam(rng, "p4")
            hom, ab = h_map_244(build_amalgam(spec))
            assert ab == AbelianGroup(0, (2,))

    def test_double_cover_cusp(self):
        sig = double_cover_cusp_244()
        assert sig == SIGNATURES["p2"]

    def test_kernel_contains_translations_with_positive_sign(self):
        p4 = model("p4")
        hom = SignHom(p4.presentation, (-1, 1))
        for w in p4.translation_words:
            assert hom.evaluate(w) == 1


class TestPeripheralProfile:
    def test_reflection_types_have_only_involutions(self):
        assert peripheral_order_profile(model("pmm")) == {2}
        assert peripheral_order_profile(model("pm")) == {2}
        assert peripheral_order_profile(model("cm")) == {2}
        assert peripheral_order_profile(model("cmm")) == {2}
        assert peripheral_order_profile(model("pmg")) == {2}

    def test_rotation_types(self):
        assert peripheral_order_profile(model("p6")) == {2, 3, 6}
        assert peripheral_order_profile(model("p4")) == {2, 4}
        assert peripheral_order_profile(model("p31m")) == {2, 3}

    def test_torsion_free_types(self):
        assert peripheral_order_profile(model("p1")) == frozenset()
        assert peripheral_order_profile(model("pg")) == frozenset()


class TestVerdicts:
    def test_partition_counts(self):
        table = verdict_table()
        assert len(table) == 17
        assert sum(1 for v in table if v.status == "realizable") == 9
        assert sum(1 for v in table if v.status == "excluded") == 8

    def test_four_torsion_exclusions(self):
        for name, thurston in [("p4", "S2(2,4,4)"), ("p4m", "D2(;2,4,4)"),
                               ("p4g", "D2(4;2)")]:
            v = verdict(thurston)
            assert v.status == "excluded" and v.reason == "four_torsion"
            assert all(c.passed for c in v.checks)

    def test_reflection_exclusions(self):
        for thurston in ("T_R", "K_R", "D2(;2,2,2,2)", "D2(2;2,2)", "D2(2,2;R)"):
            v = verdict(thurston)
            assert v.status == "excluded" and v.reason == "reflection_symmetry"
            assert all(c.passed for c in v.checks)

    def test_realizable_with_witnesses(self):
        for thurston in ("T2", "S2(2,2,2,2)", "S2(2,3,6)", "S2(3,3,3)", "K2",
                         "RP2(2,2)", "D2(;2,3,6)", "D2(;3,3,3)", "D2(3;3)"):
            v = verdict(thurston)
            assert v.status == "realizable"
            assert v.witness

    def test_four_torsion_consistency(self):
        for v in verdict_table():
            has4 = 4 in v.signature.cone_orders or 4 in v.signature.corner_orders
            if v.reason == "four_torsion":
                assert has4
            if v.status == "realizable":
                assert not has4

    def test_exclusion_name_tables(self):
        assert set(FOUR_TORSION_EXCLUDED) == {"p4", "p4m", "p4g"}
        assert set(REFLECTION_EXCLUDED) == {"pmm", "cmm", "pmg", "pm", "cm"}

    def test_degree_metadata(self):
        v = verdict("S2(2,3,6)", run_checks=False)
        assert v.degree_allowed(24)
        assert v.degree_allowed(240)
        assert not v.degree_allowed(12)
        assert not v.degree_allowed(0)
        notes = dict(v.notes)
        assert "figure-eight 24" in notes["witness_degrees"]
        assert "dodecahedral 120" in notes["witness_degrees"]

    def test_unconstrained_degrees(self):
        v = verdict("T2", run_checks=False)
        assert v.degree_allowed(5) and not v.degree_allowed(0)
        assert v.degree_allowed(1) is True

    @pytest.mark.parametrize("signature", [
        OrbifoldSignature(True, False, "sphere", (2, 2), ()),
        # the cone orders of S2(2,3,6), but without its names
        OrbifoldSignature(True, False, "sphere", (2, 3, 6), ()),
        replace(SIGNATURES["p6"], cone_orders=(2, 4, 4)),
    ])
    def test_unknown_signature_is_named(self, signature):
        # it used to raise KeyError('') from the witness table
        with pytest.raises(UnknownSignatureError, match="not one of the seventeen") as info:
            verdict(signature, run_checks=False)
        assert repr(signature) in str(info.value)


class TestOrderTwoCertificate:
    def test_rejects_a_quotient_of_order_six(self):
        # p6 modulo its translations is the point group Z/6: no extra is a
        # single letter, so both generators survive
        p6 = model("p6")
        extras = list(p6.translation_words)
        with pytest.raises(TheoremCheckError,
                           match=r"^quotient p6\.T keeps 2 generators, not one$"):
            _certify_order_two(p6.presentation, extras, "p6.T")
        order, ab, _ = order_two_full_path(p6.presentation, extras, "p6.T")
        assert (order, ab) == (6, AbelianGroup(0, (6,)))

    def test_rejects_a_quotient_with_no_generator_left(self):
        p6 = model("p6")
        with pytest.raises(TheoremCheckError,
                           match=r"^quotient p6\.ab keeps 0 generators, not one$"):
            _certify_order_two(p6.presentation, [Word((-1,)), Word((2,))], "p6.ab")

    def test_rejects_an_infinite_cyclic_quotient(self):
        # F(a, b) modulo b is Z: no relator or extra has an exponent in a
        free = Presentation("free", ("a", "b"), ())
        with pytest.raises(TheoremCheckError,
                           match=r"^quotient free\.b has order infinite, not 2$"):
            _certify_order_two(free, [Word((2,))], "free.b")
        assert abelianization(tietze_pass(quotient(free, [Word((2,))]))[0]) == AbelianGroup(1)

    def test_extras_must_use_the_presentation_generators(self):
        # b is the second generator of a cusp group; a one-generator input
        # has none, and the certificate refuses it rather than ignore b
        one = Presentation("one", ("a",), (Word((1, 1)),))
        with pytest.raises(PresentationError, match=r"references generator #2 but only 1 exist"):
            collapse_236(one)

    def test_collapse_236_propagates_a_failure(self):
        # a relator killing a leaves a trivial collapse: gcd(1, -2, 2) = 1
        p = Presentation("a-killed", ("a", "b"), (Word((1,)),))
        with pytest.raises(TheoremCheckError,
                           match=r"^quotient a-killed\.collapse has order 1, not 2$"):
            collapse_236(p)
        extras = [Word((2,)), *model("p6").translation_words]
        assert order_two_full_path(p, extras, "a-killed.collapse")[:2] == (1, AbelianGroup(0))

    def test_environment_allowance_bounds_subgroup_but_not_the_collapse(self, monkeypatch):
        # subgroup takes no allowance of its own, so the environment's
        # bounds it; the order-2 certificates enumerate nothing, so even an
        # allowance of 1 lets them through
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "2")
        t1, t2 = model("p6").translation_words
        with pytest.raises(CosetLimitError, match="allowance of 2 exhausted"):
            subgroup(model("p6"), [t1 ** 8, t2 ** 8])
        monkeypatch.setenv("ORBIFORGE_MAX_COSETS", "1")
        p = build_amalgam(AmalgamSpec("p6", _minimal_knot(), _trivial_gluings("p6")))
        assert collapse_236(p) == CollapseResult(2, AbelianGroup(0, (2,)))
        p = build_amalgam(AmalgamSpec("p4", _minimal_knot(), _trivial_gluings("p4")))
        assert h_map_244(p)[1] == AbelianGroup(0, (2,))

    def test_h_map_244_propagates_a_failure(self, monkeypatch):
        # with the sign map valid every exponent of c is even, so the order
        # is 2; the extra c^3 given to the certificate makes it 1
        from orbiforge import knotcusp

        real = knotcusp._certify_order_two
        monkeypatch.setattr(knotcusp, "_certify_order_two",
                            lambda p, extras, name: real(p, extras + [Word((1, 1, 1))], name))
        p = build_amalgam(AmalgamSpec("p4", _minimal_knot(), _trivial_gluings("p4")))
        with pytest.raises(TheoremCheckError, match=r"\.h has order 1, not 2$"):
            h_map_244(p)

    def test_h_map_244_needs_a_sign_map_that_holds(self):
        # c appears once in the extra relator c d, so c |-> -1 breaks it: its
        # exponent sum in c is odd, and the certificate finds order 1
        p4 = model("p4").presentation
        bad = Presentation("p4+cd", p4.generators, p4.relators + (Word((1, 2)),))
        with pytest.raises(TheoremCheckError,
                           match=r"^quotient p4\+cd\.h has order 1, not 2$"):
            h_map_244(bad)

    def test_double_covers_are_cut_out_by_the_certified_quotient_maps(self, monkeypatch):
        # the sign maps that double-cover-236 and double_cover_cusp_244 pass
        # as literals are the maps the order-2 certificate returns on the
        # bare cusp group with collapse_236's, resp. h_map_244's, extras
        from orbiforge import knotcusp, verify

        covers = []
        real = knotcusp._double_cover_cusp
        monkeypatch.setattr(knotcusp, "_double_cover_cusp",
                            lambda cusp, signs, expected: covers.append((cusp, signs))
                            or real(cusp, signs, expected))
        verify._check_double_cover_236(0)
        double_cover_cusp_244()
        assert [cusp for cusp, _ in covers] == ["p6", "p4"]
        given = _record_certificate_calls(monkeypatch)
        for (cusp, signs), certify in zip(covers, (collapse_236, h_map_244)):
            p = model(cusp).presentation
            given.clear()
            certify(p)
            [(_, extras, name)] = given
            literal = SignHom(p, tuple(signs.get(g, 1) for g in p.generators))
            assert _certify_order_two(p, extras, name) == literal

    def test_double_cover_cusp_needs_the_cusp_translations(self, monkeypatch):
        # <c, t1^2, t2^2> in p4 holds neither t1 nor t2
        from orbiforge import knotcusp

        p4 = model("p4")
        t1, t2 = p4.translation_words
        monkeypatch.setattr(knotcusp, "sign_kernel",
                            lambda m, hom: subgroup(p4, [Word((1,)), t1 ** 2, t2 ** 2]))
        with pytest.raises(TheoremCheckError,
                           match="^cusp translations missing from the double cover$"):
            double_cover_cusp_244()

    def test_double_cover_cusp_must_have_index_two(self, monkeypatch):
        # the translation subgroup of p4 holds both translations at index 4
        _translation_kernel(monkeypatch)
        with pytest.raises(TheoremCheckError, match="^double cover has index 4, not 2$"):
            double_cover_cusp_244()

    def test_double_cover_cusp_must_be_the_pillowcase(self, monkeypatch):
        from orbiforge import knotcusp

        monkeypatch.setattr(knotcusp, "classify", lambda handle: SIGNATURES["p4"])
        with pytest.raises(TheoremCheckError,
                           match=r"^double cover cusp is S2\(2,4,4\), not S2\(2,2,2,2\)$"):
            double_cover_cusp_244()

    def test_certificate_runs_no_enumeration_or_tietze_pass(self, monkeypatch):
        # the order is read off exponent sums: every binding of todd_coxeter,
        # tietze_pass and abelianization in the package fails if called
        from orbiforge import cosetenum, fpgroup, knotcusp

        rng = random.Random(11)
        runs = []
        for certify, cusp in ((collapse_236, "p6"), (h_map_244, "p4")):
            ps = [model(cusp).presentation, knotcusp._minimal_amalgam(cusp)]
            ps += [build_amalgam(random_amalgam(rng, cusp)) for _ in range(5)]
            runs += [(certify, p) for p in ps]
        banned = (cosetenum.todd_coxeter, fpgroup.tietze_pass, fpgroup.abelianization)
        patched = []
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "orbiforge":
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in banned):
                        monkeypatch.setattr(module, attr, _banned(attr))
                        patched.append(f"{name}.{attr}")
        assert {"orbiforge.cosetenum.todd_coxeter", "orbiforge.fpgroup.tietze_pass",
                "orbiforge.knotcusp.abelianization"} <= set(patched)
        assert not {"todd_coxeter", "tietze_pass", "quotient"} & set(vars(knotcusp))
        for certify, p in runs:
            certify(p)

    def test_failing_certificate_is_a_failed_check(self, monkeypatch):
        from orbiforge import knotcusp, verify

        def failing(p, extras, name):
            raise TheoremCheckError(f"quotient {name} has order 1")

        monkeypatch.setattr(knotcusp, "_certify_order_two", failing)
        report = verify.run_verification(["collapse-236", "h-map-244"])
        assert [o.status for o in report.outcomes] == ["fail", "fail"]
        assert "p6.collapse" in report.outcomes[0].detail
        assert "p4.h" in report.outcomes[1].detail

    def test_failing_sample_is_named(self):
        from orbiforge import verify

        seen = []

        def certify(p):
            seen.append(p)
            if len(seen) == 3:
                raise TheoremCheckError("boom")

        with pytest.raises(TheoremCheckError, match="random amalgam #2: boom"):
            verify._sample_amalgams("p6", certify, 0)


def _translation_kernel(monkeypatch):
    from orbiforge import knotcusp

    monkeypatch.setattr(knotcusp, "sign_kernel",
                        lambda m, signs: subgroup(m, list(m.translation_words)))


def _three_torsion_everywhere(monkeypatch):
    from orbiforge import knotcusp

    monkeypatch.setattr(knotcusp, "peripheral_order_profile", lambda group: frozenset({2, 3}))


def _doubled_whole_groups(monkeypatch):
    # the table says two cosets where the whole group has one
    from orbiforge import verify

    real = verify.whole_group

    def doubled(m):
        table = real(m).table
        return SubgroupHandle(m, replace(table, rows=table.rows * 2))

    monkeypatch.setattr(verify, "whole_group", doubled)


def _norm_off_by_one(monkeypatch):
    norm = QuadInt.norm
    monkeypatch.setattr(QuadInt, "norm", lambda z: norm(z) + 1)


def _rotation_of_order(wrong):
    """Patch verify.rotation_matrix to return, for each order in `wrong`, the
    rotation of another order that keeps the same lattice."""
    def patch(monkeypatch):
        from orbiforge import verify
        from orbiforge.exactgeom import rotation_matrix

        monkeypatch.setattr(verify, "rotation_matrix",
                            lambda order: rotation_matrix(wrong.get(order, order)))
    return patch


def _p6_with_relator_b(monkeypatch):
    from orbiforge import verify

    p6 = model("p6")
    pres = p6.presentation
    bad = replace(p6, presentation=replace(pres, relators=pres.relators + (Word((2,)),)))
    monkeypatch.setattr(verify, "model", lambda name: bad.validate() or bad)


def _p6_with_swapped_translations(monkeypatch):
    from orbiforge import verify

    p6 = model("p6")
    swapped = replace(p6, translation_words=p6.translation_words[::-1])
    monkeypatch.setattr(verify, "model", lambda name: swapped.validate() or swapped)


def _whole_group_as_cover(monkeypatch):
    from orbiforge import verify

    monkeypatch.setattr(verify, "orientation_double_cover",
                        lambda m: (whole_group(m), m.signature))


_REFLECTION_FAILURES = "; ".join(f"supporting checks failed for {SIGNATURES[name]}"
                                 for name in SIGNATURES if name in REFLECTION_EXCLUDED)


_COVER_FAILURES = "; ".join(
    f"{name} double cover is {SIGNATURES[name]}, expected {SIGNATURES[target]}"
    for name, target in [("p4m", "p4"), ("p4g", "p4"), ("pg", "p1"), ("pgg", "p2"),
                         ("p6m", "p6"), ("p3m1", "p3"), ("p31m", "p3")])


@pytest.mark.parametrize("check, patch, detail", [
    ("rep-236", _p6_with_relator_b,
     "InvariantError: relator b does not act trivially in model p6"),
    ("rep-236", _p6_with_swapped_translations,
     "b^-1 a^2 translates by (1, 0); b a^-2 translates by (1/2, 1/2*rt3)"),
    ("orientation-covers", _whole_group_as_cover, _COVER_FAILURES),
    ("double-cover-236", _translation_kernel,
     "TheoremCheckError: double cover has index 6, not 2"),
    ("verdict-table", _three_torsion_everywhere, _REFLECTION_FAILURES),
    ("classifier-roundtrip", _doubled_whole_groups, "InvariantError: index identity violated"),
    ("lattice-identities", _norm_off_by_one,
     "InvariantError: determinant ratio differs from the norm"),
    # a half-turn keeps the square lattice and a sixth-turn the hexagonal one,
    # so both convert to integer matrices and fail only their identity
    ("lattice-identities", _rotation_of_order({4: 2}), "order-4 identity r^2 v = -v fails"),
    ("lattice-identities", _rotation_of_order({3: 6}),
     "order-3 identity v + rv + r^2 v = 0 fails"),
])
def test_verify_check_fails_through_the_library(monkeypatch, check, patch, detail):
    # each check reads its fact from the library function that certifies it,
    # so breaking that fact there fails the check
    from orbiforge import verify

    patch(monkeypatch)
    [outcome] = verify.run_verification([check]).outcomes
    assert (outcome.status, outcome.detail) == ("fail", detail)


# sha256 of repr() of the (presentation, tietze_pass result) pairs the test
# below collects, recorded when build_amalgam still formed the stepwise
# products of _stepwise_amalgam_relators, quotient re-validated every relator
# and tietze_pass recomputed each relator's key on removal.  The certificate
# no longer runs the pass; the pairs now come from the retired full path in
# tests/oracle.py, on the names and extras the certificate is given
CERTIFICATE_GOLDEN_HASH = "fc654091efe9177c6a0f10b4f8eae895fa4825dbd2cf5c3a4ae226ccacd8fe69"


class TestCertificateGoldenHash:
    def test_amalgams_and_reduced_certificates_are_unchanged(self, monkeypatch):
        # for verify-paper seeds 0 and 1, as its checks draw them: the bare
        # cusp group, the minimal amalgam, and the random amalgams of each cusp
        from orbiforge import knotcusp
        from orbiforge.verify import AMALGAM_SAMPLES

        given = _record_certificate_calls(monkeypatch)
        pairs = []
        for seed in (0, 1):
            for cusp, certify, rng_seed in (("p6", collapse_236, seed),
                                            ("p4", h_map_244, seed + 1)):
                rng = random.Random(rng_seed)
                ps = [model(cusp).presentation,
                      build_amalgam(AmalgamSpec(cusp, _minimal_knot(), _trivial_gluings(cusp)))]
                ps += [build_amalgam(random_amalgam(rng, cusp)) for _ in range(AMALGAM_SAMPLES)]
                for p in ps:
                    given.clear()
                    certify(p)
                    [(q, extras, name)] = given
                    assert q is p
                    order, ab, reduced = order_two_full_path(p, extras, name)
                    assert (order, ab) == (2, AbelianGroup(0, (2,)))
                    pairs.append((p, reduced))
        assert len(pairs) == 2 * 2 * (2 + AMALGAM_SAMPLES)
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == CERTIFICATE_GOLDEN_HASH


def _record_certificate_calls(monkeypatch) -> list:
    """Make knotcusp._certify_order_two record its (p, extras, name) before
    it runs; returns the record."""
    from orbiforge import knotcusp

    given = []
    real = knotcusp._certify_order_two
    monkeypatch.setattr(knotcusp, "_certify_order_two",
                        lambda p, extras, name: given.append((p, extras, name))
                        or real(p, extras, name))
    return given


def _banned(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return call


def _cyclic(k: int) -> AbelianGroup:
    return AbelianGroup(0, (k,)) if k > 1 else AbelianGroup(0)


def _claim(p, extras, name) -> tuple[int, AbelianGroup]:
    """(order, abelianization) that the certificate states: 2 and Z/2 when
    it certifies, after checking that the quotient map it returns respects
    every relator of p, else the cyclic group its refusal names (0:
    infinite, Z).  Every input here keeps at most one generator."""
    try:
        hom = _certify_order_two(p, extras, name)
    except TheoremCheckError as exc:
        if str(exc) == f"quotient {name} keeps 0 generators, not one":
            return 1, AbelianGroup(0)
        k = re.fullmatch(rf"quotient {re.escape(name)} has order (\d+|infinite), not 2",
                         str(exc))[1]
        return (0, AbelianGroup(1)) if k == "infinite" else (int(k), _cyclic(int(k)))
    assert hom.holds()
    return 2, AbelianGroup(0, (2,))


def _random_word(rng, ngens, shortest=1) -> Word:
    return Word(tuple(rng.choice([-1, 1]) * rng.randint(1, ngens)
                      for _ in range(rng.randint(shortest, 6))))


class TestOrderTwoDifferential:
    """The exponent-sum certificate against the retired full path
    (tests/oracle.py: Tietze pass, coset enumeration, Smith form)."""

    @pytest.mark.parametrize("cusp, certify", [("p6", collapse_236), ("p4", h_map_244)])
    def test_agrees_with_the_full_path_on_seeded_amalgams(self, monkeypatch, cusp, certify):
        # 2000 amalgams per cusp, each with the certificate's own extras (order
        # 2) and with one more random word of 2 to 6 letters, which leaves
        # order 2 or kills the survivor; on p4 the certified map is the h-map,
        # c |-> -1 and every other generator |-> +1
        given = _record_certificate_calls(monkeypatch)
        rng = random.Random(27)
        orders = []
        for i in range(2000):
            p = build_amalgam(random_amalgam(rng, cusp))
            given.clear()
            result = certify(p)
            [(_, extras, name)] = given
            if cusp == "p4":
                assert result[0] == SignHom(p, tuple(-1 if g == "c" else 1
                                                     for g in p.generators)), i
            for more in ([], [_random_word(rng, p.ngens, shortest=2)]):
                claim = _claim(p, extras + more, name)
                assert order_two_full_path(p, extras + more, name)[:2] == claim, (i, more)
                orders.append(claim[0])
        assert len(orders) == 4000
        assert orders.count(2) > 2000 and orders.count(1) > 200

    def test_agrees_with_the_full_path_on_one_survivor_presentations(self):
        # random relators on 1 to 3 generators, all but one killed by a
        # single-letter extra: orders 0 (infinite) to 20
        rng = random.Random(28)
        orders = set()
        for i in range(500):
            n = rng.randint(1, 3)
            x = rng.randint(1, n)
            p = Presentation(f"r{i}", tuple(f"g{j}" for j in range(1, n + 1)),
                             tuple(_random_word(rng, n) ** rng.randint(1, 4)
                                   for _ in range(rng.randint(0, 3))))
            extras = [Word((rng.choice([-1, 1]) * g,)) for g in range(1, n + 1) if g != x]
            extras += [_random_word(rng, n) for _ in range(rng.randint(0, 2))]
            order, ab = _claim(p, extras, p.name)
            orders.add(order)
            if order == 0:
                q, _ = tietze_pass(quotient(p, extras))
                assert abelianization(q) == ab == AbelianGroup(1)
            else:
                assert order_two_full_path(p, extras, p.name)[:2] == (order, ab)
        assert {0, 1, 2, 3, 4, 6, 8, 12} <= orders


def _knot_named_a():
    return AmalgamSpec("p6", Presentation("a-knot", ("a",), ()),
                       tuple(GluingDatum(c, "a", Word(()), 1, 0) for c in ("a", "b")))


@pytest.mark.parametrize("call, message", [
    (lambda: AmalgamSpec("p2", _minimal_knot(), ()).validate(),
     "^cusp model must be p6 or p4, not 'p2'$"),
    (lambda: AmalgamSpec("p6", _minimal_knot(), (
        replace(_trivial_gluings("p6")[0], conjugator=Word((2,))),
        *_trivial_gluings("p6")[1:])).validate(),
     "^conjugator uses an unknown knot generator$"),
    (lambda: build_amalgam(_knot_named_a()),
     "^knot generator names collide with cusp generators$"),
], ids=["cusp-model", "conjugator", "name-collision"])
def test_amalgam_input_errors(call, message):
    with pytest.raises(AmalgamError, match=message):
        call()
