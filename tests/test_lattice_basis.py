"""The affine classes and the crystallographic decision tree in the basis of
the subgroup's translation lattice, checked against the Cartesian Q(sqrt3)
computation they replace (kept here as the oracle); the word closure that
finds the classes, checked against the coset-table path it replaced
(`oracle.table_path`), past the table's reach, and by the index identity."""
import operator
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from orbiforge import wallpaper
from orbiforge.cosetenum import CosetLimitError, InvariantError, todd_coxeter
from orbiforge.exactgeom import (IDENTITY_MAT, QuadNum, mat,
                                 reflection_axis_direction, rotation_order, vec)
from orbiforge.fpgroup import Word, sign_homs
from orbiforge.wallpaper import (MODEL_NAMES, SIGNATURES, SubgroupHandle,
                                 _class_has_reflection, _det, _rotation_order,
                                 _word_closure, classify, crystallographic_type,
                                 model, subgroup, whole_group)
from oracle import assert_matches_table_path, closure, index_in


# -- oracle: the Cartesian computation ----------------------------------------

def reference_classes(handle):
    """(linear part, translation reduced modulo the lattice) in Cartesian
    coordinates."""
    lat = handle.lattice

    def mul(x, y):
        (m1, v1), (m2, v2) = x, y
        return m1 * m2, lat.reduce_mod(m1 * v2 + v1)

    return closure(((iso.linear, lat.reduce_mod(iso.trans))
                    for iso in handle.schreier_images),
                   (IDENTITY_MAT, lat.reduce_mod(vec(0, 0))), mul)


def reference_scalar_along(v, u):
    # v = scalar * u for parallel vectors
    if not u.x.is_zero():
        return v.x / u.x
    return v.y / u.y


def reference_primitive_lattice_vector_along(lat, direction):
    """Primitive vector of the rank-1 group (lattice intersect R*direction)."""
    c1 = lat.b1.cross(direction)
    c2 = lat.b2.cross(direction)
    # solve i*c1 + j*c2 = 0 over the rational coordinates of Q(sqrt3)
    eqs = [e for e in ((c1.a, c2.a), (c1.b, c2.b)) if e != (0, 0)]
    x, y = eqs[0]
    for (x2, y2) in eqs[1:]:
        assert x * y2 == y * x2
    num_i, num_j = -y, x
    den = num_i.denominator * num_j.denominator
    i0, j0 = int(num_i * den), int(num_j * den)
    d = gcd(i0, j0)
    u0 = lat.b1.scale(i0 // d) + lat.b2.scale(j0 // d)
    assert u0.cross(direction).is_zero()
    return u0


def reference_class_has_reflection(m, v, lat):
    """Whether (m + I)v lies in (m + I)Lattice, via the primitive lattice
    vector along the mirror axis."""
    mi = m + IDENTITY_MAT
    w = mi * v
    if w.is_zero():
        return True
    u0 = reference_primitive_lattice_vector_along(lat, reflection_axis_direction(m))
    coeffs = []
    for b in (lat.b1, lat.b2):
        c = reference_scalar_along(mi * b, u0) if not (mi * b).is_zero() else QuadNum.of(0)
        assert c.is_integer()
        coeffs.append(int(c.a))
    g = gcd(*coeffs)
    if g == 0:
        return False
    return (reference_scalar_along(w, u0) / g).is_integer()


def reference_rotation_center_reps(m, v, lat):
    im = IDENTITY_MAT - m
    count = int(im.det().a)
    inv = im.inverse()
    return {lat.reduce_mod(inv * (v + lat.b1.scale(i) + lat.b2.scale(j)))
            for i in range(count) for j in range(count)}


def reference_point_on_some_mirror(p, neg, lat):
    return any(lat.contains((IDENTITY_MAT - m) * p - v) for (m, v) in neg)


def reference_exists_glide_off_mirrors(neg, lat):
    for (m, v) in neg:
        for i in range(2):
            for j in range(2):
                t = v + lat.b1.scale(i) + lat.b2.scale(j)
                if ((m + IDENTITY_MAT) * t).is_zero():
                    continue
                axis_point = ((IDENTITY_MAT - m) * t).scale(Fraction(1, 4))
                if not reference_point_on_some_mirror(
                        axis_point, [c for c in neg if c[0] == m], lat):
                    return True
    return False


def reference_type(handle, classes):
    """The decision tree on the Cartesian classes."""
    lat = handle.lattice
    one = QuadNum.of(1)
    n = max(rotation_order(m) for (m, _) in classes if m.det() == one)
    neg = [(m, v) for (m, v) in classes if m.det() != one]
    if not neg:
        return {1: "p1", 2: "p2", 3: "p3", 4: "p4", 6: "p6"}[n]
    mirrors = [(m, v) for (m, v) in neg if reference_class_has_reflection(m, v, lat)]
    if not mirrors:
        return "pg" if n == 1 else "pgg"
    if n == 1:
        return "cm" if reference_exists_glide_off_mirrors(neg, lat) else "pm"
    if n == 6:
        return "p6m"
    if n == 2 and len({reflection_axis_direction(m) for (m, _) in mirrors}) == 1:
        return "pmg"
    on, off = {2: ("pmm", "cmm"), 3: ("p3m1", "p31m"), 4: ("p4m", "p4g")}[n]
    centers = [c for (m, v) in classes
               if m.det() == one and not m.is_identity() and rotation_order(m) == n
               for c in reference_rotation_center_reps(m, v, lat)]
    return on if all(reference_point_on_some_mirror(c, neg, lat) for c in centers) else off


# -- corpus ------------------------------------------------------------------

def corpus():
    """(label, model name, subgroup words) over all 17 models: the whole group,
    every sign kernel, a translation sublattice, and each generator with a
    sublattice, plain and conjugated (rotations, mirrors and glides)."""
    rng = random.Random(5)
    out = []
    for name in MODEL_NAMES:
        m = model(name)
        ngens = m.presentation.ngens
        t1, t2 = m.translation_words
        out.append((f"{name} whole", name, [Word((i,)) for i in range(1, ngens + 1)]))
        for hom in sign_homs(m.presentation):
            out.append((f"{name} kernel {hom.signs}", name, list(hom.kernel_words())))
        out.append((f"{name} T2", name, [t1 * t2, t2 ** 2]))
        for g in range(1, ngens + 1):
            words = [Word((g,)), t1 ** 2, t2]
            by = Word(tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(3)))
            out.append((f"{name} gen {g}", name, words))
            out.append((f"{name} gen {g} conj {by.letters}", name,
                        [w.conjugate(by) for w in words]))
    return out


CORPUS = corpus()
HANDLES = {label: subgroup(model(name), words) for label, name, words in CORPUS}


def random_word(rng, ngens, shortest, longest):
    return Word(tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                      for _ in range(rng.randint(shortest, longest))))


def random_subgroup_words(rng, m):
    """<t1^a t2^b, t2^c> with a, c <= 4, plus up to three random words, all
    conjugated by a random word."""
    ngens = m.presentation.ngens
    t1, t2 = m.translation_words
    words = [t1 ** rng.randint(1, 4) * t2 ** rng.randint(0, 3), t2 ** rng.randint(1, 4)]
    words += [random_word(rng, ngens, 1, 4) for _ in range(rng.randint(0, 3))]
    by = random_word(rng, ngens, 0, 4)
    return [w.conjugate(by) for w in words]


def random_corpus(per_model):
    """Seeded random subgroups of every model (`random_subgroup_words`)."""
    rng = random.Random(7)
    out = {}
    for name in MODEL_NAMES:
        m = model(name)
        for k in range(per_model):
            out[f"{name} random {k}"] = subgroup(m, random_subgroup_words(rng, m))
    return out


RANDOM_HANDLES = random_corpus(12)


def test_corpus_is_wide():
    assert len(HANDLES) >= 200
    assert {name for _, name, _ in CORPUS} == set(MODEL_NAMES)
    kinds = {crystallographic_type(h) for h in HANDLES.values()}
    assert kinds == set(MODEL_NAMES)


@pytest.mark.parametrize("label", list(HANDLES))
def test_lattice_basis_agrees_with_cartesian_tree(label):
    handle = HANDLES[label]
    lat = handle.lattice
    basis, inverse = lat.basis_matrix(), lat._inverse_basis
    reference = reference_classes(handle)
    d, classes = handle.integer_classes
    # each linear part has one class, so pair the oracle's classes with the
    # handle's by linear part, leaving none over
    by_linear = {inverse * m * basis: (m, v) for m, v in reference}
    assert len(by_linear) == len(reference)
    reference = tuple(by_linear.pop(mat(*m)) for m, _ in classes)
    assert not by_linear
    # the classes are the Cartesian ones, conjugated into the lattice basis,
    # and the `classes` view is the integer classes over d
    assert handle.classes == tuple((inverse * m * basis, inverse * v) for m, v in reference)
    assert handle.classes == tuple((mat(*m), vec(Fraction(x, d), Fraction(y, d)))
                                   for m, (x, y) in classes)
    for (m, v), (m_ref, v_ref) in zip(classes, reference):
        assert all(0 <= x < d for x in v)
        if _det(m) == -1:
            assert _class_has_reflection(m, v, d) == \
                reference_class_has_reflection(m_ref, v_ref, lat)
        elif m != (1, 0, 0, 1):
            assert _rotation_order(m) == rotation_order(m_ref)
    cryst = reference_type(handle, reference)
    assert crystallographic_type(handle) == cryst
    assert classify(handle) == SIGNATURES[cryst]


def test_random_corpus_is_wide():
    assert len(RANDOM_HANDLES) >= 200
    assert {crystallographic_type(h) for h in RANDOM_HANDLES.values()} == set(MODEL_NAMES)


@pytest.mark.parametrize("label", list(RANDOM_HANDLES))
def test_random_subgroup_agrees_with_cartesian_tree(label):
    handle = RANDOM_HANDLES[label]
    assert crystallographic_type(handle) == reference_type(handle, reference_classes(handle))


@pytest.mark.parametrize("label", list(HANDLES))
def test_integer_point_group_and_lattice_index_match_cartesian(label):
    handle = HANDLES[label]
    reference = dict.fromkeys(closure((iso.linear for iso in handle.schreier_images),
                                      IDENTITY_MAT, operator.mul))
    # the same linear parts, each once, in the handle's own order
    for m in handle.point_group:
        del reference[m]
    assert not reference
    assert handle.lattice_index == index_in(handle.lattice, handle.model.lattice())


# -- the word closure against the table path ----------------------------------

def reference_closed(classes, d):
    """The full check over all classes: S holds the identity and every
    product x y of two of its classes, translations modulo d."""
    members = set(classes)

    def mul(p, q):
        (m, (x, y)), (n, (u, v)) = p, q
        return ((m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
                 m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3]),
                ((m[0] * u + m[1] * v + x) % d, (m[2] * u + m[3] * v + y) % d))

    return ((1, 0, 0, 1), (0, 0)) in members and \
        all(mul(p, q) in members for p in classes for q in classes)


def shifted_variants(classes, d):
    """The classes as they are, then with one class's translation moved by
    (1, 0)/d or (0, 1)/d, for every class in turn."""
    yield classes
    for k, (m, (x, y)) in enumerate(classes):
        for u, v in ((1, 0), (0, 1)):
            yield classes[:k] + ((m, ((x + u) % d, (y + v) % d)),) + classes[k + 1:]


# the 17 whole groups, their 74 sign kernels and the random corpus
CLOSURE_HANDLES = {label: h for label, h in HANDLES.items()
                   if label.endswith(" whole") or " kernel " in label} | RANDOM_HANDLES


ALL_HANDLES = HANDLES | RANDOM_HANDLES


@pytest.mark.parametrize("label", list(ALL_HANDLES))
def test_word_closure_matches_the_table_path(label):
    # the table path (tests/oracle.py) reads the translation orbit of the
    # subgroup coset and the model's Cartesian lifts; the closure reads the
    # subgroup's words through the integer kernel
    handle = ALL_HANDLES[label]
    assert_matches_table_path(handle)
    d, classes = handle.integer_classes
    assert reference_closed(classes, d)


def test_closure_corpus_accepts_and_rejects_shifted_classes():
    # the full-closure oracle can fail: some shifted classes are not a group
    assert len(CLOSURE_HANDLES) == 17 + 74 + len(RANDOM_HANDLES)
    verdicts = {reference_closed(variant, d)
                for d, classes in (h.integer_classes for h in CLOSURE_HANDLES.values())
                for variant in list(shifted_variants(classes, d))[1:]}
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_word_closure_matches_the_table_path_on_seeded_subgroups(name):
    # 120 subgroups per model, 2040 in all, beyond the random corpus
    m = model(name)
    rng = random.Random(f"word closure {name}")
    for _ in range(120):
        assert_matches_table_path(subgroup(m, random_subgroup_words(rng, m)))


# -- the word closure where the coset table cannot go ------------------------

def test_word_closure_past_the_coset_allowance():
    # p6 > <t1^n, t2^n> has 6 n^2 cosets, 6,000,000 at n = 1000
    p6 = model("p6")
    t1, t2 = p6.translation_words
    n = 1000
    triple, (d, classes) = _word_closure(p6, [t1 ** n, t2 ** n])
    assert triple == (n, 0, n)
    assert classes == (((1, 0, 0, 1), (0, 0)),)
    assert d == n * n * p6.kernel.denominator


def test_word_closure_of_translation_subgroups():
    # <t1^a t2^b, t2^c> is the lattice with Hermite basis (a, b mod c), (0, c)
    rng = random.Random(31)
    for name in MODEL_NAMES:
        m = model(name)
        t1, t2 = m.translation_words
        for _ in range(3):
            a, b, c = rng.randint(1, 1000), rng.randint(-1000, 1000), rng.randint(1, 1000)
            triple, (_, classes) = _word_closure(m, [t1 ** a * t2 ** b, t2 ** c])
            assert triple == (a, b % c, c), (name, a, b, c)
            assert len(classes) == 1


def test_word_closure_proves_an_infinite_index():
    # <t1> in p6 has translations of rank 1; coset enumeration can only run
    # out of room
    p6 = model("p6")
    t1, _ = p6.translation_words
    with pytest.raises(InvariantError,
                       match="^translations of the subgroup do not span a rank-2 lattice$"):
        _word_closure(p6, [t1])
    with pytest.raises(CosetLimitError):
        todd_coxeter(p6.presentation, [t1], max_cosets=50)


def test_translation_differences_must_be_lattice_translations():
    # a p1 whose kernel claims N = 2: the translation t of <t, u> then reads
    # (1, 0)/2, outside the lattice
    fake = replace(model("p1"))
    vars(fake)["kernel"] = model("p1").kernel._replace(denominator=2)
    with pytest.raises(InvariantError,
                       match="^translation of the subgroup is not a lattice translation$"):
        _word_closure(fake, [Word((1,)), Word((2,))])


def test_subgroup_walk_is_bounded():
    # a shear has infinite order; the walk stops at 12 linear parts
    with pytest.raises(InvariantError, match="^point group larger than 12$"):
        wallpaper._walk([(1, 1, 0, 1, 0, 0)], 1)


# -- the index identity: the closure against the coset table -----------------

def _doubled_table(pres, words):
    """The real table with every row twice: two cosets for each real one."""
    table = todd_coxeter(pres, words)
    return replace(table, rows=table.rows * 2)


@pytest.mark.parametrize("build", [
    lambda m: SubgroupHandle(m, _doubled_table(m.presentation, [Word((1,)), Word((2,))])),
    whole_group,
    lambda m: subgroup(m, [Word((1,)), *(t ** 2 for t in m.translation_words)]),
    lambda m: wallpaper.sign_kernel(m, {"c": -1}),
], ids=["SubgroupHandle", "whole_group", "subgroup", "sign_kernel"])
def test_index_identity_is_checked(build, monkeypatch):
    # the table says twice the cosets the subgroup has; every way of building
    # a handle proves the identity then, before anything reads it
    monkeypatch.setattr(wallpaper, "todd_coxeter", _doubled_table)
    with pytest.raises(InvariantError, match="^index identity violated$"):
        build(model("p4"))


def test_index_identity_rejects_the_words_of_another_subgroup():
    # the table of p6 > <a, t1^2, t2^2> (index 4) with the words of
    # <t1^2, t2^2> alone: a closure that misses the rotations
    m = model("p6")
    t1, t2 = m.translation_words
    table = subgroup(m, [Word((1,)), t1 ** 2, t2 ** 2]).table
    assert table.index == 4
    with pytest.raises(InvariantError, match="^index identity violated$"):
        SubgroupHandle(m, replace(table, subgroup_words=(t1 ** 2, t2 ** 2)))


def test_classification_reads_only_the_index_and_the_words_of_the_table():
    # a stand-in table with no rows classifies every whole group and sign
    # kernel as the real one does
    for name in MODEL_NAMES:
        m = model(name)
        homs = [None] + sign_homs(m.presentation)
        for hom in homs:
            handle = whole_group(m) if hom is None else wallpaper.sign_kernel(m, hom)
            stand_in = SimpleNamespace(parent=m.presentation, index=handle.index,
                                       subgroup_words=handle.table.subgroup_words)
            bare = SubgroupHandle(m, stand_in)
            assert classify(bare) == classify(handle)
            assert (bare.point_group, bare.lattice_index, bare.integer_classes) == \
                (handle.point_group, handle.lattice_index, handle.integer_classes)


# -- the invariant checks of the lattice basis --------------------------------

def test_point_group_must_preserve_the_lattice(monkeypatch):
    # a rectangular lattice is not preserved by the quarter-turns of p4
    monkeypatch.setattr(wallpaper, "integer_lattice_basis", lambda pairs: (1, 0, 2))
    with pytest.raises(InvariantError, match="does not preserve the lattice"):
        wallpaper.whole_group(model("p4")).classes


# The tree's own checks: p4m's classes, with the reflection test narrowed,
# and classes that no group has.

def test_tree_needs_a_mirror_in_a_group_beyond_two_fold(monkeypatch):
    monkeypatch.setattr(wallpaper, "_class_has_reflection", lambda m, v, d: False)
    with pytest.raises(InvariantError, match="4-fold group with glides but no mirrors"):
        crystallographic_type(whole_group(model("p4m")))


def test_tree_needs_a_known_count_of_mirror_matrices(monkeypatch):
    handle = whole_group(model("p4m"))
    first = next(m for m, _ in handle.integer_classes[1] if _det(m) == -1)
    monkeypatch.setattr(wallpaper, "_class_has_reflection", lambda m, v, d: m == first)
    with pytest.raises(InvariantError, match="4-fold group with mirror matrices"):
        crystallographic_type(handle)


def test_tree_needs_mirror_matrices_that_agree_mod_2():
    # a mirror along a basis vector and one along the diagonal, in a two-fold
    # group; in a group the two would be m and -m
    handle = whole_group(model("pmm"))
    handle.integer_classes = (1, (((1, 0, 0, 1), (0, 0)), ((-1, 0, 0, -1), (0, 0)),
                                  ((1, 0, 0, -1), (0, 0)), ((0, 1, 1, 0), (0, 0))))
    with pytest.raises(InvariantError, match="2-fold group with mirror matrices"):
        crystallographic_type(handle)


# A class matrix that is not integral, such as [[1, 1/2], [0, -1]], cannot
# reach the tree: `integer_classes` rejects it as not preserving the lattice
# (test_point_group_must_preserve_the_lattice).
@pytest.mark.parametrize("m", [
    (1, 0, 0, 1),                       # m + I = 2I has rank 2
    (-1, 0, 0, -1),                     # m + I = 0
    (0, -1, 1, 0),                      # a quarter turn: m + I has rank 2
])
def test_reflection_class_needs_a_rank_one_integer_matrix(m):
    with pytest.raises(InvariantError, match=r"^m \+ I of a reflection class is not a "
                                             "nonzero rank-1 integer matrix$"):
        _class_has_reflection(m, (0, 0), 1)


@pytest.mark.parametrize("m", [
    (0, 1, -1, 3),                      # trace 3: infinite order
    (1, 1, 0, 1),                       # trace 2 but not the identity: a shear
    (-1, 1, 0, -1),                     # trace -2 but not -I
])
def test_rotation_order_needs_a_crystallographic_trace(m):
    # exactgeom.rotation_order calls these non-crystallographic; among the
    # integer classes they can only mean an internal fault
    with pytest.raises(InvariantError, match="has no crystallographic order"):
        _rotation_order(m)


def test_rotation_order_from_the_trace():
    for k, m in ((1, (1, 0, 0, 1)), (2, (-1, 0, 0, -1)), (3, (0, -1, 1, -1)),
                 (4, (0, -1, 1, 0)), (6, (1, -1, 1, 0))):
        assert _rotation_order(m) == k == rotation_order(mat(*m))
