"""The Schreier-vector transversal, the Schreier images and the translation
lattice, each checked against the direct computation it replaces (kept here
as the oracle), plus the growth of classification in the index and its
independence from the Schreier machinery."""
import operator
import random
import tracemalloc
from dataclasses import replace

import pytest

from orbiforge import cosetenum, exactgeom, wallpaper
from orbiforge.cosetenum import InvariantError, _col, todd_coxeter
from orbiforge.fpgroup import Presentation, Word, sign_homs
from orbiforge.lattice import Lattice2, integer_lattice_basis
from orbiforge.exactgeom import IDENTITY_MAT, Isometry
from orbiforge.wallpaper import (MODEL_NAMES, classify,
                                 model, subgroup, translation_lattice)
from oracle import closure, index_in


# -- oracles: the direct computations ---------------------------------------

def reference_transversal(table):
    """BFS from coset 0, generators in declared order then inverses; each
    representative is its parent's plus one letter."""
    ngens = table.parent.ngens
    reps = [None] * table.index
    reps[0] = ()
    letters = list(range(1, ngens + 1)) + [-g for g in range(1, ngens + 1)]
    queue = [0]
    while queue:
        c = queue.pop(0)
        for letter in letters:
            t = table.rows[c][_col(letter)]
            if reps[t] is None:
                reps[t] = reps[c] + (letter,)
                queue.append(t)
    return reps


def reference_schreier_pairs(table):
    """(c, g, word) for every r(c)*g*r(cg)^-1 that does not freely reduce to
    the empty word."""
    reps = reference_transversal(table)
    out = []
    for c in range(table.index):
        for g in range(1, table.parent.ngens + 1):
            t = table.rows[c][_col(g)]
            w = Word(reps[c] + (g,) + tuple(-x for x in reversed(reps[t])))
            if not w.is_empty():
                out.append((c, g, w))
    return out


def reference_translation_lattice(handle):
    """Membership of t1^i t2^j for 0 <= i, j <= index; the found exponent
    pairs generate the exponent sublattice because its index divides the
    coset count."""
    k = handle.index
    t1, t2 = handle.model.translation_words
    found = [(i, j) for i in range(k + 1) for j in range(k + 1)
             if (i or j) and handle.table.contains(t1 ** i * t2 ** j)]
    a, b, g = integer_lattice_basis(found)
    v1, v2 = handle.model.translation_images()
    return Lattice2(v1.scale(a) + v2.scale(b), v2.scale(g))


# -- corpus ------------------------------------------------------------------

def _rotation_words(m):
    """The first generator or product of two generators whose image is a
    nontrivial rotation."""
    ngens = m.presentation.ngens
    candidates = [Word((i,)) for i in range(1, ngens + 1)] + \
        [Word((i, j)) for i in range(1, ngens + 1) for j in range(i + 1, ngens + 1)]
    out = []
    for w in candidates:
        linear = m.evaluate(w).linear
        if linear.det() == exactgeom.QuadNum.of(1) and not linear.is_identity():
            out.append(w)
    return out[:1]


def corpus():
    """(label, model name, subgroup words) over all 17 models: the whole group,
    sign kernels, translation sublattices, rotation subgroups, and the
    same rotation subgroups with conjugated generators.  Kernels are capped
    at three per model to keep the suite quick."""
    rng = random.Random(11)
    out = []
    for name in MODEL_NAMES:
        m = model(name)
        ngens = m.presentation.ngens
        t1, t2 = m.translation_words
        out.append((f"{name} whole", name, [Word((i,)) for i in range(1, ngens + 1)]))
        for hom in sign_homs(m.presentation)[:3]:
            out.append((f"{name} kernel {hom.signs}", name, list(hom.kernel_words())))
        for a, b, c in ((1, 0, 2), (2, 1, 1)):
            out.append((f"{name} T2 {a},{b},{c}", name, [t1 ** a * t2 ** b, t2 ** c]))
        for g in _rotation_words(m):
            words = [g, t1 ** 2, t2 ** 2]
            out.append((f"{name} rot {g.letters}", name, words))
            by = Word(tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(3)))
            out.append((f"{name} rot {g.letters} conj {by.letters}", name,
                        [w.conjugate(by) for w in words]))
    return out


def off_corpus_tables():
    """Tables outside the wallpaper corpus: finite groups on their trivial
    subgroup, an index-1 table (every representative empty), and
    p1 > <t^k, u>, whose BFS tree is two long paths."""
    s5 = Presentation("S5", ("s1", "s2", "s3", "s4"), tuple(
        [Word((i, i)) for i in range(1, 5)]
        + [Word((i, j) * (3 if j == i + 1 else 2))
           for i in range(1, 5) for j in range(i + 1, 5)]))
    psl27 = Presentation("PSL(2,7)", ("a", "b"), (
        Word((1, 1)), Word((2, 2, 2)), Word((1, 2) * 7), Word((-1, -2, 1, 2) * 4)))
    f25 = Presentation("F(2,5)", tuple(f"x{i}" for i in range(5)), tuple(
        Word((1 + i, 1 + (i + 1) % 5, -(1 + (i + 2) % 5))) for i in range(5)))
    tables = {
        "S5 coxeter": todd_coxeter(s5, []),
        "PSL(2,7)": todd_coxeter(psl27, []),
        "F(2,5)": todd_coxeter(f25, []),
        "S5 index 1": todd_coxeter(s5, [Word((i,)) for i in range(1, 5)]),
    }
    p1 = model("p1").presentation
    for k in range(1, 41):
        tables[f"p1 > <t^{k}, u>"] = todd_coxeter(p1, [Word((1,)) ** k, Word((2,))])
    return tables


CORPUS = corpus()
HANDLES = {label: subgroup(model(name), words) for label, name, words in CORPUS}
TABLES = {label: handle.table for label, handle in HANDLES.items()} | off_corpus_tables()


def test_corpus_covers_every_model_and_family():
    assert {name for _, name, _ in CORPUS} == set(MODEL_NAMES)
    for family in ("whole", "kernel", "T2", "rot", "conj"):
        assert any(family in label for label, _, _ in CORPUS), family
    assert max(h.index for h in HANDLES.values()) >= 24
    indices = {label: table.index for label, table in TABLES.items()}
    assert (indices["S5 coxeter"], indices["PSL(2,7)"], indices["F(2,5)"]) == (120, 168, 11)
    assert indices["S5 index 1"] == 1 and indices["p1 > <t^40, u>"] == 40


@pytest.mark.parametrize("label", list(TABLES))
def test_transversal_matches_reference_bfs(label):
    table = TABLES[label]
    assert table.transversal() == [Word(r) for r in reference_transversal(table)]


@pytest.mark.parametrize("label", list(TABLES))
def test_schreier_words_match_reference(label):
    table = TABLES[label]
    pairs = reference_schreier_pairs(table)
    assert table.schreier_pairs() == pairs
    assert table.schreier_generators() == [w for _, _, w in pairs]
    assert [(c, g, table.rows[c][_col(g)]) for c, g, _ in pairs] == \
        list(table.schreier_edges())


@pytest.mark.parametrize("label", list(HANDLES))
def test_schreier_images_match_word_evaluation(label):
    # the oracle multiplies right to left and inverts each generator's image
    # itself; every image is in the subgroup, so its linear part is in the
    # point group and a pure translation is in the translation lattice
    handle = HANDLES[label]
    rep = handle.model.rep
    reference = []
    for w in handle.table.schreier_generators():
        out = Isometry.identity()
        for letter in reversed(w.letters):
            g = rep[abs(letter) - 1]
            out = (g if letter > 0 else g.inverse()) * out
        reference.append(out)
    assert handle.schreier_images == tuple(reference)
    point_group = set(handle.point_group)
    for iso in handle.schreier_images:
        assert iso.linear in point_group
        if iso.linear == IDENTITY_MAT:
            assert handle.lattice.contains(iso.trans)


@pytest.mark.parametrize("label", list(HANDLES))
def test_translation_lattice_matches_membership_search(label):
    handle = HANDLES[label]
    assert translation_lattice(handle) == reference_translation_lattice(handle)


def test_schreier_vector_is_a_bfs_tree():
    table = HANDLES["p6m whole"].table
    parent, letter_of, order = table.schreier_vector
    assert (parent[0], letter_of[0], order[0]) == (-1, 0, 0)
    position = {c: i for i, c in enumerate(order)}
    assert sorted(order) == list(range(table.index))
    for c in order[1:]:
        assert position[parent[c]] < position[c]
        assert table.rows[parent[c]][_col(letter_of[c])] == c


# In Z/6 the BFS tree is 0 -a-> 1 -a-> 3 -a-> 5 and 0 -A-> 2 -A-> 4
# (A = a^-1), and the one Schreier word, of the edge 5 -a-> 4, is
# r(5) a r(4)^-1 = a^6.

def _c6_table():
    table = todd_coxeter(Presentation("c6", ("a",), (Word((1,) * 6),)), [])
    parent, letter_of, order = table.schreier_vector
    assert (parent[5], letter_of[5], parent[4], letter_of[4]) == (3, 1, 2, -1)
    assert table.rows == ((1, 2), (3, 0), (0, 4), (5, 1), (2, 5), (4, 3))
    return table


@pytest.mark.parametrize("coset, letter", [(5, -1), (4, 1)])
def test_a_tree_edge_missing_from_the_table_is_rejected(coset, letter):
    # relabelling the tree edge into 5 as A (or into 4 as a) names an edge
    # the table does not have; unchecked, r(4) would read a^-1 a
    table = _c6_table()
    parent, letter_of, order = table.schreier_vector
    corrupt = list(letter_of)
    corrupt[coset] = letter
    table.__dict__["schreier_vector"] = (parent, tuple(corrupt), order)
    message = rf"^tree edge into coset {coset} is not an edge of the table$"
    with pytest.raises(InvariantError, match=message):
        table.transversal()
    with pytest.raises(InvariantError, match=message):
        table.schreier_pairs()


@pytest.mark.parametrize("coset, target, pair", [(4, 4, (4, 1)), (5, 3, (5, 1))])
def test_a_word_that_cancels_at_a_junction_is_rejected(coset, target, pair):
    # the tree edges stay edges of the table, but the a-column stops being
    # the inverse of the A-column: 4 -a-> 4 makes r(4) a r(4)^-1 = A A a a a
    # cancel at its first junction, 5 -a-> 3 makes r(5) a r(3)^-1 = a a a a A A
    # cancel at its second
    table = _c6_table()
    rows = list(table.rows)
    rows[coset] = (target, rows[coset][1])
    corrupt = replace(table, rows=tuple(rows))
    assert corrupt.schreier_vector == table.schreier_vector
    with pytest.raises(InvariantError,
                       match=rf"^Schreier word of \({pair[0]}, 1\) cancels at a junction$"):
        corrupt.schreier_pairs()


def test_product_and_inverse_match_full_reduction():
    # two generators make long cancellations common; b is built from a's
    # inverse often enough that some products cancel completely
    rng = random.Random(23)
    letters = (1, 2, -1, -2)
    complete = 0
    for _ in range(3000):
        a = Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 12))))
        raw_inverse = tuple(-x for x in reversed(a.letters))
        keep = rng.randint(0, len(a))
        b = Word(raw_inverse[:keep] + tuple(rng.choice(letters)
                                            for _ in range(rng.choice((0, 0, 3)))))
        product = a * b
        assert product == Word(a.letters + b.letters)
        assert a.inverse() == Word(raw_inverse)
        complete += product.is_empty() and len(a) > 0
    assert complete > 100


def test_mirror_translation_words_are_rejected():
    # the mirrors a and b of p6m generate a dihedral group of order 12; as
    # translation words they would act on the cosets of the translation
    # subgroup without commuting, and the model is refused when it is built
    p6m = model("p6m")
    fake = replace(p6m, translation_words=(Word((1,)), Word((2,))))
    with pytest.raises(InvariantError, match="^translation word image is not a translation$"):
        fake.validate()


def test_lattice_index_is_checked_against_the_coset_count(monkeypatch):
    # the whole group has one coset, so its lattice is the model's, of index 1
    monkeypatch.setattr(wallpaper, "integer_lattice_basis", lambda pairs: (2, 0, 2))
    with pytest.raises(InvariantError, match="^index identity violated$"):
        translation_lattice(wallpaper.whole_group(model("p6")))


def test_lazy_model_data_is_cached():
    m = model("p4g")
    assert m.lattice() is m.lattice()
    assert m.translation_images() == (m.lattice().b1, m.lattice().b2)
    assert m.translation_images() == tuple(m.evaluate(w).trans
                                           for w in m.translation_words)
    assert m.point_group is m.point_group
    assert len(m.inverse_rep) == m.presentation.ngens
    for g, g_inv in zip(m.rep, m.inverse_rep):
        assert (g * g_inv).is_identity()


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


# -- growth in the index -----------------------------------------------------

def _classify_counts(monkeypatch, n):
    """subgroup() + classify() of p6 > <t1^n, t2^n>, counting the integer
    affine products and Cartesian isometry products; the model's kernel is
    built beforehand."""
    counts = {"amul": 0, "isometry_mul": 0}
    amul, mul = wallpaper._amul, exactgeom.Isometry.__mul__

    def counted_amul(p, q):
        counts["amul"] += 1
        return amul(p, q)

    def counted_mul(self, other):
        counts["isometry_mul"] += 1
        return mul(self, other)

    p6 = model("p6")
    p6.kernel
    monkeypatch.setattr(wallpaper, "_amul", counted_amul)
    monkeypatch.setattr(exactgeom.Isometry, "__mul__", counted_mul)
    t1, t2 = p6.translation_words
    handle = subgroup(p6, [t1 ** n, t2 ** n])
    sig = classify(handle)
    monkeypatch.undo()
    return handle, sig, counts


def test_classification_work_grows_with_the_words_not_the_index(monkeypatch):
    small, sig_small, at_96 = _classify_counts(monkeypatch, 4)
    large, sig_large, at_384 = _classify_counts(monkeypatch, 8)
    assert (small.index, large.index) == (96, 384)
    assert sig_small.names.crystallographic == sig_large.names.crystallographic == "p1"
    assert large.lattice_index == 64
    # classify evaluates the two words, one integer affine product a
    # letter, then closes their images
    assert 0 < at_96["amul"] < at_384["amul"] <= 2 * at_96["amul"], (at_96, at_384)


def test_classification_does_no_isometry_product(monkeypatch):
    for n in (1, 4):
        _, _, counts = _classify_counts(monkeypatch, n)
        assert counts["isometry_mul"] == 0, (n, counts)


def test_classification_does_no_quadnum_product(monkeypatch):
    # the 17 whole groups and their 74 sign kernels, each model's kernel
    # built beforehand
    pairs = []
    for name in MODEL_NAMES:
        m = model(name)
        m.kernel
        pairs.append((m, [Word((i,)) for i in range(1, m.presentation.ngens + 1)]))
        pairs.extend((m, list(hom.kernel_words())) for hom in sign_homs(m.presentation))
    assert len(pairs) == 91
    calls = 0
    mul = exactgeom.QuadNum.__mul__

    def counted_mul(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    def count_products():
        monkeypatch.setattr(exactgeom.QuadNum, "__mul__", counted_mul)
        monkeypatch.setattr(exactgeom.QuadNum, "__rmul__", counted_mul)

    count_products()
    kinds = {classify(subgroup(m, words)).names.crystallographic for m, words in pairs}
    monkeypatch.undo()
    assert kinds == set(MODEL_NAMES)
    assert calls == 0
    # the guard counts: the Cartesian view does multiply
    count_products()
    wallpaper.whole_group(model("p6")).schreier_images
    monkeypatch.undo()
    assert calls > 0


def test_classification_does_not_touch_the_schreier_machinery(monkeypatch):
    # the 17 whole groups, their sign kernels and one sublattice subgroup
    # with a generator per model, classified with the Schreier vector, edges
    # and words made to raise
    pairs = []
    for name in MODEL_NAMES:
        m = model(name)
        t1, t2 = m.translation_words
        pairs.append((m, [Word((i,)) for i in range(1, m.presentation.ngens + 1)]))
        pairs.extend((m, list(hom.kernel_words())) for hom in sign_homs(m.presentation))
        pairs.append((m, [Word((1,)), t1 ** 2 * t2, t2 ** 3]))
    expected = [classify(subgroup(m, words)) for m, words in pairs]

    def refuse(*args):
        raise AssertionError("classify reached the Schreier machinery")

    monkeypatch.setattr(cosetenum.CosetTable, "schreier_vector", property(refuse))
    monkeypatch.setattr(cosetenum.CosetTable, "schreier_edges", refuse)
    monkeypatch.setattr(cosetenum.CosetTable, "schreier_generators", refuse)
    assert [classify(subgroup(m, words)) for m, words in pairs] == expected
    assert len({sig.names.crystallographic for sig in expected}) == len(MODEL_NAMES)


def test_classification_memory_per_coset():
    # p6 > <t1^64, t2^64> has 24,576 cosets; classify allocates nothing per
    # coset above subgroup(), only the images of two 192-letter words
    p6 = model("p6")
    p6.kernel
    t1, t2 = p6.translation_words
    handle = subgroup(p6, [t1 ** 64, t2 ** 64])
    assert handle.index == 24576
    tracemalloc.start()
    try:
        sig = classify(handle)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sig.names.crystallographic == "p1"
    # a few kilobytes, where the table holds about 100 bytes a coset
    assert held <= 4096, held
    assert peak <= 16384, peak
