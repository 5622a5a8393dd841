"""Words, Smith normal form, abelianization, and sign homomorphisms."""
import hashlib
import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiforge.fixtures import load_fixture
from orbiforge.fpgroup import (AbelianGroup, IntMatrix, Presentation,
                               PresentationError, SignHom, Word, abelianization,
                               diagonal_of, free_reduce, quotient, sign_homs,
                               smith_normal_form)

letters = st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
                   max_size=20)


class TestWords:
    def test_cancellation(self):
        assert free_reduce([1, -1, 2]).letters == (2,)

    def test_no_cancellation(self):
        assert free_reduce([1, 2, 1, 2]).letters == (1, 2, 1, 2)

    def test_full_collapse(self):
        assert free_reduce([2, -1, 1, -2]).is_empty()

    @given(letters)
    @settings(max_examples=100)
    def test_idempotent(self, raw):
        once = free_reduce(raw)
        assert free_reduce(once.letters) == once

    @given(letters)
    @settings(max_examples=100)
    def test_inverse_cancels(self, raw):
        w = free_reduce(raw)
        assert (w * w.inverse()).is_empty()

    @given(letters, letters, letters)
    @settings(max_examples=60)
    def test_concatenation_associative(self, a, b, c):
        x, y, z = Word(tuple(a)), Word(tuple(b)), Word(tuple(c))
        assert (x * y) * z == x * (y * z)

    def test_unknown_generator_rejected(self):
        p = Presentation("t", ("a", "b"), ())
        with pytest.raises(PresentationError, match="^letter out of range for 't'$"):
            p.word([3])

    def test_relator_must_be_a_word(self):
        with pytest.raises(PresentationError, match=r"^relator \(1, 1\) is not a Word$"):
            Presentation("x", ("a",), [(1, 1)])

    # every way letters enter from outside the package
    LETTER_PATHS = {
        "Word": Word,
        "free_reduce": free_reduce,
        "Presentation.word": Presentation("t", ("a", "b"), ()).word,
    }

    @pytest.mark.parametrize("path", sorted(LETTER_PATHS))
    @pytest.mark.parametrize("bad", [1.0, True, False, "x", None],
                             ids=["float", "true", "false", "str", "none"])
    def test_a_letter_that_is_not_an_int_is_refused(self, path, bad):
        # 1.0 and True equal 1 and False equals 0, yet none is a letter
        with pytest.raises(PresentationError,
                           match=f"^{re.escape(repr(bad))} is not a valid generator letter$"):
            self.LETTER_PATHS[path]([1, bad, -1])

    @pytest.mark.parametrize("path", sorted(LETTER_PATHS))
    def test_zero_is_refused(self, path):
        # also where free reduction would cancel the letters around it
        with pytest.raises(PresentationError, match="^0 is not a valid generator letter$"):
            self.LETTER_PATHS[path]([2, 0, -2])

    def test_shift_checks_the_letters_of_a_negative_offset(self):
        assert Word((3, -2)).shift(-1).letters == (2, -1)
        with pytest.raises(PresentationError, match="^0 is not a valid generator letter$"):
            Word((1, 2)).shift(-1)
        with pytest.raises(PresentationError, match=r"^1\.5 is not a valid generator letter$"):
            Word((1,)).shift(0.5)
        assert Word((1, -2)).shift(2).letters == (3, -4)


def _minor_gcd_invariant_factors(rows):
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = IntMatrix.from_rows(rows)
    r, c = m.rows, m.cols
    factors = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for ris in itertools.combinations(range(r), k):
            for cis in itertools.combinations(range(c), k):
                sub = IntMatrix.from_rows(
                    [[m[i, j] for j in cis] for i in ris])
                g = gcd(g, abs(sub.det()))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


class TestSmithNormalForm:
    def test_already_diagonal(self):
        u, d, v = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert diagonal_of(d) == [2, 2]
        assert u == IntMatrix.identity(2) and v == IntMatrix.identity(2)

    def test_classic_2x2(self):
        # oracle: d1 = gcd of entries = 1, d1*d2 = |det| = 2
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert _minor_gcd_invariant_factors([[1, 2], [3, 4]]) == [1, 2]
        u, d, v = smith_normal_form(a)
        assert diagonal_of(d) == [1, 2]
        assert u @ a @ v == d

    def test_zero_matrix(self):
        a = IntMatrix.from_rows([[0, 0], [0, 0]])
        u, d, v = smith_normal_form(a)
        assert diagonal_of(d) == [0, 0]
        assert u == IntMatrix.identity(2) and v == IntMatrix.identity(2)

    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_postconditions_and_oracle(self, rows):
        a = IntMatrix.from_rows(rows)
        u, d, v = smith_normal_form(a)
        assert u.is_unimodular() and v.is_unimodular()
        assert u @ a @ v == d
        diag = diagonal_of(d)
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i, j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for i in range(1, len(nonzero)):
            assert nonzero[i] % nonzero[i - 1] == 0
        assert nonzero == _minor_gcd_invariant_factors(rows)


# exponent sums of a 6-relator, 7-generator presentation on which repeated
# quotient-and-swap elimination grew entries past 21,000 bits
BLOWUP_ROWS = [[49, 6, 6, -20, 2, 0, 6], [-2, 2, 3, -2, 3, 2, 42],
               [-2, -43, 6, -1, 0, -2, 3], [-2, -4, 3, 1, 0, 0, 3],
               [-4, 0, 0, -4, 0, 6, 0], [1, -2, 1, -37, 2, -4, 1]]

medium_matrices = st.integers(min_value=1, max_value=8).flatmap(
    lambda r: st.integers(min_value=1, max_value=8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-50, max_value=50), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def _assert_smith_form(a, u, d, v):
    assert u.rows == u.cols == a.rows and v.rows == v.cols == a.cols
    assert u.is_unimodular() and v.is_unimodular()
    assert u @ a @ v == d
    assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    nonzero = [x for x in diagonal_of(d) if x]
    assert nonzero == diagonal_of(d)[:len(nonzero)]
    assert all(x > 0 for x in nonzero)
    assert all(nonzero[i] % nonzero[i - 1] == 0 for i in range(1, len(nonzero)))


class TestIntMatrix:
    @pytest.mark.parametrize("entry", [2.7, Fraction(7, 2), 2.0, Fraction(2)])
    def test_entries_must_be_integers(self, entry):
        # int() would truncate 2.7 to 2 and Smith normal form would run on it
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [entry, 1])
        m = IntMatrix(1, 2, [0, 1])
        with pytest.raises(TypeError):
            m[0, 1] = entry
        assert m.entries == [0, 1]

    def test_empty_determinant_and_repr(self):
        assert IntMatrix(0, 0, []).det() == 1
        assert repr(IntMatrix.from_rows([[1, -2], [3, 4]])) == "IntMatrix([[1, -2], [3, 4]])"


class TestSmithNormalFormGrowth:
    def test_entries_stay_small_on_the_blowup_matrix(self):
        a = IntMatrix.from_rows(BLOWUP_ROWS)
        u, d, v = smith_normal_form(a)
        _assert_smith_form(a, u, d, v)
        assert diagonal_of(d) == [1, 1, 1, 1, 2, 2]
        assert diagonal_of(d) == _minor_gcd_invariant_factors(BLOWUP_ROWS)
        assert max(abs(e) for m in (u, d, v) for e in m.entries).bit_length() <= 32

    @given(medium_matrices)
    @settings(max_examples=150, deadline=None)
    def test_postconditions_up_to_8x8(self, rows):
        a = IntMatrix.from_rows(rows)
        _assert_smith_form(a, *smith_normal_form(a))

    def test_zero_rows(self):
        # a presentation without relators has a 0 x n relator matrix
        u, d, v = smith_normal_form(IntMatrix(0, 3, []))
        assert (u.rows, u.cols, d.rows, d.cols) == (0, 0, 0, 3)
        assert v == IntMatrix.identity(3)


# sha256 of repr([(u.entries, d.entries, v.entries), ...]) over BLOWUP_ROWS and
# 2000 seeded matrices, recorded from the elimination that first defined U
# and V: the tests above check only properties of U and V, and a rewrite
# could return another valid pair
SNF_GOLDEN_HASH = "ef8284c4e8c07d9597d4d26201fa2e820e9af7d9da58476026f9716cd0325d9a"


def _snf_golden_inputs():
    yield IntMatrix.from_rows(BLOWUP_ROWS)
    rng = random.Random(24)
    for _ in range(2000):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        yield IntMatrix(r, c, [rng.randint(-50, 50) if rng.random() < 0.6 else 0
                               for _ in range(r * c)])


def test_smith_normal_form_golden():
    out = [(u.entries, d.entries, v.entries)
           for u, d, v in map(smith_normal_form, _snf_golden_inputs())]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == SNF_GOLDEN_HASH


@pytest.mark.parametrize("free_rank, torsion, message", [
    (-1, (), "free rank must be a non-negative int"),
    (True, (2,), "free rank must be a non-negative int"),
    (1.0, (), "free rank must be a non-negative int"),
    (0, (2.0, 4), "torsion coefficients must be ints"),
    (0, (True,), "torsion coefficients must be ints"),
    (0, (Fraction(2), 4), "torsion coefficients must be ints"),
    (0, (1,), "torsion coefficients must be >= 2"),
    (0, (2, 3), "torsion coefficients must form a divisor chain"),
])
def test_abelian_group_refuses_values_that_are_not_invariants(free_rank, torsion, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AbelianGroup(free_rank, torsion)


def test_abelian_group_stores_torsion_as_a_tuple():
    group = AbelianGroup(0, [2, 4])
    assert group == AbelianGroup(0, (2, 4)) and hash(group) == hash(AbelianGroup(0, (2, 4)))


class TestAbelianization:
    def test_tetrahedral_group(self):
        gamma = load_fixture("tetrahedral")
        assert abelianization(gamma) == AbelianGroup(0, (2, 2))

    def test_figure_eight_knot_group(self):
        fig8 = load_fixture("figure8")
        assert abelianization(fig8) == AbelianGroup(1)

    def test_cyclic_six(self):
        p = Presentation("c6", ("a",), (Word((1,) * 6),))
        assert abelianization(p) == AbelianGroup(0, (6,))

    def test_invariant_under_relator_permutation(self):
        gamma = load_fixture("tetrahedral")
        shuffled = Presentation(gamma.name, gamma.generators,
                                tuple(reversed(gamma.relators)))
        assert abelianization(shuffled) == abelianization(gamma)

    def test_invariant_under_consequence_relator(self):
        p6 = load_fixture("p6")
        extra = p6.relators[0].conjugate(Word((2, 1))) * p6.relators[1]
        assert abelianization(quotient(p6, [extra])) == abelianization(p6)

    def test_quotient_identity(self):
        p6 = load_fixture("p6")
        assert quotient(p6, []) is p6

    def test_quotient_word_on_an_unknown_generator(self):
        with pytest.raises(PresentationError, match="generator #3 but only 2 exist"):
            quotient(load_fixture("p6"), [Word((1,)), Word((-3,))])

    def test_quotient_word_must_be_a_word(self):
        # quotient's extra words go through the constructor's relator check
        with pytest.raises(PresentationError, match=r"^relator \(1,\) is not a Word$"):
            quotient(load_fixture("p6"), [Word((1,)), (1,)])

    @pytest.mark.parametrize("name", [None, "p6.T"])
    def test_quotient_equals_the_public_constructor(self, name):
        # quotient skips re-validating p's relators; its result must still be
        # the value the validating constructor builds, hash included
        p6 = load_fixture("p6")
        extra = [Word((1, 2)), Word((-2, -2, 1))]
        q = quotient(p6, extra, name=name)
        public = Presentation(name or "p6_mod", p6.generators, p6.relators + tuple(extra))
        assert type(q) is Presentation
        assert type(q.generators) is tuple and type(q.relators) is tuple
        assert q == public
        assert hash(q) == hash(public)
        assert q.relators[:len(p6.relators)] == p6.relators


class TestSignHoms:
    def test_p6_has_exactly_one(self):
        # oracle: b^3 forces b -> +1, leaving only a -> -1
        p6 = load_fixture("p6")
        homs = sign_homs(p6)
        assert len(homs) == 1
        assert homs[0].signs == (-1, 1)

    def test_tetrahedral_has_three(self):
        assert len(sign_homs(load_fixture("tetrahedral"))) == 3

    def test_odd_torsion_kills_sign_maps(self):
        p = Presentation("c3", ("a",), (Word((1, 1, 1)),))
        assert sign_homs(p) == []

    def test_count_matches_mod2_homology(self):
        for fixture in ("p6", "p4", "tetrahedral", "figure8"):
            p = load_fixture(fixture)
            ab = abelianization(p)
            exponent = ab.free_rank + sum(1 for d in ab.torsion if d % 2 == 0)
            assert len(sign_homs(p)) + 1 == 2 ** exponent

    def test_kernel_words_have_positive_sign(self):
        p6 = load_fixture("p6")
        hom = sign_homs(p6)[0]
        for w in hom.kernel_words():
            assert hom.evaluate(w) == 1

    def test_lexicographic_order(self):
        p = Presentation("free2", ("a", "b"), ())
        assert [h.signs for h in sign_homs(p)] == [(-1, -1), (-1, 1), (1, -1)]


FREE2 = Presentation("t", ("a", "b"), ())


@pytest.mark.parametrize("call, exc, message", [
    (lambda: Presentation("t", ("a", "a"), ()), PresentationError,
     "^duplicate generator names in 't'$"),
    (lambda: FREE2.gen_index("c"), PresentationError, "^unknown generator 'c' in 't'$"),
    (lambda: IntMatrix(2, 2, [1]), ValueError, r"^entry count must equal rows\*cols$"),
    (lambda: IntMatrix(1, 2, [1, 2]) @ IntMatrix(1, 2, [1, 2]), ValueError, "^shape mismatch$"),
    (lambda: IntMatrix(1, 2, [1, 2]).det(), ValueError, "^determinant of a non-square matrix$"),
    (lambda: SignHom(FREE2, (-1,)), PresentationError, "^one sign per generator required$"),
    (lambda: SignHom(FREE2, (-1, 0)), PresentationError, r"^signs must be \+1 or -1$"),
    (lambda: SignHom(FREE2, (1, 1)).kernel_words(), PresentationError,
     "^trivial sign map has no index-2 kernel$"),
], ids=["duplicate-generator", "unknown-generator", "entry-count", "shape", "non-square",
        "sign-count", "sign-value", "trivial-sign-map"])
def test_input_errors(call, exc, message):
    with pytest.raises(exc, match=message):
        call()
