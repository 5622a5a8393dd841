"""Test-side oracles that share no code with the classifier, with the
order-2 certificate or with the random amalgam generator."""
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, lcm

from orbiforge.cosetenum import todd_coxeter
from orbiforge.exactgeom import Isometry
from orbiforge.fpgroup import Presentation, Word, abelianization, quotient, tietze_pass
from orbiforge.knotcusp import AmalgamSpec, GluingDatum
from orbiforge.lattice import InvalidLatticeError, Lattice2
from orbiforge.wallpaper import model


def closure(gens, identity, mul):
    """Identity first, then every product x*g in BFS discovery order."""
    gens = list(dict.fromkeys(gens))
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                prod = mul(x, g)
                if prod not in seen:
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return tuple(seen)


def index_in(small, large):
    """[large : small] for a sublattice, as an exact positive integer: the
    ratio of the Q(sqrt3) determinants."""
    if not (large.contains(small.b1) and large.contains(small.b2)):
        raise InvalidLatticeError("not a sublattice")
    ratio = abs(small.det() / large.det())
    if not ratio.is_integer():
        raise InvalidLatticeError("determinant ratio is not an integer")
    return ratio.p  # an integer QuadNum is p/1


def hermite(pairs):
    """(a, b, g) such that (a, b), (0, g) is the Hermite basis of the lattice
    the integer pairs span, by a Euclidean elimination of its own; None when
    they span no rank-2 lattice."""
    a = b = g = 0
    for x, y in pairs:
        while x:
            q = a // x
            (a, b), (x, y) = (x, y), (a - q * x, b - q * y)
        g = gcd(g, y)
    if a == 0 or g == 0:
        return None
    if a < 0:
        a, b = -a, -b
    return a, b % g, g


@lru_cache(maxsize=None)
def model_lifts(model):
    """One element of the model per linear part, with a word evaluating to
    it: a BFS from the identity, f |-> g f over the generator images, in
    exact Cartesian arithmetic."""
    lifts = [(Isometry.identity(), Word(()))]
    seen = {lifts[0][0].linear}
    for f, w in lifts:
        for k, g in enumerate(model.rep, 1):
            h = g * f
            if h.linear not in seen:
                seen.add(h.linear)
                lifts.append((h, Word((k,)) * w))
    return tuple(lifts)


def model_denominator(model):
    """N: the lcm of the denominators of the generators' translations in
    the basis of the model's translation lattice."""
    inverse = model.lattice()._inverse_basis
    coords = [inverse * iso.trans for iso in model.rep]
    return lcm(*(c.a.denominator for v in coords for c in (v.x, v.y)))


def _integer(x):
    assert x.b == 0 and x.a.denominator == 1, x
    return int(x.a)


def table_path(handle):
    """((a, b, g), classes, point group) of a subgroup, read off its coset
    table the way classification did before it read the subgroup's words.

    t1 and t2 act on the cosets by commuting permutations.  A BFS over the
    orbit of coset 0 maps each coset c it reaches to one (i, j) with
    c = 0 t1^i t2^j, and each edge into a coset already reached gives a pair
    (i, j) with t1^i t2^j in the subgroup; those pairs generate all such
    (Schreier's lemma), and their Hermite form gives (a, b, g).  A lift f of
    the model, with word w, has an element of the subgroup over its linear
    part exactly when the coset 0 w^-1 is in the orbit, at (i, j): then
    t1^i t2^j f is one.  Each class is (m, (x, y)): the linear part and the
    translation in the basis of the subgroup's lattice, x and y Fractions
    reduced into [0, 1), in lift order; the point group is the Cartesian
    linear parts in the same order."""
    model, table = handle.model, handle.table
    perm1, perm2 = ([table.trace(w, c) for c in range(table.index)]
                    for w in model.translation_words)
    assert all(perm1[perm2[c]] == perm2[perm1[c]] for c in range(table.index))
    exponents = {0: (0, 0)}
    queue = [0]
    pairs = []
    for c in queue:
        i, j = exponents[c]
        for d, e in ((perm1[c], (i + 1, j)), (perm2[c], (i, j + 1))):
            if d not in exponents:
                exponents[d] = e
                queue.append(d)
            elif exponents[d] != e:
                pairs.append((e[0] - exponents[d][0], e[1] - exponents[d][1]))
    a, b, g = hermite(pairs)
    v1, v2 = model.translation_images()
    lattice = Lattice2(v1.scale(a) + v2.scale(b), v2.scale(g))
    basis, inverse = lattice.basis_matrix(), lattice._inverse_basis
    classes, linear = [], []
    for f, w in model_lifts(model):
        c = table.trace(w.inverse())
        if c in exponents:
            i, j = exponents[c]
            m = inverse * f.linear * basis
            t = inverse * (f.trans + v1.scale(i) + v2.scale(j))
            x, y = t.x.a, t.y.a
            assert t.x.b == t.y.b == 0
            classes.append((tuple(map(_integer, (m.m11, m.m12, m.m21, m.m22))),
                            (x - floor(x), y - floor(y))))
            linear.append(f.linear)
    return (a, b, g), tuple(classes), tuple(linear)


def assert_matches_table_path(handle):
    """The handle's Hermite triple, lattice index, integer classes and point
    group equal the table path's, value for value and in lift order."""
    triple, classes, linear = table_path(handle)
    a, _, g = triple
    d, got = handle.integer_classes
    assert handle._hermite == triple
    assert handle.lattice_index == a * g
    assert d == a * g * model_denominator(handle.model)
    assert tuple((m, (Fraction(x, d), Fraction(y, d))) for m, (x, y) in got) == classes
    assert handle.point_group == linear


def order_two_full_path(p, extras, name):
    """(order, abelianization, Tietze pass) of p modulo the normal closure
    of the extras, the way the order-2 certificate computed them before it
    read exponent sums: `quotient`, one `tietze_pass` (each single-letter
    extra deletes its generator), then coset enumeration of the trivial
    subgroup and the Smith form on the smaller presentation.  The last value
    is the pass's (presentation, survivors)."""
    reduced = tietze_pass(quotient(p, extras, name))
    q = reduced[0]
    return todd_coxeter(q).index, abelianization(q), reduced


def below(bits, n):
    """A draw from range(n) through the getrandbits of a `random.Random`, bit
    for bit as `Random._randbelow` draws it: k = n.bit_length() bits, again
    while the value is n or more."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_conjugator(bits, n):
    """Up to 6 letters over n knot generators: a length, then per letter a
    sign (choice of -1 or 1) and a generator."""
    return Word(tuple((2 * below(bits, 2) - 1) * (1 + below(bits, n))
                      for _ in range(below(bits, 7))))


def random_knot_presentation(rng):
    """The random knot presentation as `knotcusp` drew it before it spelled
    each relator as one letter tuple: one `below` call per value, each
    relator i (w j w^-1)^-1 a product of `Word`s, the result a checked
    `Presentation`."""
    bits = rng.getrandbits
    n = 1 + below(bits, 3)
    gens = tuple(f"mu{i + 1}" for i in range(n))
    relators = []
    for i in range(2, n + 1):
        j = 1 + below(bits, i - 1)
        w = random_conjugator(bits, n)
        relators.append(Word((i,)) * (w * Word((j,)) * w.inverse()).inverse())
    return Presentation(f"knot{n}", gens, tuple(relators))


def random_amalgam(rng, cusp_name):
    """The random amalgam spec as `knotcusp` drew it, on the same stream."""
    knot = random_knot_presentation(rng)
    cusp = model(cusp_name).presentation
    bits = rng.getrandbits
    gluings = []
    for c in cusp.generators:
        for k in knot.generators:
            w = random_conjugator(bits, knot.ngens)
            gluings.append(GluingDatum(c, k, w, below(bits, 7) - 3, below(bits, 7) - 3))
    return AmalgamSpec(cusp_name, knot, tuple(gluings))
