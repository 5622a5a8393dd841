"""The benchmark's three workloads: seeded operations and their oracles.

Every operation carries the answer it must produce.  The answers come from
how the input was built (a known group order, an index fixed by the shape of
a sublattice, a rotation order read off the model's relators), never from
the code under test.  `check` returns one message per disagreement; an empty
list means the operation's output is correct.
"""
from __future__ import annotations

import random
from typing import Any, Callable

from orbiforge import cosetenum, fpgroup, verify, wallpaper
from orbiforge.fpgroup import AbelianGroup, Presentation, Word

WORKLOADS = ("verify-paper", "classify-ladder", "enumerate-corpus")

# Stage attributes of a subgroup handle, in the order `classify` needs them.
# The traced run touches them one by one so each stage gets its own span.
STAGES = ("schreier_images", "point_group", "lattice", "classes")


class Op:
    """One operation of a pass.

    `run(traced)` does the timed work and returns its result; `check(result)`
    compares it with the oracle outside the timed region.  `units` is how
    many operations the call stands for in `attempted`, and `latencies_ms`
    turns a result and its wall time into latency samples.
    """

    def __init__(self, name: str, run: Callable[[bool], Any],
                 check: Callable[[Any], list[str]], units: int = 1,
                 latencies_ms: Callable[[Any, float], list[float]] | None = None):
        self.name = name
        self.run = run
        self.check = check
        self.units = units
        self.latencies_ms = latencies_ms or (lambda result, ms: [ms])


# -- verify-paper ------------------------------------------------------------

MACHINE_CHECKS = tuple(c.id for c in verify.CHECKS if c.kind == "machine")
EXPECTED_COUNTS = {"pass": 12, "fail": 0, "cited": 3}


def verify_op(seed: int, expected: dict[str, int] = EXPECTED_COUNTS) -> Op:
    """`orbiforge verify-paper --seed S` as one call; its latency samples are
    the 12 machine checks' own wall times.  Every pass of a run uses the same
    seed, so every report must match the first one byte for byte."""
    first_json: list[str] = []

    def run(traced: bool):
        return verify.run_verification(seed=seed)

    def check(report) -> list[str]:
        errors = [f"{o.id}: {o.status}" for o in report.outcomes
                  if o.status not in ("pass", "cited")]
        counts = {"pass": report.passed, "fail": report.failed, "cited": report.cited}
        if counts != expected:
            errors.append(f"counts {counts}, expected {expected}")
        text = verify.report_json(report)
        if not first_json:
            first_json.append(text)
        elif text != first_json[0]:
            errors.append(f"report_json differs from the first report for seed {seed}")
        return errors

    def latencies(report, ms: float) -> list[float]:
        return [o.wall_time_ms for o in report.outcomes if o.id in MACHINE_CHECKS]

    return Op(f"verify-paper[seed={seed}]", run, check,
              units=len(MACHINE_CHECKS), latencies_ms=latencies)


def verify_paper(seed: int) -> list[Op]:
    return [verify_op(seed)]


# -- classify-ladder ---------------------------------------------------------

# |P(G)|, the point-group order of each model.
POINT_GROUP_ORDER = {
    "p1": 1, "p2": 2, "pm": 2, "pg": 2, "cm": 2, "pmm": 4, "pmg": 4, "pgg": 4,
    "cmm": 4, "p3": 3, "p4": 4, "p4m": 8, "p4g": 8, "p3m1": 6, "p31m": 6,
    "p6": 6, "p6m": 12,
}

# Rotation words of each model by rotation order.  Each order follows from the
# model's relators: a generator power (p6: a^6, b^3), a product of two
# mirrors meeting at the stated angle ((pq)^4 in p4m), or a half-turn.
ROTATIONS: dict[str, dict[int, list[tuple[int, ...]]]] = {
    "p2": {2: [(1,), (2,), (3,), (4,)]},
    "pmm": {2: [(1, 2), (2, 3)]},
    "pmg": {2: [(1,)]},
    "pgg": {2: [(1,)]},
    "cmm": {2: [(1, 2)]},
    "p3": {3: [(1,), (2,)]},
    "p4": {4: [(1,), (1, 2)], 2: [(2,)]},
    "p4m": {4: [(1, 2), (2, 3)], 2: [(1, 3)]},
    "p4g": {4: [(1,)]},
    "p3m1": {3: [(1, 2), (2, 3)]},
    "p31m": {3: [(1,)]},
    "p6": {6: [(1,)], 3: [(2,)], 2: [(1, 2), (1, 1, 1)]},
    "p6m": {6: [(1, 2)], 3: [(2, 3)], 2: [(1, 3)]},
}

ROTATION_TYPE = {2: "p2", 3: "p3", 4: "p4", 6: "p6"}

# The ladder: (model, "T2", a*c) for a translation sublattice <t1^a t2^b, t2^c>,
# or (model, "rot", k, n) for <g, t1^n, t2^n> with g a rotation of order k.
# Four tiers by index; every model appears in the first two.  The third
# tier holds the 7 costliest operations after the index-96 one, so that the
# tail percentile (the 11th slowest at two passes, the 16th at three) falls inside
# it instead of on the edge between two tiers.  The seed picks the shapes of
# the first tier and the order of all operations; the other tiers keep one
# shape each, so the median and the tail do not move with the seed.
SEEDED_SLOTS = (
    # index 4 to 12
    ("p1", "T2", 6), ("p2", "rot", 2, 2), ("pm", "T2", 3), ("pg", "T2", 2),
    ("cm", "T2", 4), ("pmm", "T2", 2), ("pmg", "T2", 1), ("pgg", "T2", 2),
    ("cmm", "T2", 1), ("p3", "rot", 3, 3), ("p4", "rot", 4, 3), ("p4m", "T2", 1),
    ("p4g", "T2", 1), ("p3m1", "T2", 1), ("p31m", "T2", 1), ("p6", "rot", 6, 2),
    ("p6m", "T2", 1),
)
FIXED_SLOTS = (
    # index 8 to 16
    ("p1", "T2", 12), ("p2", "T2", 4), ("pm", "T2", 6), ("pg", "T2", 6),
    ("pmm", "rot", 2, 2), ("pmg", "rot", 2, 2), ("pgg", "rot", 2, 2),
    ("cmm", "rot", 2, 2), ("p3", "T2", 4), ("p4", "rot", 2, 2), ("p4", "rot", 4, 4),
    ("p4m", "rot", 4, 2), ("p4g", "rot", 4, 2), ("p3m1", "rot", 3, 2),
    ("p31m", "rot", 3, 2), ("p6", "rot", 3, 2), ("p6m", "rot", 6, 2),
    # index 24 to 36
    ("p1", "T2", 36), ("p2", "T2", 12), ("p3", "T2", 12), ("p3", "rot", 3, 6),
    ("p4", "rot", 2, 4), ("p6", "rot", 6, 5), ("p6", "rot", 3, 4),
    # index 96
    ("p6", "T2", 16),
)
LADDER = SEEDED_SLOTS + FIXED_SLOTS


def _divisor_pairs(product: int) -> list[tuple[int, int]]:
    """Factorizations a*c with neither side more than four times the other:
    a long thin quotient would deepen the transversal and make the cost of
    a slot depend on the seed."""
    return [(a, product // a) for a in range(1, product + 1)
            if product % a == 0 and max(a * a, product) <= 4 * min(a * a, product)]


def classify_op(name: str, words: list[Word], model_name: str,
                expected_type: str, expected_index: int,
                expected_lattice_index: int) -> Op:
    """subgroup() + classify() on one model; the traced run first touches the
    classification stages one by one."""
    def run(traced: bool):
        handle = wallpaper.subgroup(wallpaper.model(model_name), words)
        if traced:
            for stage in STAGES:
                getattr(handle, stage)
        return handle, wallpaper.classify(handle)

    def check(result) -> list[str]:
        handle, sig = result
        got = (sig.names.crystallographic, handle.index, handle.lattice_index)
        want = (expected_type, expected_index, expected_lattice_index)
        return [] if got == want else [f"{name}: got {got}, expected {want}"]

    return Op(name, run, check)


def ladder_op(slot: tuple, rng: random.Random) -> Op:
    model_name, family = slot[0], slot[1]
    group = wallpaper.model(model_name)
    t1, t2 = group.translation_words
    order = POINT_GROUP_ORDER[model_name]
    if family == "T2":
        a, c = rng.choice(_divisor_pairs(slot[2]))
        b = rng.randrange(c)
        words = [t1 ** a * t2 ** b, t2 ** c]
        return classify_op(f"{model_name} T2 a={a} b={b} c={c}", words, model_name,
                           "p1", order * a * c, a * c)
    k, n = slot[2], slot[3]
    g = Word(rng.choice(ROTATIONS[model_name][k]))
    return classify_op(f"{model_name} rot{k} {group.presentation.spell(g)} n={n}",
                       [g, t1 ** n, t2 ** n], model_name,
                       ROTATION_TYPE[k], order * n * n // k, n * n)


def classify_ladder(seed: int) -> list[Op]:
    rng, fixed = random.Random(seed), random.Random(0)
    ops = [ladder_op(slot, rng) for slot in SEEDED_SLOTS] + \
        [ladder_op(slot, fixed) for slot in FIXED_SLOTS]
    rng.shuffle(ops)
    return ops


# -- enumerate-corpus --------------------------------------------------------

def coxeter_symmetric(n: int) -> Presentation:
    """Coxeter presentation of S_n on the adjacent transpositions."""
    gens = tuple(f"s{i}" for i in range(1, n))
    rels = []
    for i in range(1, n):
        rels.append(Word((i, i)))
        for j in range(i + 1, n):
            rels.append(Word((i, j) * (3 if j == i + 1 else 2)))
    return Presentation(f"S{n}", gens, tuple(rels))


def fibonacci_group(r: int, n: int) -> Presentation:
    """F(r, n) = <x_0..x_{n-1} | x_i x_{i+1} .. x_{i+r-1} = x_{i+r}>."""
    gens = tuple(f"x{i}" for i in range(n))
    rels = [Word(tuple(1 + (i + k) % n for k in range(r)) + (-(1 + (i + r) % n),))
            for i in range(n)]
    return Presentation(f"F({r},{n})", gens, tuple(rels))


A8B7 = Presentation("a8b7", ("a", "b"), (
    Word((1,) * 8), Word((2,) * 7), Word((1, 2) * 2), Word((-1, 2) * 3)))
PSL27 = Presentation("PSL(2,7)", ("a", "b"), (
    Word((1, 1)), Word((2, 2, 2)), Word((1, 2) * 7), Word((-1, -2, 1, 2) * 4)))


def enumerate_op(name: str, pres: Presentation, sub: list[Word],
                 expected_index: int) -> Op:
    def run(traced: bool):
        return cosetenum.todd_coxeter(pres, sub).index

    def check(index) -> list[str]:
        return [] if index == expected_index else \
            [f"{name}: index {index}, expected {expected_index}"]

    return Op(name, run, check)


def schreier_op(name: str, pres: Presentation, sub: list[Word],
                expected_index: int) -> Op:
    """Enumerate, then list the Schreier generators; a subgroup of index k in
    a group on r generators has k(r-1)+1 of them."""
    expected_count = expected_index * (pres.ngens - 1) + 1

    def run(traced: bool):
        table = cosetenum.todd_coxeter(pres, sub)
        return table.index, len(table.schreier_generators())

    def check(result) -> list[str]:
        want = (expected_index, expected_count)
        return [] if result == want else [f"{name}: got {result}, expected {want}"]

    return Op(name, run, check)


def rs_op(name: str, pres: Presentation, sub: list[Word], expected_index: int,
          expected_ab: AbelianGroup) -> Op:
    """Reidemeister-Schreier presentation of a subgroup, then its
    abelianization."""
    def run(traced: bool):
        table = cosetenum.todd_coxeter(pres, sub)
        sp = cosetenum.reidemeister_schreier(table)
        return table.index, fpgroup.abelianization(sp.presentation)

    def check(result) -> list[str]:
        want = (expected_index, expected_ab)
        return [] if result == want else [f"{name}: got {result}, expected {want}"]

    return Op(name, run, check)


def enumerate_corpus(seed: int) -> list[Op]:
    rng = random.Random(seed)
    s6, s7 = coxeter_symmetric(6), coxeter_symmetric(7)
    ops = [
        enumerate_op("S6 coxeter", s6, [], 720),
        enumerate_op("S7 coxeter", s7, [], 5040),
        enumerate_op("F(2,7)", fibonacci_group(2, 7), [], 29),
        enumerate_op("a8b7", A8B7, [], 10752),
        enumerate_op("PSL(2,7)", PSL27, [], 168),
        rs_op("S7 > S6 reidemeister-schreier", s7, [Word((i,)) for i in range(1, 6)],
              7, AbelianGroup(0, (2,))),
    ]
    # <t1^n, t2^n> is normal in p6, so every conjugate names the same subgroup
    # of index 6n^2: the seed picks the six conjugators, n stays 48.  The six
    # tables are alike in cost and sit between S7 and the small groups, so
    # both the median and the tail latency fall among them, away from the
    # edge of a block of unlike operations.
    p6 = wallpaper.model("p6")
    t1, t2 = p6.translation_words
    n = 48
    for _ in range(6):
        w = Word(tuple(rng.choice((1, 2, -1, -2)) for _ in range(rng.randint(1, 3))))
        ops.append(enumerate_op(f"p6 > <t1^{n}, t2^{n}>^({p6.presentation.spell(w)})",
                                p6.presentation,
                                [(t1 ** n).conjugate(w), (t2 ** n).conjugate(w)], 6 * n * n))
    p1 = wallpaper.model("p1")
    n = 4000
    ops.append(schreier_op(f"p1 > <t^{n}, u> schreier", p1.presentation,
                           [Word((1,)) ** n, Word((2,))], n))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "verify-paper": verify_paper,
    "classify-ladder": classify_ladder,
    "enumerate-corpus": enumerate_corpus,
}

# The fewest passes a run makes, whatever --seconds says; together with the
# units per pass this fixes the tail percentile of each workload.  On
# enumerate-corpus two passes put the tail (p61.5: the 11th slowest of 26,
# the 16th of 39 at the usual three passes) among the six p6 tables; a
# minimum of three would put it on the edge between S7 and the three
# costliest operations, where it moves with S7's slowest sample.  A
# classify-ladder pass takes about 12 seconds, so two passes keep its runs as
# short as the others'.
MIN_PASSES = {"verify-paper": 4, "classify-ladder": 2, "enumerate-corpus": 2}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)
