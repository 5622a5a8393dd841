"""One fresh interpreter of the benchmark.  `run.py` starts it; it prints one
JSON object on its last line of output.

Modes:
  setup   import orbiforge and build all 17 models through model(); report the time
          and the host speed right after it
  timed   setup, then untraced passes over the workload for --seconds
  traced  setup, then untraced and traced passes in turn for --seconds, plus
          the exactgeom kernel measurements; reports the per-layer metrics
  memory  setup, then one pass with tracemalloc peaks around todd_coxeter and
          schreier_generators
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import tracing

# -- host speed ------------------------------------------------------------------
#
# The host is a shared VM whose speed wanders by a quarter or more, over
# seconds to minutes (README, "Measured spread"), so raw times of the same
# code differ more from run to run than any bound a regression check could
# use.  The benchmark therefore times a fixed reference slice next to the
# work, in the same process, and reports every end-to-end time at reference
# speed: measured seconds x REFERENCE_S / the reference slice's measured
# seconds.  The slice uses only the standard library, so no change to
# orbiforge can move it.

# Seconds the reference slice takes at reference speed (about its median on
# a 2-core Intel Xeon VM under Python 3.11); a scale, not a measurement.
REFERENCE_S = 0.06
# A reference slice is taken before an operation once this much operation
# time has passed since the last one, and at the start and end of each pass.
REFERENCE_EVERY_S = 0.5


def reference_slice() -> float:
    """Seconds for a fixed piece of stdlib-only work shaped like orbiforge's
    hot paths: Fraction products and sums, walks through a list-of-lists
    table and dict updates on tuple keys.  The cyclic collector is off while
    it runs, so the program's live heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2500):
            x = Fraction(i % 7 + 1, 3) * Fraction(2, i % 5 + 1) - Fraction(i % 3, 4)
            total += x * x
        table = [[(7 * i + 3 * j + 1) % 211 for j in range(6)] for i in range(211)]
        row = 0
        for i in range(40000):
            row = table[row][i % 6]
        counts: dict[tuple[int, int], int] = {}
        for i in range(40000):
            key = (i % 31, row ^ (i % 17))
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(slices: int = 5) -> float:
    """REFERENCE_S over the median of a few reference slices taken now."""
    reference_slice()  # warm-up, untimed
    return REFERENCE_S / statistics.median(reference_slice() for _ in range(slices))


def setup() -> float:
    """Seconds to import orbiforge and build and validate every model."""
    start = time.perf_counter()
    import orbiforge
    for name in orbiforge.MODEL_NAMES:
        orbiforge.model(name)
    return time.perf_counter() - start


class PassResult:
    def __init__(self):
        self.wall_s = 0.0          # measured
        self.scaled_wall_s = 0.0   # at reference speed
        self.latencies_ms: list[float] = []         # measured
        self.scaled_latencies_ms: list[float] = []  # at reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(ops, traced: bool = False, rec=None, scale: bool = True) -> PassResult:
    """Run every operation once, one at a time; wall time counts only the
    operations, and each result is checked right after its operation.

    With `scale`, reference slices are taken between operations (never
    inside the timed region), and each operation's times are scaled by the
    mean of the slices just before and just after it."""
    out = PassResult()
    gc.collect()
    # (index of the first operation after the slice, slice seconds)
    slices: list[tuple[int, float]] = []
    since_slice = REFERENCE_EVERY_S
    elapsed_s: list[float] = []
    samples_ms: list[list[float]] = []
    if scale:
        reference_slice()  # warm-up, untimed
    for i, op in enumerate(ops):
        if scale and since_slice >= REFERENCE_EVERY_S:
            slices.append((i, reference_slice()))
            since_slice = 0.0
        if rec is not None:
            rec.op, rec.enabled = i, traced
        start = time.perf_counter()
        try:
            result = op.run(traced)
        except Exception as exc:  # a raising operation counts as failed
            errors = [f"{op.name}: {type(exc).__name__}: {exc}"]
        else:
            errors = []
        finally:
            elapsed = time.perf_counter() - start
            if rec is not None:
                rec.enabled = False
        if not errors:
            try:
                errors = op.check(result)
            except Exception as exc:  # output the oracle cannot even read
                errors = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
            samples_ms.append(op.latencies_ms(result, elapsed * 1000.0))
        else:
            samples_ms.append([])
        since_slice += elapsed
        elapsed_s.append(elapsed)
        out.attempted += op.units
        out.failed += min(op.units, len(errors))
        out.errors.extend(errors)
    if scale:
        slices.append((len(ops), reference_slice()))
    factors = op_factors(slices, len(ops)) if scale else [1.0] * len(ops)
    for elapsed, samples, factor in zip(elapsed_s, samples_ms, factors):
        out.wall_s += elapsed
        out.scaled_wall_s += elapsed * factor
        out.latencies_ms.extend(samples)
        out.scaled_latencies_ms.extend(x * factor for x in samples)
    return out


def op_factors(slices: list[tuple[int, float]], n_ops: int) -> list[float]:
    """Speed factor of each operation: REFERENCE_S over the mean of the last
    slice taken before it and the first taken after it.  `slices` holds
    (index of the first operation after the slice, seconds), in order, and
    begins at 0 and ends at n_ops."""
    factors = []
    k = 0
    for i in range(n_ops):
        while slices[k + 1][0] <= i:
            k += 1
        factors.append(2 * REFERENCE_S / (slices[k][1] + slices[k + 1][1]))
    return factors


def passes_until(seconds: float, min_passes: int):
    """Yield pass numbers until at least `min_passes` are done and another
    pass of the median length would overrun `seconds`."""
    start = time.perf_counter()
    lengths: list[float] = []
    n = 0
    while n < min_passes or time.perf_counter() - start + statistics.median(lengths) <= seconds:
        t0 = time.perf_counter()
        yield n
        lengths.append(time.perf_counter() - t0)
        n += 1


# -- per-layer metrics -----------------------------------------------------------

# metric -> (span name, site or None for every site, "inclusive" | "self")
SPAN_METRICS = {
    "wallpaper.schreier_images.s": ("wallpaper.SubgroupHandle.schreier_images", None, "inclusive"),
    "wallpaper.translation_lattice.s": ("wallpaper.translation_lattice", None, "inclusive"),
    "lattice.integer_lattice_basis.s": ("lattice.integer_lattice_basis", None, "inclusive"),
    "cosetenum.todd_coxeter.self_s": ("cosetenum.todd_coxeter", None, "self"),
    "cosetenum.validate.s": ("cosetenum.CosetTable.validate", None, "inclusive"),
    "cosetenum.schreier_generators.s": ("cosetenum.CosetTable.schreier_generators", None, "inclusive"),
    "cosetenum.reidemeister_schreier.s": ("cosetenum.reidemeister_schreier", None, "inclusive"),
    "wallpaper.enumerate.s": ("cosetenum.todd_coxeter", "wallpaper", "inclusive"),
    "wallpaper.point_group.s": ("wallpaper.SubgroupHandle.point_group", None, "inclusive"),
    "wallpaper.classes.s": ("wallpaper.SubgroupHandle.classes", None, "inclusive"),
    "wallpaper.decision_tree.s": ("wallpaper.crystallographic_type", None, "self"),
    "fpgroup.abelianization.s": ("fpgroup.abelianization", None, "inclusive"),
    "fpgroup.sign_homs.s": ("fpgroup.sign_homs", None, "inclusive"),
    "knotcusp.build_amalgam.s": ("knotcusp.build_amalgam", None, "inclusive"),
    "knotcusp.collapse_236.s": ("knotcusp.collapse_236", None, "inclusive"),
    "knotcusp.h_map_244.s": ("knotcusp.h_map_244", None, "inclusive"),
    "knotcusp.verdict.s": ("knotcusp.verdict", None, "inclusive"),
}
SPAN_COUNTS = {
    "cosetenum.todd_coxeter.calls": "cosetenum.todd_coxeter",
    "fpgroup.abelianization.calls": "fpgroup.abelianization",
}
COUNTER_METRICS = (
    "exactgeom.isometry_mul.calls", "wallpaper.evaluate.calls",
    "wallpaper.evaluate.letters", "cosetenum.trace.calls", "cosetenum.trace.letters",
    "cosetenum.todd_coxeter.cosets", "lattice.reduce_mod.calls",
)


def layer_metrics(spans, counts) -> tuple[dict[str, float], dict[str, int]]:
    """(seconds per time metric, count per count metric) of one traced pass."""
    inclusive, exclusive = tracing.totals(spans)
    times = {}
    for metric, (name, site, kind) in SPAN_METRICS.items():
        table = inclusive if kind == "inclusive" else exclusive
        times[metric] = sum(v for (n, s), v in table.items()
                            if n == name and (site is None or s == site))
    tally = {metric: sum(1 for span in spans if span[tracing.NAME] == name)
             for metric, name in SPAN_COUNTS.items()}
    tally.update({metric: counts.get(metric, 0) for metric in COUNTER_METRICS})
    return times, tally


def kernel_us(repeats: int = 7) -> dict[str, float]:
    """Median microseconds per QuadNum multiply and per Isometry composition
    (with its orthogonality check), on operands from the 17 models'
    generator images: each model's images composed pairwise, and every
    coordinate of those images multiplied pairwise."""
    from orbiforge import MODEL_NAMES, model
    iso_pairs, nums = [], set()
    for name in MODEL_NAMES:
        rep = model(name).rep
        iso_pairs += [(f, g) for f in rep for g in rep]
        nums.update(x for iso in rep for x in (iso.linear.m11, iso.linear.m12, iso.linear.m21,
                                               iso.linear.m22, iso.trans.x, iso.trans.y))
    nums = sorted(nums, key=repr)
    num_pairs = [(x, y) for x in nums for y in nums]

    def per_call(pairs, rounds: int) -> float:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(rounds):
                for f, g in pairs:
                    f * g
            samples.append((time.perf_counter() - start) / (rounds * len(pairs)) * 1e6)
        return statistics.median(samples)

    return {"exactgeom.isometry_mul.us": per_call(iso_pairs, 2),
            "exactgeom.quadnum_mul.us": per_call(num_pairs, 10)}


# -- modes -----------------------------------------------------------------------

def setup_mode(args) -> dict:
    setup_s = setup()
    return {"setup_s": setup_s, "setup_factor": speed_factor()}


def timed(args) -> dict:
    setup_s = setup()
    setup_factor = speed_factor()
    import workloads
    ops = workloads.build(args.workload, args.seed)
    results = [run_pass(ops) for _ in passes_until(
        args.seconds, workloads.MIN_PASSES[args.workload])]
    return {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "walls": [r.wall_s for r in results],
        "scaled_walls": [r.scaled_wall_s for r in results],
        "latencies_ms": [r.latencies_ms for r in results],
        "scaled_latencies_ms": [r.scaled_latencies_ms for r in results],
        "min_samples": workloads.MIN_PASSES[args.workload] * sum(op.units for op in ops),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "errors": [e for r in results for e in r.errors][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(args) -> dict:
    setup()
    import workloads
    kernels = kernel_us()
    ops = workloads.build(args.workload, args.seed)
    rec = tracing.Recorder()
    plain, traced_runs, times, tallies = [], [], [], []
    for n in passes_until(args.seconds, 1):
        plain.append(run_pass(ops))
        undo = tracing.install(rec)
        try:
            traced_runs.append(run_pass(ops, traced=True, rec=rec))
        finally:
            tracing.uninstall(undo)
        pass_times, tally = layer_metrics(rec.spans, rec.counts)
        times.append(pass_times)
        tallies.append(tally)
        if n == 0 and args.spans:
            rec.dump(args.spans)
        rec.reset()
    metrics: dict[str, float] = dict(kernels)
    metrics.update(tallies[0])
    for metric in SPAN_METRICS:
        metrics[metric] = statistics.median(t[metric] for t in times)
    if args.workload == "verify-paper":
        # the verify pass has one op: its latency samples are the checks in order
        per_check = zip(*(r.latencies_ms for r in plain))
        for check_id, samples in zip(workloads.MACHINE_CHECKS, per_check):
            metrics[f"verify.check.{check_id}.ms"] = statistics.median(samples)
    metrics["trace.overhead"] = (statistics.median(r.scaled_wall_s for r in traced_runs)
                                 / statistics.median(r.scaled_wall_s for r in plain))
    runs = plain + traced_runs
    return {
        "metrics": metrics,
        "count_runs": tallies,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "errors": [e for r in runs for e in r.errors][:20],
    }


def memory(args) -> dict:
    """Peak bytes allocated inside each todd_coxeter and schreier_generators
    call; tracemalloc runs only inside those calls, which never nest."""
    setup()
    import tracemalloc

    import workloads
    from orbiforge import cosetenum
    ops = workloads.build(args.workload, args.seed)
    peaks = {"cosetenum.todd_coxeter.peak_kb": 0.0,
             "cosetenum.schreier_generators.peak_kb": 0.0}

    def peak_wrapper(metric, fn):
        def wrapper(*a, **kw):
            tracemalloc.start()
            try:
                return fn(*a, **kw)
            finally:
                peaks[metric] = max(peaks[metric], tracemalloc.get_traced_memory()[1] / 1024.0)
                tracemalloc.stop()
        return wrapper

    undo: list[tuple] = []
    for _, mod, attr in tracing.bindings(cosetenum.todd_coxeter):
        tracing.patch(undo, mod, attr, peak_wrapper(
            "cosetenum.todd_coxeter.peak_kb", cosetenum.todd_coxeter))
    table = cosetenum.CosetTable
    tracing.patch(undo, table, "schreier_generators", peak_wrapper(
        "cosetenum.schreier_generators.peak_kb", table.schreier_generators))
    try:
        result = run_pass(ops, scale=False)
    finally:
        tracing.uninstall(undo)
    return {"metrics": peaks, "attempted": result.attempted,
            "failed": result.failed, "errors": result.errors[:20]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "traced", "memory"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="file to write the first traced pass's spans to")
    args = parser.parse_args(argv)
    modes = {"setup": setup_mode, "timed": timed, "traced": traced, "memory": memory}
    out = modes[args.mode](args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
