"""orbiforge benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload classify-ladder --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from
`src/`.  Every measurement happens in a fresh single-threaded interpreter
(`worker.py`), one operation at a time.  With `--trace 0` the run prints the
end-to-end metrics, measured untraced; with `--trace 1` it prints the
per-layer metrics from a traced run and a separate memory run.  Either way
every output is checked against its oracle, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# This process never imports orbiforge, so the workload and check names are
# repeated here; test_bench.py checks them against workloads.py.
WORKLOADS = ("verify-paper", "classify-ladder", "enumerate-corpus")

# Fresh interpreters timed for setup_s, besides the one that runs the workload;
# half run before it and half after, so that a slow spell of the host during
# one part of the run moves the median less.
SETUP_RUNS = 6
# A run must finish within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
VERIFY_CHECKS = (
    "rep-236", "rep-244", "rigid-index", "collapse-236", "double-cover-236",
    "h-map-244", "census-tetrahedral", "orientation-covers", "verdict-table",
    "classifier-roundtrip", "lattice-identities", "degree-metadata",
)
PER_LAYER = {
    "exactgeom.isometry_mul.calls": "count",
    "exactgeom.isometry_mul.us": "us",
    "exactgeom.quadnum_mul.us": "us",
    "wallpaper.evaluate.calls": "count",
    "wallpaper.evaluate.letters": "count",
    "wallpaper.schreier_images.s": "s",
    "cosetenum.trace.calls": "count",
    "cosetenum.trace.letters": "count",
    "wallpaper.translation_lattice.s": "s",
    "lattice.integer_lattice_basis.s": "s",
    "cosetenum.todd_coxeter.calls": "count",
    "cosetenum.todd_coxeter.self_s": "s",
    "cosetenum.todd_coxeter.cosets": "count",
    "cosetenum.todd_coxeter.peak_kb": "KiB",
    "cosetenum.validate.s": "s",
    "cosetenum.schreier_generators.s": "s",
    "cosetenum.schreier_generators.peak_kb": "KiB",
    "cosetenum.reidemeister_schreier.s": "s",
    "wallpaper.enumerate.s": "s",
    "wallpaper.point_group.s": "s",
    "wallpaper.classes.s": "s",
    "wallpaper.decision_tree.s": "s",
    "lattice.reduce_mod.calls": "count",
    "fpgroup.abelianization.calls": "count",
    "fpgroup.abelianization.s": "s",
    "fpgroup.sign_homs.s": "s",
    "knotcusp.build_amalgam.s": "s",
    "knotcusp.collapse_236.s": "s",
    "knotcusp.h_map_244.s": "s",
    "knotcusp.verdict.s": "s",
    **{f"verify.check.{c}.ms": "ms" for c in VERIFY_CHECKS},
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float], min_samples: int) -> tuple[float, float]:
    """(value, percentile) of the tail latency.

    The percentile is the highest one that leaves at least ten samples
    beyond it at the fewest samples the workload guarantees; it is fixed per
    workload so that a faster program, which fits more passes into a run,
    is not measured at a different percentile.  The value is the
    nearest-rank percentile of all the run's samples.
    """
    if min_samples < 11 or len(samples) < min_samples:
        raise BenchError(f"need {max(min_samples, 11)} latency samples, got {len(samples)}")
    pct = 100.0 * (min_samples - 10) / min_samples
    rank = -(-(min_samples - 10) * len(samples) // min_samples)  # exact ceiling
    return sorted(samples)[rank - 1], pct


def p50(per_pass: list[list[float]]) -> float:
    """Median over the passes of each pass's median latency.

    Every pass runs the same operations, so with an even number of them a
    pass's median always falls between the same two, as on verify-paper
    (12 checks, the middle two about 150 and 175 ms).  The median of all
    samples pooled would be the mean of the slowest sample of one and the
    fastest of the other: two extremes, which move from run to run."""
    return statistics.median(statistics.median(samples) for samples in per_pass if samples)


def child(mode: str, args, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    """Every time is taken at reference speed (worker.py, "host speed"); the
    notes also give the measured medians."""
    child("setup", args, deadline)  # compiles the bytecode cache, untimed
    setups = [child("setup", args, deadline) for _ in range(SETUP_RUNS // 2)]
    run = child("timed", args, deadline)
    setups.append(run)
    setups += [child("setup", args, deadline) for _ in range(SETUP_RUNS // 2)]
    latencies = [x for per_pass in run["scaled_latencies_ms"] for x in per_pass]
    tail_ms, pct = tail(latencies, run["min_samples"])
    measured = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(run["walls"]),
        "op_p50_ms": p50(run["latencies_ms"]),
    }
    values = {
        "setup_s": statistics.median(s["setup_s"] * s["setup_factor"] for s in setups),
        "wall_s": statistics.median(run["scaled_walls"]),
        "op_p50_ms": p50(run["scaled_latencies_ms"]),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    passes = len(run["walls"])
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters "
                   f"(measured {measured['setup_s']:.4g} s)",
        "wall_s": f"median of {passes} passes (measured {measured['wall_s']:.4g} s)",
        "op_p50_ms": f"median over {passes} passes of each pass's median of "
                     f"{len(latencies) // passes} operations "
                     f"(measured {measured['op_p50_ms']:.4g} ms)",
        "op_tail_ms": f"p{pct:.1f} of {len(latencies)} operations "
                      f"(ten beyond it at the minimum of {run['min_samples']})",
        "peak_rss_mb": "peak RSS of the workload process",
    }
    return values, notes, [run]


def per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    spans = ROOT / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = child("traced", args, deadline, "--spans", str(spans))
    mem = child("memory", args, deadline)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(traced["metrics"])
    values.update(mem["metrics"])
    notes = {"trace.overhead": "traced / untraced pass wall time"}
    return values, notes, [traced, mem]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="orbiforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbiforge" / "__init__.py").is_file():
        print(f"no orbiforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            values, notes, runs = per_layer(args, deadline)
            units = PER_LAYER
        else:
            values, notes, runs = end_to_end(args, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = runs[0]["attempted"]
    failed = max(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations attempted, "
          f"{failed} failed, fail_ratio {failed / attempted:.4f}")
    for error in errors:
        print(f"  FAILED {error}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit:6s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
