"""streamseg benchmark: evaluate-then-adapt latency on three workloads.

Run from the root of a source tree:

    python3 perfbench/run.py --workload golden_adapt --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the program runs untraced and the last stdout line holds
the end-to-end metrics. With ``--trace 1`` one untraced unit and one traced
unit run on the same inputs; they must agree bitwise, and the last line
holds the per-layer metrics. Lines before it carry workload details (quality
per ladder row, environment, checkpoint preparation). The exit code is 0 only
when every check passed.

The package is imported from ``src/`` of the tree that holds this script;
nothing is installed. Build outputs (the source checkpoint, prediction dumps,
span files) go to ``.bench_build/streamseg`` in that tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "streamseg"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-ups timed before the first unit and, untraced, again after every
#: unit, so the median samples the host across the run, not in one burst
SETUP_BATCH = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("golden_adapt", "pretrain", "ablation_ladder"))
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; picks the shift realization of the stream")
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scene-seed", type=int, default=7,
                   help="corridor layout seed (default: the golden scene)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.scene_seed < 0:
        p.error("seeds must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy loads BLAS


def import_program():
    """Import streamseg from this tree's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "streamseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no streamseg sources under {src}")
    sys.path.insert(0, str(src))
    import streamseg

    if Path(streamseg.__file__).resolve().parent != (src / "streamseg").resolve():
        sys.exit(f"perfbench: imported streamseg from {streamseg.__file__}, not {src}")


def environment(points_per_frame):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "points_per_frame": round(points_per_frame, 1),
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def layer_metrics(wl, traced, tracer):
    """Per-layer figures of the traced unit, per frame (per Adam step on pretrain).

    On frame streams the figures average the frames whose traced latency lies
    between the 40th and 60th percentile, so they decompose the median frame:
    the layer self times plus ``harness.other_ms`` sum to ``trace.frame_ms``.
    On ``pretrain`` they are totals over the call divided by its Adam steps.
    """
    from tracer import TIME_LAYERS

    self_s = tracer.self_times()
    counts = tracer.counts
    if wl.name == "pretrain":
        frames = set(self_s) | set(counts)
        items = traced.items
        latency = traced.wall_s
    else:
        lat = traced.latencies
        lo, hi = percentile(lat, 40), percentile(lat, 60)
        frames = [i for i, t in enumerate(lat) if lo <= t <= hi]
        items = len(frames)
        latency = sum(lat[i] for i in frames)

    def total(table, name):
        return sum(table[f][name] for f in frames if f in table)

    out = {}
    layer_sum = 0.0
    for name in TIME_LAYERS:
        seconds = total(self_s, name)
        layer_sum += seconds
        out[name] = metric(1e3 * seconds / items, "ms")
    out["harness.other_ms"] = metric(1e3 * (latency - layer_sum) / items, "ms")
    out["trace.frame_ms"] = metric(1e3 * latency / items, "ms")
    for name in ("spatial.knn_calls", "spatial.knn_rows", "model.forward_calls",
                 "model.forward_rows", "model.adam_steps", "temporal.pairs",
                 "local_labels.points"):
        out[name] = metric(total(counts, name) / items, "count")
    out["autodiff.matmul_mflop"] = metric(total(counts, "autodiff.matmul_mflop") / items, "MFLOP")
    for name, num, base in (("local_labels.selected_ratio", "local_labels.selected", "local_labels.points"),
                            ("prototypes.supervised_ratio", "prototypes.supervised", "prototypes.fused_points")):
        b = total(counts, base)
        out[name] = metric(total(counts, num) / b if b else 0.0, "ratio")
    return out


def reference_miou(args, wl, quality, ckpt, key):
    """``miou_pct`` of this workload on seed 0, the golden inputs: the quality gate.

    The figure is deterministic for a given tree, while the run's own quality
    (in ``details``) moves by about 2% between shift realizations, so the gate
    can be tight. A run with another seed reads it from a cache keyed by the
    checkpoint and the benchmark's code, or computes it once with one seed-0
    unit after the measured units. Returns (metric, the failed reference
    unit or None).
    """
    import workloads

    digest = hashlib.sha256(key.encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    cache = WORK / f"quality-{wl.name}-scene{args.scene_seed}-{digest.hexdigest()[:16]}.json"
    if args.seed == 0:
        value = quality["miou_pct"]
    elif cache.exists():
        return json.loads(cache.read_text()), None
    else:
        ref_args = argparse.Namespace(seed=0, scene_seed=args.scene_seed)
        ref = workloads.WORKLOADS[wl.name](ref_args, ckpt, WORK)
        ref.frames = ref.generate()
        ref.load()
        unit = ref.unit()
        if not unit.problems:
            ref.check(unit)
        if not unit.problems:
            value = metric(*ref.quality(unit)["miou_pct"])
        if unit.problems:
            return None, unit
    cache.write_text(json.dumps(value))
    return value, None


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    import_program()
    import workloads  # this script's directory is first on sys.path

    setup_s, generate_s = [], []

    def set_up():
        # stream generation plus checkpoint load; inputs are regenerated
        # bitwise equal each time
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            wl.frames = wl.generate()
            t1 = time.perf_counter()
            wl.load()
            setup_s.append(time.perf_counter() - t0)
            generate_s.append(t1 - t0)

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        ckpt, ckpt_info = workloads.source_checkpoint(ROOT, WORK)
        wl = workloads.WORKLOADS[args.workload](args, ckpt, WORK)
        set_up()
        wl.warmup()
    except Exception:  # a failed set-up is one failed operation
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    def run_unit(tracer=None):
        # checked at once, before the next unit overwrites its dumps
        unit = wl.unit(tracer)
        if not unit.problems:
            wl.check(unit)
        return unit

    units = []
    tracer = None
    start = time.perf_counter()
    if args.trace:
        from tracer import Tracer, wrapper_cost_s

        units.append(run_unit())
        if not units[-1].problems:
            tracer = Tracer()
            with tracer:
                units.append(run_unit(tracer))
    else:
        # whole units until the next one would end more than half a unit
        # past the deadline, so a run measures about --seconds on average
        while True:
            units.append(run_unit())
            if not units[-1].problems:
                try:
                    set_up()  # again, so setup_s samples the whole run
                except Exception as exc:
                    units[-1].problems.append(f"set-up after the unit raised {exc!r}")
            elapsed = time.perf_counter() - start
            if units[-1].problems or elapsed + units[-1].wall_s / 2 > args.seconds:
                break

    problems = []
    quality = {}
    for i, unit in enumerate(units):
        if i == 0 and not unit.problems:
            # units run the same inputs, so the fingerprint check below
            # extends the first unit's quality to every unit
            quality = {k: metric(*v) for k, v in wl.quality(unit).items()}
        problems += [f"unit {i}: {p}" for p in unit.problems]
    if not problems and any(u.fingerprint != units[0].fingerprint for u in units[1:]):
        what = "traced run differs from the untraced run" if args.trace else \
            "repeated units of the same inputs differ"
        problems.append(what)
    if tracer is not None and wl.name == "pretrain":
        steps = sum(c["model.adam_steps"] for c in tracer.counts.values())
        if steps != wl.steps:
            problems.append(f"traced {steps:g} Adam steps, expected {wl.steps}")

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    details = {
        "workload": wl.name, "seed": args.seed, "scene_seed": args.scene_seed,
        "shift_seed": wl.shift_seed, "units": len(units),
        "unit_s": statistics.median(u.wall_s for u in units),
        "quality": quality,
        "checkpoint": {"prep_s": ckpt_info["prep_s"], "cached": ckpt_info["cached"],
                       "key": ckpt_info["key"]},
        "environment": environment(wl.points_per_frame()),
        "problems": problems,
    }

    metrics = {}
    if not problems:
        if args.trace:
            untraced, traced = units
            metrics = layer_metrics(wl, traced, tracer)
            metrics["stream.generate_s"] = metric(statistics.median(generate_s), "s")
            metrics["trace.overhead_pct"] = metric(
                100 * (traced.wall_s / untraced.wall_s - 1), "%")
            # the wrappers' own cost, free of the host's drift between units
            wrapped_calls = len(tracer.spans) + tracer.matmuls
            metrics["trace.wrapper_cost_pct"] = metric(
                100 * wrapped_calls * wrapper_cost_s() / untraced.wall_s, "%")
            spans = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.dump(spans, {"workload": wl.name, "seed": args.seed,
                                "fields": ["name", "start", "end", "parent", "frame"]})
            details["spans"] = str(spans.relative_to(ROOT))
            details["traced_items"] = traced.items
        else:
            lat_ms = [1e3 * t for u in units for t in u.latencies]
            metrics = {
                "frame_ms_p50": metric(percentile(lat_ms, 50), "ms"),
                "frame_ms_p90": metric(percentile(lat_ms, 90), "ms"),
                "frames_per_s": metric(sum(u.items for u in units) / sum(u.wall_s for u in units), "1/s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": metric(statistics.median(setup_s), "s"),
            }
            details["latency_samples"] = len(lat_ms)
            details["measured_s"] = sum(u.wall_s for u in units)
            # after peak_rss_mb, which covers the measured units only
            miou, ref = reference_miou(args, wl, quality, ckpt, ckpt_info["key"])
            if ref is None:
                metrics["miou_pct"] = miou
            else:
                problems += [f"seed-0 reference unit: {p}" for p in ref.problems]
                attempted += ref.attempted
                failed += ref.failed
                metrics = {}

    print("details: " + json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
