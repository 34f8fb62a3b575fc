"""Run one workload of the cjde benchmark and print its metrics as one JSON line.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cjde is imported from `src/`, so
nothing needs installing.  One process, one thread.  After set-up, the run
repeats rounds of the workload's verdicts, each round on fresh inputs, until
the next round would end past `--seconds` (at least one round, at most
MAX_ROUNDS).  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it patches spans around cjde's public functions and prints the
per-layer metrics of set-up plus the first round, and writes those spans to
`.perfbench/trace-<workload>-seed<seed>.tsv.gz`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 11
MAX_ROUNDS = 50

# per-layer metrics: (span name, statistic).  Times are reported only for
# spans that run on every workload; elsewhere an idle layer would read 0 s on
# every run.  README.md maps each to the end-to-end metric it should move.
PER_LAYER = (
    ("gca.Poly.mul", "calls"), ("gca.Poly.mul", "self_s"),
    ("gca.Poly.add", "calls"),
    ("gca.Poly.partial", "calls"), ("gca.Poly.partial", "self_s"),
    ("gca.Algebra.mul_monomials", "calls"),
    ("gca.Poly.substitute", "calls"),
    ("contact.jacobi_bracket", "calls"), ("contact.jacobi_bracket", "self_s"),
    ("contact.project_P", "calls"),
    ("contact.legendre_pullback", "calls"),
    ("cjalg.build_theta", "incl_s"),
    ("cjalg.check_cj_axioms", "incl_s"),
    ("cjalg.derived_bracket_sections", "calls"),
    ("cjalg.courant_tensor", "calls"),
    ("cjalg.m2_closed", "calls"),
    ("cjalg.m3_closed", "calls"),
    ("linfty.coefficient", "calls"), ("linfty.coefficient", "distinct_ratio"),
    ("linfty.TaylorCoderivation.apply_word", "calls"),
    ("linfty.TaylorMorphism.apply_word", "calls"),
    ("linfty.svec_add", "calls"),
    ("deform.rref", "calls"),
    ("deform.cohomology", "calls"),
    ("deform.kuranishi", "calls"),
    ("instancefile.load_instance", "incl_s"),
)
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "distinct_ratio": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("axioms", "linf_sweep", "deform"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cpu_clock() -> float:
    """CPU seconds of this process and of its children that have been waited for.

    The benchmark's times use this clock, not the wall clock: on a shared
    virtual machine the hypervisor's steal time and other tenants' bursts
    move wall-clock readings of identical work by tens of percent.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def fresh_workloads():
    """Import cjde (through the workloads module) as a new process would."""
    for name in list(sys.modules):
        if name in ("cjde", "workloads") or name.startswith("cjde."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def run_verdict(verdict, tracer=None):
    """(CPU seconds from the start of the verdict to cjde's result, verdict correct)."""
    span = tracer.span(f"verdict {verdict.name}") if tracer else contextlib.nullcontext()
    t0 = cpu_clock()
    try:
        with span:
            result = verdict.run()
    except Exception:
        elapsed = cpu_clock() - t0
        traceback.print_exc(file=sys.stderr)
        sys.stderr.write(f"verdict raised: {verdict.name}\n")
        return elapsed, False
    elapsed = cpu_clock() - t0
    try:
        ok = bool(verdict.check(result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        sys.stderr.write(f"verdict failed: {verdict.name}\n")
    return elapsed, ok


def per_layer_metrics(summary):
    out = {}
    for span_name, stat in PER_LAYER:
        value = summary.get(span_name, {}).get(stat, 0)
        out[f"{span_name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    return out


def measure(args, workdir: str) -> dict:
    tracer = None
    setup_times = []
    if args.trace:
        wl = fresh_workloads()
        import spans
        tracer = spans.Tracer()
        tracer.install()
        with tracer.span("setup"):
            rnd = wl.Round(ROOT, args.seed, args.workload, workdir)
            verdicts = rnd.prepare(0)
    else:
        for _ in range(SETUP_REPEATS):
            ref_before = reference.measure()
            t0 = cpu_clock()
            wl = fresh_workloads()
            rnd = wl.Round(ROOT, args.seed, args.workload, workdir)
            verdicts = rnd.prepare(0)
            elapsed = cpu_clock() - t0
            setup_times.append(reference.scaled(elapsed, ref_before, reference.measure()))

    round_walls, round_seconds, verdict_times, slots = [], [], [], []
    attempted = failed = 0
    layer = None
    t_start = time.perf_counter()
    while True:
        wall = seconds = 0.0
        ref_before = reference.measure()
        for slot, verdict in enumerate(verdicts):
            elapsed, ok = run_verdict(verdict, tracer)
            ref_after = reference.measure()
            scaled = reference.scaled(elapsed, ref_before, ref_after)
            ref_before = ref_after
            seconds += elapsed
            wall += scaled
            verdict_times.append(scaled)
            if slot == len(slots):
                slots.append([])
            slots[slot].append(scaled)
            attempted += 1
            failed += not ok
        round_walls.append(wall)
        round_seconds.append(seconds)
        if tracer is not None:
            if layer is None:
                layer = tracer.summary()
                tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.tsv.gz"))
            tracer.clear()
        done = len(round_walls)
        per_round = (time.perf_counter() - t_start) / done
        if done >= MAX_ROUNDS or (time.perf_counter() - t_start) + per_round > args.seconds:
            break
        verdicts = rnd.prepare(done)

    sys.stderr.write(
        f"{args.workload} seed {args.seed} trace {args.trace}: {len(round_walls)} rounds of "
        f"{len(verdicts)} verdicts; round s at reference speed {[round(w, 3) for w in round_walls]}; "
        f"round CPU s {[round(s, 3) for s in round_seconds]}\n")
    if tracer is not None:
        metrics = per_layer_metrics(layer)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(statistics.median(s) for s in slots), "unit": "s"},
            "verdict_s.p50": {"value": statistics.median(verdict_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cjde", "__init__.py")):
        sys.stderr.write(f"error: no cjde sources at {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
