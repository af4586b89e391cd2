"""lu3q benchmark: one closed-loop workload per run, one client, one
operation at a time.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: nongeneric-pairs, reconstruct, cli-compare (see README.md).  The
run builds its inputs from --seed, times whole passes over them ("rounds")
until --seconds have been spent in operations and at least MIN_OPS
operations have succeeded, checks every output, and prints one JSON object
as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
from spans recorded around lu3q's public functions.  Raw results and spans
go to bench/out/.  Run from a plain checkout: the package is imported from
src/ and child processes get PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
# Whole rounds continue past --seconds until this many operations succeeded,
# so that op_p90_ms has at least ten samples above it.
MIN_OPS = 110
# A run stops after this many seconds of operations whatever MIN_OPS says,
# so that it ends within three minutes on a slow machine.
MAX_SECONDS = 120.0

E2E_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("nongeneric-pairs", "reconstruct", "cli-compare"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_json(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warmup_cases(cases):
    """The first case of each (class, rotated, noisy) kind, in round order."""
    seen, out = set(), []
    for case in cases:
        key = (case.kind, case.rotated, case.noisy)
        if key not in seen:
            seen.add(key)
            out.append(case)
    return out


def measure_setup(workload, cases, run_dir, workloads):
    """Median set-up time over SETUP_SAMPLES fresh interpreters.

    In-process workloads: `import lu3q` plus the warm-up operations, timed
    inside the child.  cli-compare: wall time of a whole compare process.
    """
    env = workloads.child_env(str(ROOT))
    samples = []
    if workload == "cli-compare":
        op = workloads.operation(workload, str(ROOT))
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            op(cases[0])
            samples.append(perf_counter() - t0)
        return statistics.median(samples)
    path = run_dir / "warmup.json"
    payload = [[inputs.density_payload(m)["matrix"] for m in (c.rho1, c.rho2) if m is not None]
               for c in warmup_cases(cases)]
    path.write_text(json.dumps(payload), encoding="utf-8")
    cmd = [sys.executable, str(BENCH / "probe.py"), "setup", workload, str(path)]
    for _ in range(SETUP_SAMPLES):
        samples.append(child_json(cmd, env)["setup_s"])
    return statistics.median(samples)


def import_costs(workloads):
    env = workloads.child_env(str(ROOT))
    cmd = [sys.executable, str(BENCH / "probe.py"), "import"]
    runs = [child_json(cmd, env) for _ in range(IMPORT_SAMPLES)]
    return {"import.numpy_ms": statistics.median([r["numpy_ms"] for r in runs]),
            "import.lu3q_ms": statistics.median([r["lu3q_ms"] for r in runs])}


def timed_rounds(workload, cases, op, args, workloads, tracer=None):
    """Run whole rounds; return latencies of successful operations, the
    throughput of each round and counts."""
    latencies, errors, rates = [], [], []
    attempted = failed = rounds = 0
    busy = 0.0
    while True:
        round_start, round_ops = busy, len(latencies)
        for case in cases:
            if tracer is not None:
                tracer.op = attempted
            t0 = perf_counter()
            result, exc = workloads.attempt(op, case)
            dt = perf_counter() - t0
            busy += dt
            attempted += 1
            if exc is not None:
                failed += 1
                if not (workloads.is_known_fault(exc) and case.noisy):
                    errors.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            problem = workloads.check(workload, case, result)
            if problem is not None:
                failed += 1
                errors.append(f"{case.label}: {problem}")
                continue
            latencies.append(dt)
        rounds += 1
        rates.append((len(latencies) - round_ops) / (busy - round_start))
        if busy >= MAX_SECONDS or (busy >= args.seconds and len(latencies) >= MIN_OPS):
            return latencies, rates, attempted, failed, rounds, busy, errors


def canonical_tensors(cases):
    from lu3q import canonical, pauli
    rhos = [m for c in cases for m in (c.rho1, c.rho2) if m is not None]
    return [canonical.canonicalize(pauli.decompose(m)).tensor for m in rhos]


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lu3q" / "__init__.py").is_file():
        print(f"bench: no lu3q package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    cases = inputs.BUILDERS[args.workload](args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        if args.workload == "cli-compare":
            workloads.write_pair_files(cases, str(run_dir))
            for case in cases:
                case.in_process = workloads.compare(case).verdict
        setup_s = None if args.trace else measure_setup(args.workload, cases, run_dir, workloads)
        op = workloads.operation(args.workload, str(ROOT), in_process=bool(args.trace))
        if args.workload != "cli-compare":
            for case in warmup_cases(cases):
                workloads.attempt(op, case)

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        try:
            lat, rates, attempted, failed, rounds, busy, errors = timed_rounds(
                args.workload, cases, op, args, workloads, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

        lat_ms = sorted(1e3 * x for x in lat)
        p50 = statistics.median(lat_ms) if lat_ms else float("nan")
        p90 = lat_ms[min(len(lat_ms) - 1, int(0.9 * len(lat_ms)))] if lat_ms else float("nan")
        if tracer is None:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-compare" else resource.RUSAGE_SELF
            values = {"ops_per_s": statistics.median(rates), "op_p50_ms": p50, "op_p90_ms": p90,
                      "setup_s": setup_s,
                      "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
            units = E2E_UNITS
        else:
            values = tracer.per_layer(attempted, rounds)
            values.update(spans.family_costs(canonical_tensors(cases)))
            values.update(import_costs(workloads))
            values = {name: values[name] for name in spans.PER_LAYER}
            units = {name: spans.unit(name) for name in spans.PER_LAYER}
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

        for line in errors[:10]:
            print(f"bench: failed: {line}", file=sys.stderr)
        print(f"bench: {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
              f"attempted={attempted} failed={failed} succeeded={len(lat)} "
              f"busy_s={busy:.3f} op_p50_ms={p50:.4f} op_p90_ms={p90:.4f}", file=sys.stderr)
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
        }
        text = json.dumps(result)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            text + "\n", encoding="utf-8")
        print(text)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
