"""Certification benchmark for the dilations package.

    python3 bench/run.py --workload exact-cert --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop: a single client on a single thread
issues its next certification job only when the previous one has returned.
Every job's output is checked independently of the package, outside the
timed region.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop untraced, then replays the first block of jobs twice, each time
untraced and then with spans recorded around the package's public functions
(see spans.py).  It checks that the counts repeat exactly, writes the spans
to ``bench/out/`` and reports the per-layer metrics.  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os
import sys
import time

# One process, one thread: pin the BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC_DIR))

WORKLOAD_NAMES = ("exact-cert", "hilbert-cross", "hull-d4", "family-cli")
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s",
                    "job_s_tail": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Import the package from this checkout's src/, or explain why not."""
    try:
        import numpy
        import dilations
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC_DIR}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(dilations.__file__).resolve().parent.parent != SRC_DIR:
        print(f"error: dilations was imported from {dilations.__file__}, "
              f"not from {SRC_DIR}", file=sys.stderr)
        sys.exit(2)
    return numpy


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_job(job, rec=None):
    """Time one job (under a root span when tracing), then check it untimed."""
    if rec is not None:
        rec.job += 1
        root = rec.open("job")
        rec.active = True
    t0 = time.perf_counter()
    try:
        out, error = job.run(), None
    except Exception as exc:  # a job that raises is counted as failed
        out, error = None, exc
    elapsed = time.perf_counter() - t0
    if rec is not None:
        rec.active = False
        rec.close(root)
    ok, facts = False, {}
    if error is None:
        try:
            ok, facts = job.check(out)
        except Exception as exc:  # a malformed output fails its check
            error = exc
    if not ok:
        reason = repr(error) if error is not None else "output check failed"
        print(f"failed: {job.kind}: {reason}", file=sys.stderr)
    return elapsed, ok, facts


def run_block(block, rec=None):
    """Run a block of jobs; return job times, failure count and facts."""
    times, failed, facts = [], 0, {}
    for job in block:
        elapsed, ok, job_facts = run_job(job, rec)
        times.append(elapsed)
        failed += not ok
        for key, value in job_facts.items():
            # a denominator bit length is a maximum; byte counts add up
            facts[key] = max(facts.get(key, 0), value) if key.endswith("bits") \
                else facts.get(key, 0) + value
    return times, failed, facts


def closed_loop(blocks, seconds: float):
    """Whole blocks, cycling through the pool, until `seconds` of job time."""
    times, failed, block_times, kinds = [], 0, [], []
    while not block_times or sum(block_times) < seconds:
        block = blocks[len(block_times) % len(blocks)]
        block_t, block_failed, _ = run_block(block)
        times += block_t
        kinds += [job.kind for job in block]
        failed += block_failed
        block_times.append(sum(block_t))
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(kinds, times):
        by_kind.setdefault(kind, []).append(elapsed)
    for kind, kind_times in by_kind.items():
        print(f"  {kind}: {len(kind_times)} jobs, median {statistics.median(kind_times):.4g} s, "
              f"max {max(kind_times):.4g} s")
    return times, failed, block_times


def tail(times):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def import_seconds() -> float:
    """Time to import numpy and the program, in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import numpy, dilations; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def setup(make, seed, tiny, workdir):
    """Imports, input generation and warm-up, repeated; the median is reported.

    The process imports the program only once, so each repeat times the
    imports in a child interpreter (run to completion before the next step).
    """
    durations = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        t0 = time.perf_counter()
        workload = make(seed, tiny, workdir)
        _, failed, _ = run_block(workload.warmup)
        durations.append(imports + time.perf_counter() - t0)
    return workload, statistics.median(durations), failed


def traced_pass(block, spans_mod):
    rec = spans_mod.Recorder()
    rec.install()
    try:
        times, failed, facts = run_block(block, rec)
    finally:
        rec.uninstall()
    for key, value in facts.items():
        rec.counters[key] = value
    return rec, sum(times), failed, len(times)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(times, loop_failed, block_times, setup_s):
    """The end-to-end metrics of the untraced loop, printed with their units."""
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": (len(times) - loop_failed) / sum(block_times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"(median of {SETUP_REPEATS} rounds of imports, "
                        f"input generation and warm-up)",
             "job_s_tail": f"(p{tail_pct:.1f}, {beyond} of {len(times)} jobs beyond)"}
    for name, value in metrics.items():
        print(f"{name} {fmt(value)} {END_TO_END_UNITS[name]} {notes.get(name, '')}")
    print(f"failed_frac {loop_failed / len(times):.6g} ratio "
          f"({loop_failed} of {len(times)} jobs)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def per_layer(block, header, spans_path):
    """Replay one block twice under tracing; per-layer metrics and checks.

    Each traced replay follows an untraced replay of the same block, so the
    overhead compares neighbouring stretches of time on a host whose speed
    drifts.
    """
    import spans
    untraced, passes = [], []
    for _ in range(2):
        times, failed, _ = run_block(block)
        untraced.append((sum(times), failed))
        passes.append(traced_pass(block, spans))
    (rec, traced_s, _, _), (rec2, traced2_s, _, _) = passes
    untraced_s = sum(t for t, _ in untraced)
    values, unreached = rec.layer_metrics()
    values2, _ = rec2.layer_metrics()
    units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    repeat = all(values[name] == values2[name]
                 for name, unit in units.items() if unit != "s")
    rec.write(spans_path, header)
    name, unit = spans.OVERHEAD_METRIC
    values[name], units[name] = (traced_s + traced2_s) / untraced_s - 1, unit
    print(f"block of {len(block)} jobs replayed twice: untraced {untraced_s:.4f} s, traced "
          f"{traced_s:.4f} s + {traced2_s:.4f} s; counts repeat exactly: {repeat}")
    for name, value in values.items():
        print(f"{name} {'n/a' if name in unreached else fmt(value)} {units[name]}")
    result = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    attempted = 2 * len(block) + sum(p[3] for p in passes)
    failed = sum(f for _, f in untraced) + sum(p[2] for p in passes)
    return result, repeat, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    numpy = _import_program()
    import workloads
    env = environment(numpy)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload, setup_s, failed = setup(workloads.WORKLOADS[args.workload],
                                          args.seed, args.tiny, workdir)
        times, loop_failed, block_times = closed_loop(workload.blocks, args.seconds)
        attempted = len(workload.warmup) + len(times)
        failed += loop_failed
        print(f"workload {args.workload} seed {args.seed}: {len(times)} jobs in "
              f"{len(block_times)} blocks, {sum(block_times):.3f} s timed")
        if workload.digest is not None:
            print(f"report digest: {workload.digest()}")
        if args.trace == 0:
            result = end_to_end(times, loop_failed, block_times, setup_s)
            repeat = True
        else:
            header = {"workload": args.workload, "seed": args.seed, "env": env,
                      "fields": ["name", "start", "end", "parent", "job"]}
            result, repeat, traced_attempted, traced_failed = per_layer(
                workload.blocks[0], header, OUT_DIR / f"spans-{args.workload}.jsonl")
            attempted += traced_attempted
            failed += traced_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
