"""Benchmark of omitbench, one workload and one seed per run.

    python3 bench/run.py --workload joint_fit --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/`` directory (the CLI subprocesses too), so the code measured is the
checkout's own.  Workloads are ``joint_fit``, ``sweep_io`` and
``cli_session`` (see ``workloads.py``).

With ``--trace 0`` the run measures end-to-end metrics with tracing off:

    op_s         median wall seconds per operation (one joint fit, one
                 sweep-and-save round, one CLI invocation)
    op_tail_s    the highest percentile of operation time with at least ten
                 samples beyond it (the maximum when there are fewer)
    peak_rss_mb  peak resident memory of the process; for cli_session the
                 largest of the child processes
    setup_s      import plus input generation, the median of five fresh
                 processes

With ``--trace 1`` the run alternates untraced and traced passes over a fixed
set of cycles and prints the per-layer metrics (see ``tracing.py``), the CLI
import split for cli_session, and the tracing overhead.  Spans are written
to ``bench/.work/spans-<workload>-s<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records how the result was made, and for ``--trace 0`` another line gives
workload-specific timings (fit, map and protocol jobs, each CLI verb) and
counts of checked refusals and acceptance misses (see ``workloads.py``).
"""

from time import perf_counter

_T_START = perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_PROBES = 5


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np):
    """OpenBLAS thread count from the library numpy loaded, if it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def provenance(workload, seed, trace, seconds):
    """How the result was made, without timestamps."""
    from importlib import metadata

    import numpy as np

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "src_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
    }


def setup_probes(args):
    """Median seconds of import plus input generation over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_ops(ops, totals, samples=None):
    """Run one cycle's operations; time each op, then verify it untimed."""
    from workloads import CheckFailed

    elapsed = 0.0
    for label, op in ops:
        t0 = perf_counter()
        verify = op()
        dt = perf_counter() - t0
        elapsed += dt
        if samples is not None:
            samples.append(dt)
        try:
            outcome = verify()
        except CheckFailed as exc:
            print(f"check failed: {label}: {exc}", file=sys.stderr)
            totals["correct"] = False
            totals["attempted"] += 1
            totals["failed"] += 1
            continue
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        for key, count in outcome.notes.items():
            totals["notes"][key] = totals["notes"].get(key, 0) + count
    return elapsed


def new_totals():
    return {"correct": True, "attempted": 0, "failed": 0, "notes": {}}


def check_run(workload, totals):
    """Checks over the whole run, after its operations have been verified."""
    from workloads import CheckFailed

    check = getattr(workload, "check_run", None)
    try:
        if check is not None:
            check(totals["notes"])
    except CheckFailed as exc:
        print(f"check failed: run: {exc}", file=sys.stderr)
        totals["correct"] = False


def measure(workload, seconds, totals):
    """Closed loop over whole cycles for ``seconds``; op times untraced."""
    run_ops(workload.cycle(0), new_totals())  # warm-up
    workload.detail.clear()
    samples = []
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        run_ops(workload.cycle(k), totals, samples)
        k += 1
    return samples


def measure_traced(workload, seconds, totals, tracer):
    """Alternate untraced and traced passes over the same fixed cycles."""
    run_ops(workload.inproc_cycle(0), new_totals())  # warm-up
    untraced, traced, traced_ids = [], [], []
    deadline = perf_counter() + seconds
    p = 0
    while p < 2 or p % 2 == 1 or perf_counter() < deadline:
        on = p % 2 == 1
        for k in range(workload.traced_cycles):
            cid = p * workload.traced_cycles + k
            tracer.cycle = cid
            ops = workload.inproc_cycle(k)
            if on:
                traced_ids.append(cid)
                ops = [(label, _spanned(tracer, label, op)) for label, op in ops]
            elapsed = run_ops(ops, totals)
            (traced if on else untraced).append(elapsed)
        p += 1
    return untraced, traced, traced_ids


def _spanned(tracer, label, op):
    """Trace the op itself; its verification stays untraced."""
    def run():
        tracer.active = True
        try:
            with tracer.span(f"op.{label}"):
                return op()
        finally:
            tracer.active = False
    return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time import plus input generation, print it, exit")
    args = parser.parse_args(argv)

    if not (SRC / "omitbench" / "__init__.py").is_file():
        print(f"error: no omitbench source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    from workloads import CLI_LAYER_METRICS, WORKLOADS

    import omitbench
    if Path(omitbench.__file__).resolve().parent != (SRC / "omitbench").resolve():
        print(f"error: imported omitbench from {omitbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        print(perf_counter() - _T_START)
        return 0

    totals = new_totals()
    if args.trace == 0:
        setup_s = setup_probes(args)
        samples = measure(workload, args.seconds, totals)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        tail_s, level = tail(samples)
        values = {
            "op_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        detail = {name: {"median": statistics.median(v), "unit": "s", "samples": len(v)}
                  for name, v in sorted(workload.detail.items())}
        detail["op_tail_percentile"] = {"value": level, "samples": len(samples)}
        detail["failed_frac"] = {"value": totals["failed"] / max(totals["attempted"], 1)}
        detail.update({name: {"count": count} for name, count in sorted(totals["notes"].items())})
        print(json.dumps({"detail": detail}))
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            untraced, traced, traced_ids = measure_traced(workload, args.seconds, totals, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        layers = layer_metrics(spans, traced_ids)
        if args.workload == "cli_session":
            layers.update(workload.cli_layer_metrics(spans))
        else:
            layers.update(dict.fromkeys(CLI_LAYER_METRICS, 0.0))
        base, with_trace = statistics.median(untraced), statistics.median(traced)
        layers["trace.overhead_s"] = with_trace - base
        layers["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
        values = layers
        tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.jsonl")

    check_run(workload, totals)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.trace,
                                               args.seconds)}))
    print(json.dumps({"correct": totals["correct"], "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
