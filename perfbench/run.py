"""Benchmark of dfsphere on three workloads: expand, scatter and cli.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 10 --trace 0

Run it from the root of a dfsphere checkout; it imports the library from
``src/``. A run is a closed loop with a single caller: one op starts when the
previous one and its output check have finished. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json
for the named workload. With ``--trace 1`` the run traces every workload,
whatever ``--workload`` names, for a third of ``--seconds`` each, and the
metrics are every per-layer metric of BENCHMARK.json; its spans go to
``perfbench/results/trace-<workload>-seed<seed>.json``.

Set-up time is the median of several fresh processes, each of which imports
dfsphere, builds the workload's inputs and runs its warm-up op.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 5
TRACE_ORDER = ("expand", "scatter", "cli")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    if not os.path.isfile(os.path.join(SRC, "dfsphere", "__init__.py")):
        die(f"no dfsphere sources under {SRC}; run from the root of a dfsphere checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


def use_checkout_sources():
    """Import dfsphere from this checkout, here and in every child process."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    sys.path.insert(0, SRC)


def settings():
    """Thread and allocator settings the run left at their defaults."""
    blas = None
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*.so*")):
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if fn is not None:
            blas = fn()
    env = ("DFS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "LD_PRELOAD")
    return {
        "openblas_threads": blas,
        "env": {k: os.environ.get(k) for k in env},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_setup(name, seed, workdir):
    """One set-up in this fresh process: import, inputs, warm-up op."""
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    wl.warm_up(Tracer(False))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def setup_samples(name, seed, workdir):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--probe-setup", workdir],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Loop:
    """Closed loop over whole ops until the op time reaches a budget."""

    def __init__(self, wl, tr):
        self.wl, self.tr = wl, tr
        self.times, self.failed, self.messages = [], 0, []

    def run(self, budget_s):
        while not self.times or sum(self.times) < budget_s:
            inp = self.wl.next_input()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                with self.tr.span("op"):
                    out = self.wl.op(self.tr, inp)
                problems = None
            except Exception:  # an op that raises counts as failed; the loop goes on
                problems = [traceback.format_exc(limit=3)]
            self.times.append(time.perf_counter() - start)
            self.tr.count("minflt_per_op", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            if problems is None:
                try:
                    problems = self.wl.check(inp, out)
                except Exception:  # a check that raises, say on a missing output file, fails the op
                    problems = [traceback.format_exc(limit=3)]
            if problems:
                self.failed += 1
                self.messages += problems[:3]

    @property
    def ops_per_s(self):
        return (len(self.times) - self.failed) / sum(self.times)


def end_to_end(name, seed, seconds, workdir):
    import workloads

    setups = setup_samples(name, seed, workdir)
    wl = workloads.WORKLOADS[name](seed, workdir)
    tr = Tracer(False)
    wl.setup()
    wl.warm_up(tr)
    run_problems = wl.prepare_checks()
    loop = Loop(wl, tr)
    loop.run(seconds)
    # cli: the largest child the run waited for, which is a `dfs` command, not a set-up probe
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss / 1024.0
    values = {
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(loop.times) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    return loop, run_problems + loop.messages, values, {"op_s": loop.times, "setup_s": setups}


def layer_value(tr, key):
    """A per-layer value: span median for ``<span>_ms`` / ``<span>_s``, else a counter median."""
    for suffix, scale in (("_ms", 1e3), ("_s", 1.0)):
        spans = tr.durations(key[:-len(suffix)]) if key.endswith(suffix) else []
        if spans:
            return statistics.median(spans) * scale
    return statistics.median(tr.counters[key])


def traced(spec, seed, seconds, workdir):
    import workloads

    attempted = failed = 0
    run_problems, values, detail = [], {}, {"spans": [], "traced_ops_per_s": {}}
    wanted = [m["name"] for m in spec["per_layer"]]
    for name in TRACE_ORDER:
        wl = workloads.WORKLOADS[name](seed, workdir)
        tr = Tracer(True)
        wl.setup()
        wl.warm_up(Tracer(False))
        run_problems += wl.prepare_checks()
        loop = Loop(wl, tr)
        loop.run(seconds / len(TRACE_ORDER))
        if name == "cli":
            with tr.span("layers"):
                wl.layer_calls(tr)
        attempted += len(loop.times)
        failed += loop.failed
        run_problems += loop.messages
        for key in wanted:
            if key.startswith(name + "."):
                values[key] = layer_value(tr, key[len(name) + 1:])
        detail["traced_ops_per_s"][name] = loop.ops_per_s
        detail["spans"] += [dict(s, workload=name) for s in tr.spans]
    return attempted, failed, run_problems, values, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TRACE_ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="op time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    use_checkout_sources()
    if args.probe_setup:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            attempted, failed, problems, values, detail = traced(spec, args.seed, seconds, workdir)
            declared = spec["per_layer"]
        else:
            loop, problems, values, detail = end_to_end(args.workload, args.seed, seconds, workdir)
            attempted, failed = len(loop.times), loop.failed
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    kind = "trace" if args.trace else "run"
    with open(os.path.join(RESULTS, f"{kind}-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"result": result, "settings": settings(), "problems": problems, **detail}, fh)
    for msg in problems[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
