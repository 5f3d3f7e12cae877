"""One benchmark process: set up a workload, run its closed loop, check
every output, and print one JSON line with the raw measurements.

``run.py`` starts this script; it is not meant to be run by hand.  Set-up
time is counted from the first statement below, before fuzzyvault is
imported, to the first timed op.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

INTERPRETER_RUNS = 5
MAX_ERRORS_SHOWN = 5


REFERENCE_DOC = [
    {"family": "triangular", "params": [i - 1.0, float(i), i + 1.0]} for i in range(600)
]


def reference_ms() -> float:
    """Wall time of one pass of a fixed interpreter workload that calls no
    fuzzyvault code: modular integer arithmetic, small-object allocation and
    a JSON round trip, the kinds of work the library does.  It runs before
    every op, so each op's time can be read in units of it.  Any edit here
    changes the unit of every bounded latency, so it stays as it is."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(16000):
        acc = (acc * 31 + i * i) % 65537
    points = [(float(i), i * 7 % 65537) for i in range(8000)]
    json.loads(json.dumps(REFERENCE_DOC))
    del points
    return (time.perf_counter() - t0) * 1e3


def run_loop(wl, seconds, first, tracer=None):
    """Closed loop, one client: the next op starts when the last one ends.
    Returns per-op wall times in ms, the same times over the reference pass
    run just before each op, and the failures."""
    latencies, ratios, errors = [], [], []
    began = time.perf_counter()
    i = first
    while True:
        wl.prepare(i)
        ref = reference_ms()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.run_op(i)
            else:
                tracer.current_op = i
                result = wl.run_traced(i, tracer)
        except Exception as e:  # a library failure is a failed op, not a crash
            result, error = None, f"{type(e).__name__}: {e}"
        else:
            error = None
        t1 = time.perf_counter()
        latencies.append((t1 - t0) * 1e3)
        ratios.append(latencies[-1] / ref)
        if error is None:
            error = wl.check_op(i, result)
        if tracer is not None:
            wl.collect(i, tracer)
        if error:
            errors.append((i, error))
        i += 1
        if t1 - began >= seconds:
            return latencies, ratios, errors


def interpreter_ms() -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERPRETER_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def layer_metrics(tracer, n_ops: int) -> dict:
    s = tracer.summary(n_ops)
    subsets = s.get("vault.search_key.subsets_tried", 0)
    searches = s.get("vault.search_key.searches", 0)
    s["vault.search_key.us_per_subset"] = (
        s.get("vault.search_key.ms", 0) * 1e3 / subsets if subsets else 0.0
    )
    s["vault.search_key.useful_ratio"] = (
        s.get("vault.search_key.keys_found", 0) / subsets if subsets else 0.0
    )
    s["vault.search_key.cap_hit_share"] = (
        s.get("vault.search_key.cap_hits", 0) / searches if searches else 0.0
    )
    s["cli.import_ms"] = s.get("cli.import.ms", 0.0)
    s["cli.main_ms"] = s.get("cli.main.ms", 0.0)
    return s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), args.tiny)
        wl.setup()
        out = {"setup_s": time.perf_counter() - T_START}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        if args.mode == "measure":
            latencies, ratios, errors = run_loop(wl, args.seconds, 0)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        else:
            # Half the time untraced, half traced, after the same set-up, so
            # the traced latency can be set against the untraced one.
            latencies, ratios, errors = run_loop(wl, args.seconds / 2, 0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_ratios, traced_errors = run_loop(
                    wl, args.seconds / 2, len(latencies), tracer
                )
            finally:
                tracer.uninstall()
            errors += traced_errors
            layers = layer_metrics(tracer, len(traced))
            layers["cli.interpreter_ms"] = (
                interpreter_ms() if args.workload == "cli" else 0.0
            )
            layers["trace.overhead_pct"] = 100 * (
                statistics.median(traced_ratios) / statistics.median(ratios) - 1
            )
            out["per_layer"] = layers
            out["traced_ops"] = len(traced)
            (ROOT / ".perfbench_out").mkdir(exist_ok=True)
            tracer.save(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")

        n_ops = len(latencies) + out.get("traced_ops", 0)
        failed_ops = {i for i, _ in errors}
        sizes = [wl.op_bytes(i) for i in range(n_ops) if i not in failed_ops]
        out["vault_bytes"] = statistics.fmean(sizes) if sizes else 0.0
        errors += wl.finish(n_ops)
        out.update(
            attempted=n_ops,
            latencies_ms=latencies,
            latency_ratios=ratios,
            failed=len({i for i, _ in errors}),
            errors=[f"op {i}: {e}" for i, e in errors[:MAX_ERRORS_SHOWN]],
            fingerprint=wl.fingerprint,
            params=wl.record(),
            versions={
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "sympy": sys.modules["sympy"].__version__,
            },
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
