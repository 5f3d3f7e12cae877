"""Run one fuzzyvault benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (``enroll``, ``verify``,
``reject``, ``cli``) are described in ``workloads.py`` and the metrics in
``BENCHMARK.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; the set-up is repeated ``SETUP_RUNS`` times in fresh processes and
``setup_s`` is their median.  With ``--trace 1`` it reports the per-layer
metrics from the traced half of the run.  Every op's output is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is nonzero if any op failed.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
TIME_LIMIT_S = 170
TAIL_BEYOND = 10


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    if args.tiny:
        cmd.append("--tiny")
    # A session of its own, so a timeout also stops the worker's children.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small vaults and a low effort cap, for the smoke test")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "fuzzyvault" / "__init__.py").is_file():
        print(f"error: no fuzzyvault sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        setups = [worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = worker(args, "trace" if args.trace else "measure", deadline)
    setups.append(run["setup_s"])

    latencies, ratios = run["latencies_ms"], run["latency_ratios"]
    attempted, failed = run["attempted"], run["failed"]
    tail_ms, tail_pct = tail(latencies)
    # The speed of a shared host drifts with other tenants' load, so the
    # median op time in ms of runs of the same code spreads by up to 61 %
    # (quartile distance over median).  The bounded latency is in units of a
    # reference pass timed just before each op, which drifts with it; the
    # times in ms are reported beside it, unbounded.  So is the tail, which
    # for ``cli`` (15-25 ops a run) sits below the median.
    reported = {
        "latency_tail_ref": {"value": tail(ratios)[0], "unit": "ref", "better": "lower"},
        "latency_ms_p50": {"value": statistics.median(latencies), "unit": "ms", "better": "lower"},
        "latency_ms_tail": {"value": tail_ms, "unit": "ms", "better": "lower"},
        "throughput_ops_s": {"value": len(latencies) / (sum(latencies) / 1e3), "unit": "1/s",
                             "better": "higher"},
        "fail_rate": {"value": failed / attempted, "unit": "ratio", "better": "lower"},
    }
    if args.trace:
        wanted, values = spec["per_layer"], run["per_layer"]
    else:
        wanted, values = spec["end_to_end"], {
            "latency_p50_ref": statistics.median(ratios),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "vault_bytes": run["vault_bytes"],
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    for name, m in {**metrics, **reported}.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} latency tails are p{tail_pct:.1f} of {len(latencies)} "
          f"untraced ops; {failed} of {attempted} ops failed")
    for error in run["errors"]:
        print(f"{args.workload} FAILED {error}")
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": run["params"], "samples": len(latencies),
        "reported": reported, "tail_percentile": tail_pct,
        "setup_s_samples": setups, "traced_ops": run.get("traced_ops"),
        "reference_ms_p50": statistics.median(l / r for l, r in zip(latencies, ratios)),
        "vault_sha256": run["fingerprint"], "source_sha256": source_sha256(),
        "commit": commit(), **run["versions"], "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
