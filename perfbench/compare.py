"""Compare the end-to-end results of two commits.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the saved stdout of ``run.py --trace 0`` runs, one file
per run, for example made with

    python3 perfbench/run.py --workload verify --seed 7 --seconds 15 \\
        --trace 0 > results/parent/verify-7.txt

For every workload and end-to-end metric the helper prints each side's
median and quartiles, and the spread (quartile distance over median).  Given
two directories it pairs runs by workload and seed and gives a verdict:

* ``improved``      the change wins at least nine tenths of the pairs (ties
                    count for neither) and the medians differ, in the better
                    direction, by more than the parent's quartile distance;
* ``unresolved``    the parent's spread is wider than the metric's bound and
                    not every change run reads better than every parent run;
* ``worse``         the change's median is worse than the parent's by more
                    than the bound ``BENCHMARK.json`` fixes;
* ``within bound``  otherwise.

The metrics a run reports without a bound (``latency_ms_p50``,
``latency_ms_tail``, ``throughput_ops_s``, ``fail_rate``, listed in its
record line) get ``improved``, ``worse`` by the same rule with the sides
swapped, ``unchanged`` when every run reads the same, or ``unresolved``.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(directory) -> tuple[dict, dict]:
    """``{(workload, seed): {metric: value}}`` for every untraced run saved in
    ``directory``, and the spec of each metric the runs report unbounded."""
    runs, unbounded = {}, {}
    for path in sorted(Path(directory).iterdir()):
        record = result = None
        for line in path.read_text().splitlines():
            if line.startswith("{"):
                doc = json.loads(line)
                if "record" in doc:
                    record = doc["record"]
                elif "metrics" in doc:
                    result = doc
        if record is None or result is None or record["trace"]:
            continue
        metrics = {**result["metrics"], **record["reported"]}
        runs[(record["workload"], record["seed"])] = {
            name: m["value"] for name, m in metrics.items()
        }
        for name, m in record["reported"].items():
            unbounded[name] = {"name": name, "unit": m["unit"], "better": m["better"],
                               "bound": None}
    return runs, unbounded


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list, change: list, pairs: list, metric: dict) -> tuple[str, str]:
    sign = 1 if metric["better"] == "lower" else -1

    def gain(old, new):  # positive when ``new`` is better
        return sign * (old - new)

    wins = sum(gain(p, c) > 0 for p, c in pairs)
    losses = sum(gain(p, c) < 0 for p, c in pairs)
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain(pm, cm) > q3 - q1:
        word = "improved"
    elif metric["bound"] is None:
        lost = pairs and losses >= WIN_SHARE * len(pairs) and -gain(pm, cm) > q3 - q1
        same = min(parent) == max(parent) == min(change) == max(change)
        word = "worse" if lost else "unchanged" if same else "unresolved"
    elif pm and (q3 - q1) / pm > metric["bound"] and not all_better:
        word = "unresolved"
    elif pm and -gain(pm, cm) / pm > metric["bound"]:
        word = "worse"
    else:
        word = "within bound"
    return word, f"{wins}/{len(pairs)}"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loaded = [load_runs(d) for d in argv]
    sides = [runs for runs, _ in loaded]
    unbounded = {}
    for _, specs in loaded:
        unbounded.update(specs)
    workloads = sorted({w for runs in sides for w, _ in runs})
    header = ["workload", "metric"]
    for label in ("parent", "change")[:len(sides)]:
        header += [f"{label} median [q1, q3]", "spread"]
    if len(sides) == 2:
        header += ["wins", "bound", "verdict"]
    print("\t".join(header))
    for workload in workloads:
        for metric in spec["end_to_end"] + list(unbounded.values()):
            name = metric["name"]
            row = [workload, f"{name} ({metric['unit']})"]
            series = []
            for runs in sides:
                values = {s: m[name] for (w, s), m in runs.items()
                          if w == workload and name in m}
                series.append(values)
                if not values:
                    row += ["-", "-"]
                    continue
                q1, median, q3 = quartiles(list(values.values()))
                spread = f"{(q3 - q1) / median:.3f}" if median else "-"
                row += [f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}", spread]
            if len(sides) == 2 and all(series):
                parent, change = series
                pairs = [(parent[s], change[s]) for s in sorted(parent.keys() & change.keys())]
                word, wins = verdict(list(parent.values()), list(change.values()), pairs, metric)
                row += [wins, str(metric["bound"]), word]
            print("\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
