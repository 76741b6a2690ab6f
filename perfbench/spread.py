"""Run the benchmark over several seeds and summarise each metric.

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; the spread of
each metric but ``setup_s`` must stay within the metric's bound in
``BENCHMARK.json``.  It also collects the record digests the runs
print.  Example, from the root of a checkout::

    python3 perfbench/spread.py --seeds 0-9 --out spread.json
    python3 perfbench/spread.py --workloads study-pool --seeds 97 \\
        --repeat 5
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,97")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"machine": machine_facts(), "seconds": args.seconds,
               "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests: dict[str, str] = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeat):
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(common.ROOT / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=common.ROOT, capture_output=True, text=True,
                )
                walls.append(time.monotonic() - start)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                if not result["correct"]:
                    print("\n".join(lines), file=sys.stderr)
                    return 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for line in lines:
                    if line.startswith("record digest "):
                        key, _, digest = line[len("record digest "):] \
                            .partition(": ")
                        digests[key] = digest
        stats = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {
            "seeds": args.seeds, "repeat": args.repeat,
            "max_run_wall_s": max(walls), "metrics": stats,
            "digests": digests,
        }
        print(f"{workload}: {len(walls)} runs, longest {max(walls):.1f} s")
        for name, st in stats.items():
            print(f"  {name:<18} median {st['median']:>12.5g}  "
                  f"spread {st['spread']:.4f}  bound {bounds[name]}",
                  flush=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
