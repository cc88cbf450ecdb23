"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one run at a
time, and reports for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and the
spread (q3 - q1) / median next to a third of the metric's bound in
``BENCHMARK.json``.  With ``--out`` the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m} {v[-1]:.4g}" for m, v in values.items()),
                  file=sys.stderr, flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = spread < bounds[metric] / 3
            steady &= ok
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                                     "spread": spread, "values": vals}
            print(f"{name:16} {metric:15} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"n {len(vals)}  spread {spread:.4f} (bound/3 {bounds[metric] / 3:.4f})"
                  f"{'' if ok else '  UNSTEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
