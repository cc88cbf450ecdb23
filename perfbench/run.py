"""Benchmark of gaborglp certification, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-n6 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

One process, one client, one job at a time (a closed loop): rounds of the
workload's jobs repeat until the next round would overrun ``--seconds`` and
the workload's fixed number of rounds is done; every round's output is
checked.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics from ``tracer.py``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 12  # spread between the first workload.rounds untraced rounds

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "supports_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def use_checkout_source() -> None:
    """Import gaborglp from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "gaborglp" / "__init__.py").is_file():
        print(f"error: no gaborglp sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def machine_facts() -> dict:
    import multiprocessing
    import os

    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def setup_probe(args) -> None:
    """Child process: time importing gaborglp and building the inputs."""
    use_checkout_source()
    workload = wl.workloads()[args.workload]
    with tempfile.TemporaryDirectory(dir=args.outdir) as outdir:
        t0 = time.perf_counter()
        gg = wl.import_program()
        workload.setup(gg, args.seed, outdir)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args, outdir: str) -> float:
    """Set-up time of a fresh interpreter (import is once per process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--outdir", outdir]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak RSS of this process (the jobs run in it, on one worker)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_jobs(jobs) -> tuple[list[float], list]:
    """Run each job once, one at a time; the wall seconds and output of each."""
    walls, outputs = [], []
    for job in jobs:
        t0 = time.perf_counter()
        outputs.append(job())
        walls.append(time.perf_counter() - t0)
    return walls, outputs


def run_rounds(args, workload, gg, inputs, outdir: str):
    """Closed loop of rounds for --seconds (and, untraced, at least
    ``workload.rounds``); per-round records and, untraced, set-up times.

    Untraced, SETUP_PROBES set-up probes run between the first
    ``workload.rounds`` rounds, evenly spread, so that they sample as many
    moments of a shared host as the rounds that wall_s is taken from.
    """
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    rounds, setup = [], []
    start = now = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1  # untraced first, then alternate
        gc.collect()
        if traced:
            tracer.install()
        try:
            jobs, outputs = run_jobs(inputs["jobs"])
        finally:
            if traced:
                tracer.restore()
        rss = peak_rss_mb()
        outcome = workload.check(gg, inputs, outputs)
        del outputs
        rounds.append({"jobs": jobs, "wall": sum(jobs), "traced": traced, "rss": rss,
                       "outcome": outcome, "trace": tracer.take() if traced else None})
        print(f"round {len(rounds)}: {sum(jobs):.3f} s{' traced' if traced else ''}"
              f"{'; FAILED: ' + '; '.join(outcome.errors) if outcome.errors else ''}",
              file=sys.stderr, flush=True)
        if tracer is None and len(rounds) <= workload.rounds:
            while len(setup) < -(-len(rounds) * SETUP_PROBES // workload.rounds):
                setup.append(measure_setup(args, outdir))
        last, now = time.perf_counter() - now, time.perf_counter()
        # stop when another round like the last one would overrun --seconds
        if now - start + last > args.seconds and len(rounds) >= (2 if tracer else workload.rounds):
            return rounds, setup


def summarize(args, workload, rounds, setup_s: float | None) -> dict:
    from tracer import PER_LAYER, layer_metrics

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [(r["trace"], r["wall"]) for r in rounds if r["traced"]]
        values = layer_metrics(traced, [r["wall"] for r in plain], plain[0]["outcome"].report_bytes)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        # Each job at its fastest of the first workload.rounds rounds, summed
        # over the workload's jobs.  The jobs are fixed by the workload, not by
        # how the program splits its work.  Other tenants of a shared host slow
        # the CPU in bursts of seconds and only ever add time, so a short job's
        # fastest sample is steadier from run to run than its median.
        first = plain[: workload.rounds]
        wall = sum(min(times) for times in zip(*(r["jobs"] for r in first), strict=True))
        values = {
            "wall_s": wall,
            "supports_per_s": plain[0]["outcome"].items / wall,
            "setup_s": setup_s,
            # the first round's peak, before any output check ran
            "peak_rss_mb": rounds[0]["rss"],
        }
        units = END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_one(args) -> int:
    use_checkout_source()
    workload = wl.workloads()[args.workload]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        gg = wl.import_program()
        print(json.dumps({"machine": machine_facts()}))
        inputs = workload.setup(gg, args.seed, outdir)
        rounds, setup = run_rounds(args, workload, gg, inputs, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if setup:
        print("setup probes: " + " ".join(f"{t:.4f}" for t in setup), file=sys.stderr)
    # The fastest probe, as for wall_s: slow phases of a shared host only add time.
    metrics = summarize(args, workload, rounds, min(setup) if setup else None)
    failed = sum(1 for r in rounds if r["outcome"].errors)
    if len({r["outcome"].digest for r in rounds}) != 1:
        failed = len(rounds)  # traced and untraced rounds must agree
        print("error: rounds produced different results", file=sys.stderr)
    failed_fraction = failed / len(rounds)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(f"{args.workload} failed_fraction {failed_fraction!r} 1")
    print(json.dumps({"correct": failed == 0, "attempted": len(rounds), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so that peak memory is per workload."""
    names = list(wl.workloads())
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return proc.returncode or 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=wl.QX_DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--outdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in wl.workloads():
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
