"""The benchmark's workloads: inputs, jobs, and output checks.

A workload's set-up builds its inputs through gaborglp's public API and a
list of jobs.  A round runs every job once, one at a time; the closed loop
repeats rounds.  Every round's outputs are checked, and a round whose check
fails counts as failed.  gaborglp is imported lazily so that the set-up
probe can time the import itself.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Result digests recorded from the seed commit, checked whenever present.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

QX_DEFAULT_SEED = 707070
# expected.json records the qx-batch digest of seeds 0..QX_RECORDED_SEEDS-1
# and QX_DEFAULT_SEED; any other seed is folded into that range, so that
# every run's result is checked against a recorded digest.
QX_RECORDED_SEEDS = 50


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def import_program():
    """gaborglp with its CLI module loaded (the package does not import it)."""
    importlib.import_module("gaborglp.cli")
    return importlib.import_module("gaborglp")


@dataclass
class Outcome:
    """What one round processed and whether its outputs were correct."""

    items: int  # supports (or Q polynomials) processed
    report_bytes: int
    errors: list[str]
    digest: str


@dataclass
class Workload:
    setup: Callable  # (gaborglp, seed, outdir) -> inputs; inputs["jobs"]: job() -> output
    check: Callable  # (gaborglp, inputs, job outputs) -> Outcome
    # Untraced rounds that wall_s is taken over: a fixed count, so that a
    # faster program does not get more samples and a lower minimum.  About
    # three quarters of a 38 s run on a busy 2-vCPU host.
    rounds: int


def _cli_job(gg, argv: list[str], path: Path):
    """A job that runs the gaborglp command in-process and returns (exit code, report)."""

    def job():
        rc = gg.cli.main(argv + ["--workers", "1", "-o", str(path)])
        return rc, path.read_bytes()

    return job


def _window_errors(gg, report: dict, window) -> list[str]:
    expected = gg.windows.window_to_dict(window)
    if any(report["window"].get(k) != v for k, v in expected.items()):
        return ["report window differs from the window built in set-up"]
    return []


# ---------------------------------------------------------------------------
# certify: exhaustive exact verification of the constructed window
# ---------------------------------------------------------------------------


def certify_setup(n: int):
    def setup(gg, seed, outdir):
        argv = ["verify", "--n", str(n), "--backend", "exact", "--mode", "exhaustive"]
        return {
            "n": n,
            "window": gg.power_window_root_of_unity(n),
            "jobs": [_cli_job(gg, argv, Path(outdir) / "certify.json")],
        }

    return setup


def certify_check(gg, inputs, outputs) -> Outcome:
    [(rc, text)] = outputs
    report = json.loads(text)
    res = report["result"]
    n = inputs["n"]
    total = math.comb(n * n, n)
    errors = _window_errors(gg, report, inputs["window"])
    if rc != 0 or res["verdict"] != "glp-certified":
        errors.append(f"exit code {rc}, verdict {res['verdict']}")
    if res["supports_tested"] != total or res["dependent"] != 0:
        errors.append(f"tested {res['supports_tested']} of {total}, dependent {res['dependent']}")
    d = digest(res)
    want = EXPECTED["certify"].get(str(n))
    if want is not None and d != want:
        errors.append(f"result digest {d} != recorded {want}")
    return Outcome(total, len(text), errors, d)


# ---------------------------------------------------------------------------
# nonglp: the all-ones control window, exact then float
# ---------------------------------------------------------------------------


def nonglp_setup(n: int):
    def setup(gg, seed, outdir):
        argv = ["verify", "--n", str(n), "--window", "ones", "--mode", "exhaustive"]
        return {
            "n": n,
            "exact_window": gg.windows.ones_window_exact(n),
            "float_window": gg.ones_window(n),
            "jobs": [
                _cli_job(gg, argv + ["--backend", "exact"], Path(outdir) / "nonglp-exact.json"),
                _cli_job(gg, argv + ["--backend", "float"], Path(outdir) / "nonglp-float.json"),
            ],
        }

    return setup


def _witness_errors(gg, window, deps) -> list[str]:
    """Float witnesses are unit null vectors of their minors (checked on a sample)."""
    import numpy as np

    n = window.n
    cols = np.asarray(gg.system_matrix(window), dtype=np.complex128)
    for dep in deps[:: max(1, len(deps) // 200)]:
        w = np.array([complex(re, im) for re, im in dep["witness"]])
        sel = [k * n + l for k, l in dep["support"]]
        if abs(np.linalg.norm(w) - 1) > 1e-9 or np.linalg.norm(cols[:, sel] @ w) > 1e-9:
            return [f"float witness for {dep['support']} is not a null vector"]
    return []


def nonglp_check(gg, inputs, outputs) -> Outcome:
    n = inputs["n"]
    total = math.comb(n * n, n)
    want = EXPECTED["nonglp"].get(str(n))
    errors = []
    results = []
    for backend, (rc, text) in zip(("exact", "float"), outputs):
        report = json.loads(text)
        res = report["result"]
        results.append(res)
        errors += _window_errors(gg, report, inputs[f"{backend}_window"])
        if rc != 1 or res["verdict"] != "dependent-found" or res["backend"] != backend:
            errors.append(f"{backend}: exit code {rc}, verdict {res['verdict']}")
        if res["supports_tested"] != total:
            errors.append(f"{backend}: tested {res['supports_tested']} of {total}")
        if want and res["dependent"] != want["dependent"]:
            errors.append(f"{backend}: {res['dependent']} dependent, expected {want['dependent']}")
    exact, flt = results
    if any(len(d["residues"]) != 3 or any(d["residues"].values()) for d in exact["dependent_supports"]):
        errors.append("an exact witness does not list 3 primes, all zero")
    if [d["support"] for d in exact["dependent_supports"]] != [d["support"] for d in flt["dependent_supports"]]:
        errors.append("exact and float backends disagree on the dependent supports")
    if any(d["det_modulus"] > 1e-8 for d in flt["dependent_supports"]):
        errors.append("float backend reported a modulus above its zero threshold")
    errors += _witness_errors(gg, inputs["float_window"], flt["dependent_supports"])
    # float moduli and witnesses carry round-off; the digest covers the float verdicts
    flt_verdicts = dict(flt, dependent_supports=[d["support"] for d in flt["dependent_supports"]])
    d = digest([exact, flt_verdicts])
    if want and d != want["digest"]:
        errors.append(f"result digest {d} != recorded {want['digest']}")
    return Outcome(2 * total, sum(len(text) for _, text in outputs), errors, d)


# ---------------------------------------------------------------------------
# qx-batch: Q(x) for seeded random supports, one job per support
# ---------------------------------------------------------------------------


def qx_setup(dims, per_dim: int):
    def setup(gg, seed, outdir):
        key = f"{tuple(dims)}x{per_dim}"
        if EXPECTED["qx"].get(key) and str(seed) not in EXPECTED["qx"][key]:
            seed %= QX_RECORDED_SEEDS
        rng = random.Random(seed)
        supports = []
        for n in dims:
            cells = [(a, b) for a in range(n) for b in range(n)]
            supports += [(n, rng.sample(cells, n)) for _ in range(per_dim)]
        return {
            "key": key,
            "seed": seed,
            "supports": supports,
            # look q_polynomial up at call time, so that a tracer sees the call
            "jobs": [functools.partial(_q_job, gg, s, n) for n, s in supports],
        }

    return setup


def _q_job(gg, support, n):
    return gg.q_polynomial(support, n)


def qx_check(gg, inputs, outputs) -> Outcome:
    errors = []
    record = []
    for (n, support), q in zip(inputs["supports"], outputs):
        bound = n * (n - 1) ** 2
        if not q or q.degree > bound:
            errors.append(f"Q for {support} is zero or exceeds degree {bound}")
        record.append([n, support, q.context.prime, list(q.coeffs)])
    d = digest(record)
    want = EXPECTED["qx"].get(inputs["key"], {}).get(str(inputs["seed"]))
    if want is not None and d != want:
        errors.append(f"result digest {d} != recorded {want}")
    return Outcome(len(outputs), 0, errors, d)


def workloads(small: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``small`` gives the smoke-test sizes."""
    n_certify, n_nonglp = (4, 3) if small else (6, 4)
    return {
        "certify-n6": Workload(certify_setup(n_certify), certify_check, rounds=4),
        "nonglp-n4": Workload(nonglp_setup(n_nonglp), nonglp_check, rounds=48),
        "qx-batch": Workload(qx_setup((3,), 2) if small else qx_setup((3, 4, 5, 6), 25), qx_check, rounds=12),
    }
