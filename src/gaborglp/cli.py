"""Command-line interface: reproducible batch jobs with JSON reports.

Commands
--------
construct      build a window (root-of-unity for N ≥ 4, seeded random below)
verify         enumerate supports and certify general linear position
analyze        monomial analysis of specific supports
simulate       erasure round-trip trials
fourier-check  exhaustive DFT minor check for a prime dimension

Exit codes: 0 = all checks passed, 1 = a dependency/violation was found,
2 = usage or configuration error.  Progress goes to stderr; data goes to
stdout or to --output.  Reports are schema-versioned JSON and byte-identical
for identical configurations apart from the "timing" block.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import codec, monomials, verify, windows
from .backends import (
    DEFAULT_EPS,
    DEFAULT_MIN_BITS,
    DEFAULT_NUM_PRIMES,
    FloatBackend,
    embedding_primes,
)
from .operators import Window

SCHEMA_VERSION = 1


class SystemExit2(Exception):
    """Configuration error mapped to exit code 2."""


def _timing(start: float) -> dict:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - start,
    }


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_lines(lines: list[dict], output: str | None) -> None:
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _window_report(window: Window) -> dict:
    out = windows.window_to_dict(window)
    if window.kind == "constructed" and window.backend.kind == "exact":
        out["zeta_order"] = windows.zeta_order(window.n)
    return out


def _build_window(args, n: int) -> Window:
    spec = args.window
    backend = getattr(args, "backend", "float")
    eps = getattr(args, "eps", DEFAULT_EPS)
    if spec.endswith(".json") or Path(spec).exists():
        return windows.load_window(spec)
    if backend == "exact":
        if spec == "constructed":
            return windows.power_window_root_of_unity(n, args.prime_bits)
        if spec == "ones":
            return windows.ones_window_exact(n, args.prime_bits)
        raise SystemExit2(f"window {spec!r} is not available under the exact backend")
    fb = FloatBackend(eps=eps)
    if spec == "constructed":
        return windows.power_window_root_of_unity_float(n, fb)
    if spec == "random":
        return windows.random_window(n, args.window_seed, fb)
    if spec == "ones":
        return windows.ones_window(n, fb)
    if spec == "pi":
        return windows.power_window_generic(n, math.pi, fb)
    raise SystemExit2(f"unknown window {spec!r}")


def cmd_construct(args) -> int:
    start = time.perf_counter()
    n = args.n
    report: dict = {"schema_version": SCHEMA_VERSION, "command": "construct", "n": n}
    code = 0
    if n >= 4:
        window = windows.power_window_root_of_unity(n, args.prime_bits)
        report["window"] = _window_report(window)
    else:
        # no root-of-unity construction below dimension 4; certify a seeded
        # random window instead (almost every window works)
        window = windows.random_window(n, args.seed)
        report["window"] = _window_report(window)
        enum = verify.SupportEnumeration(n, "exhaustive")
        vr = verify.verify_glp(window, enum, workers=args.workers)
        report["verification"] = vr.to_dict()
        code = 0 if not vr.dependent else 1
    if args.window_out:
        windows.save_window(window, args.window_out)
    report["timing"] = _timing(start)
    _emit(report, args.output)
    return code


def cmd_verify(args) -> int:
    start = time.perf_counter()
    n = args.n
    window = _build_window(args, n)
    if window.backend.kind != args.backend:
        raise SystemExit2(
            f"window backend {window.backend.kind!r} does not match --backend {args.backend!r}"
        )
    if args.mode == "sampled":
        enum = verify.SupportEnumeration(n, "sampled", count=args.count, seed=args.seed)
    else:
        budget = math.comb(n * n, n)
        if budget > args.exhaustive_budget:
            raise SystemExit2(
                f"exhaustive mode needs {budget} supports; over budget "
                f"{args.exhaustive_budget} — use --mode sampled"
            )
        enum = verify.SupportEnumeration(n, "exhaustive")

    progress = None
    if args.progress:
        total = enum.total()

        def progress(done, _total=total):
            print(f"checked {done}/{_total} supports", file=sys.stderr)

    report_obj = verify.verify_glp(
        window, enum, workers=args.workers, num_primes=args.primes, progress=progress
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": {
            "n": n,
            "backend": args.backend,
            "mode": args.mode,
            "count": args.count,
            "seed": args.seed,
            "window": args.window,
            "window_seed": args.window_seed if args.window == "random" else None,
            "eps": args.eps,
            "prime_bits": args.prime_bits,
            "num_primes": args.primes,
        },
        "window": _window_report(window),
        "result": report_obj.to_dict(),
        "timing": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": report_obj.elapsed_seconds,
        },
    }
    _emit(report, args.output)
    if args.witness_csv:
        verify.write_witness_csv(report_obj, args.witness_csv)
    return 0 if not report_obj.dependent else 1


def _parse_support(text: str, n: int) -> list[tuple[int, int]]:
    out = []
    for part in text.replace("(", "").replace(")", "").split(";"):
        part = part.strip()
        if not part:
            continue
        k, l = part.split(",")
        out.append((int(k) % n, int(l) % n))
    if len(out) != n:
        raise SystemExit2(f"support must contain exactly {n} indices, got {len(out)}")
    if len(set(out)) != n:
        raise SystemExit2("support contains duplicate indices")
    return out


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    n = args.n
    ctx = embedding_primes(n, 1, args.prime_bits)[0]
    records = []
    for text in args.support:
        support = _parse_support(text, n)
        prof = monomials.profile_of_support(support, n)
        gamma, nsup = monomials.normalize_support(support, n)
        nprof = monomials.profile_of_support(nsup, n)
        ci_alpha = monomials.ci_monomial(nprof)
        coeff = monomials.ci_coefficient(support, n)
        uniq = monomials.verify_ci_uniqueness(nprof, max_classes=args.class_budget)
        moment_table = []
        if nprof.class_count() <= args.class_budget:
            for cls in monomials.partition_classes(nprof):
                alpha = monomials.monomial_of_class(nprof, cls)
                mom = monomials.monomial_moments(alpha)
                moment_table.append(
                    {
                        "class": [list(b) for b in cls],
                        "monomial": monomials.monomial_str(alpha),
                        "first_moment": str(mom.first),
                        "second_moment": str(mom.second),
                    }
                )
        interval = monomials.interval_of_profile(nprof)
        records.append(
            {
                "support": [list(idx) for idx in support],
                "profile": list(prof.counts),
                "gamma": gamma,
                "normalized_support": [list(idx) for idx in nsup],
                "normalized_profile": list(nprof.counts),
                "interval": list(interval),
                "ci_monomial": monomials.monomial_str(ci_alpha),
                "ci_exponents": list(ci_alpha),
                "ci_coefficient": {
                    "symbolic": str(coeff),
                    "residue": coeff.residue(ctx),
                    "prime": ctx.prime,
                    "float_modulus": abs(coeff.complex_value()),
                },
                "lowest_index_monomial": monomials.monomial_str(
                    monomials.lowest_index_monomial(nsup, n)
                ),
                "uniqueness": {
                    "classes": uniq.class_count,
                    "ci_class_hits": uniq.ci_class_hits,
                    "passed": uniq.passed,
                },
                "moment_table": moment_table,
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "n": n,
        "context": {"order": ctx.order, "prime": ctx.prime, "root": ctx.root},
        "supports": records,
        "timing": _timing(start),
    }
    _emit(report, args.output)
    return 0 if all(r["uniqueness"]["passed"] for r in records) else 1


def cmd_simulate(args) -> int:
    n = args.n
    erasures = args.erasures if args.erasures is not None else n * n - n
    window = _build_window(args, n)
    if window.backend.kind != "float":
        raise SystemExit2("simulate requires a float-backend window")
    lines = []
    failures = 0
    max_err = 0.0
    for t in range(args.trials):
        rng = np.random.default_rng([args.seed, t])
        f = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        pattern = codec.random_erasure(n, erasures, args.seed * 1_000_003 + t)
        packets = codec.erase(codec.encode(f, window), pattern)
        record = {
            "trial": t,
            "n": n,
            "seed": args.seed,
            "surviving": len(pattern.surviving),
        }
        try:
            recovered = codec.decode(packets, window)
            err = float(
                np.sqrt((np.abs(recovered - f.astype(recovered.dtype)) ** 2).sum())
                / np.sqrt((np.abs(f) ** 2).sum())
            )
            record["relative_error"] = err
            record["verdict"] = "ok" if err <= args.tolerance else "fail"
            max_err = max(max_err, err)
        except (codec.InsufficientPacketsError, codec.RankDeficientError) as exc:
            record["verdict"] = "error"
            record["error"] = type(exc).__name__
        if record["verdict"] != "ok":
            failures += 1
        lines.append(record)
    lines.append(
        {
            "summary": True,
            "n": n,
            "trials": args.trials,
            "erasures": erasures,
            "failures": failures,
            "max_relative_error": max_err,
        }
    )
    _emit_lines(lines, args.output)
    return 0 if failures == 0 else 1


def cmd_fourier_check(args) -> int:
    start = time.perf_counter()
    result = verify.fourier_minor_check(args.p, args.prime_bits)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fourier-check",
        "result": result.to_dict(),
        "timing": _timing(start),
    }
    _emit(report, args.output)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborglp",
        description="Finite Gabor frames in general linear position: "
        "construction, certification, analysis, erasure simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", help="write the JSON report here (default stdout)")
        p.add_argument("--prime-bits", type=int, default=DEFAULT_MIN_BITS)

    p = sub.add_parser("construct", help="build a window")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the N < 4 random fallback")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--window-out", help="also write the window as JSON")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="certify general linear position")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--backend", choices=["exact", "float"], default="exact")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--count", type=int, default=None, help="sample size for sampled mode")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--window", default="constructed", help="constructed|random|ones|pi|PATH")
    p.add_argument("--window-seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--primes", type=int, default=DEFAULT_NUM_PRIMES)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--witness-csv", help="write dependent-support witnesses as CSV")
    p.add_argument("--progress", action="store_true", help="progress lines on stderr")
    p.add_argument("--exhaustive-budget", type=int, default=5_000_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="monomial analysis of supports")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--support",
        action="append",
        required=True,
        help='support as "(k,l);(k,l);…" — repeatable',
    )
    p.add_argument("--class-budget", type=int, default=100_000)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="erasure round-trip trials")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--erasures", type=int, default=None, help="default N²-N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", default="constructed")
    p.add_argument("--window-seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fourier-check", help="DFT minor check for prime dimension")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_fourier_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
