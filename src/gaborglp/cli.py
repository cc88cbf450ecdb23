"""Command-line interface: reproducible batch jobs with JSON reports.

Commands
--------
construct      build a window (root-of-unity for N ≥ 4, seeded random below)
verify         enumerate supports and certify general linear position
analyze        monomial analysis of specific supports
simulate       erasure round-trip trials
fourier-check  exhaustive DFT minor check for a prime dimension

Each `cmd_*` returns (payload, exit code) and writes nothing but its side
files (--window-out, --witness-csv).  `main` runs it, stamps a dict payload
with "schema_version", "command" and "timing", writes the report to stdout
or to --output, and turns a ValueError or OSError into one "error:" line.

Exit codes: 0 = all checks passed, 1 = a dependency/violation was found,
2 = usage or configuration error, including an output path that cannot be
written.  Progress goes to stderr.  Reports are schema-versioned JSON and
byte-identical for identical configurations apart from the "timing" block.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
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
from .operators import Window, support_cells
from .table import JSON_NONFINITE, Table, fill

SCHEMA_VERSION = 1


def _parts(record, depth: int) -> list:
    """`record` as `json.dumps(record, indent=2, sort_keys=True)` writes it at
    `depth`, split at its array leaves: literal texts alternating with the
    arrays.  Dicts in `record` have str keys."""
    parts = [""]

    def walk(node, depth):
        if isinstance(node, np.ndarray):
            parts.extend([node, ""])
            return
        kind = type(node)
        if kind not in (dict, list, tuple) or not node:  # a constant, {} or []
            parts[-1] += json.dumps(node)
            return
        pad = "\n" + "  " * (depth + 1)
        sep = "{" if kind is dict else "["
        for key, value in sorted(node.items()) if kind is dict else enumerate(node):
            parts[-1] += sep + pad + (json.dumps(key) + ": " if kind is dict else "")
            walk(value, depth + 1)
            sep = ","
        parts[-1] += "\n" + "  " * depth + ("}" if kind is dict else "]")

    walk(record, depth)
    return parts


def _write(obj, depth: int):
    """The text of `json.dumps(obj, indent=2, sort_keys=True)` written at
    `depth`, in pieces.

    With any indent, `json` runs its pure-Python encoder.  Here dicts are
    walked as `json` walks them, and a `Table` is filled from its columns in
    blocks of rows (`table.fill`), with no record built per row.  Everything
    else goes to `json.dumps`, indented to its depth.
    """
    indent = "\n" + "  " * depth
    kind = type(obj)
    if kind is dict and obj and all(type(key) is str for key in obj):
        sep = "{"
        for key in sorted(obj):
            yield sep + indent + "  " + json.dumps(key) + ": "
            yield from _write(obj[key], depth + 1)
            sep = ","
        yield indent + "}"
    elif kind is not Table:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", indent)
    elif not obj.rows:
        yield "[]"
    else:  # each row after a "," and a new line; the first after the "[" instead
        parts = _parts(obj.record, depth + 1)
        parts[0] = "," + indent + "  " + parts[0]
        blocks = fill(parts, obj.rows, JSON_NONFINITE)
        yield "[" + next(blocks)[1:]
        yield from blocks
        yield indent + "]"


def _window_report(window: Window) -> dict:
    out = windows.window_to_dict(window)
    if window.kind == "constructed" and window.backend.kind == "exact":
        out["zeta_order"] = windows.zeta_order(window.n)
    return out


def _build_window(args, n: int) -> Window:
    spec, backend = args.window, getattr(args, "backend", "float")
    fb = FloatBackend(eps=getattr(args, "eps", DEFAULT_EPS))
    named = {
        ("exact", "constructed"): lambda: windows.power_window_root_of_unity(n, args.prime_bits),
        ("exact", "ones"): lambda: windows.ones_window_exact(n, args.prime_bits),
        ("float", "constructed"): lambda: windows.power_window_root_of_unity_float(n, fb),
        ("float", "random"): lambda: windows.random_window(n, args.window_seed, fb),
        ("float", "ones"): lambda: windows.ones_window(n, fb),
        ("float", "pi"): lambda: windows.power_window_generic(n, math.pi, fb),
    }
    if (backend, spec) in named:
        return named[backend, spec]()
    # a window name comes before a file of that name, which "./ones" still reaches
    if spec not in {name for _, name in named} and (spec.endswith(".json") or Path(spec).exists()):
        window = windows.load_window(spec)
        # a float window takes its zero tolerance from --eps, not from the file
        return replace(window, backend=fb) if window.backend.kind == "float" else window
    if backend == "exact":
        raise ValueError(f"window {spec!r} is not available under the exact backend")
    raise ValueError(f"unknown window {spec!r}")


def cmd_construct(args) -> tuple[dict, int]:
    n = args.n
    if args.workers < 1:
        raise ValueError(f"the number of workers must be at least 1, got {args.workers}")
    report: dict = {"n": n}
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
        report["verification"] = vr.to_columns()
        code = 1 if len(vr.dependent) else 0
    if args.window_out:
        windows.save_window(window, args.window_out)
    return report, code


def cmd_verify(args) -> tuple[dict, int]:
    n = args.n
    if args.mode == "sampled":
        enum = verify.SupportEnumeration(n, "sampled", count=args.count, seed=args.seed)
    else:
        enum = verify.SupportEnumeration(n, "exhaustive")
        # the float scan tests every support, the exact scan one per translation orbit
        rows, what = enum.total(), "{} supports"
        if args.backend == "exact":  # an orbit has at most N² members
            rows, what = -(-rows // (n * n)), "at least {} orbit representatives"
        if rows > args.exhaustive_budget:
            raise ValueError(
                f"exhaustive mode tests {what.format(rows)}; over budget "
                f"{args.exhaustive_budget} — use --mode sampled"
            )
    window = _build_window(args, n)
    if window.backend.kind != args.backend:
        raise ValueError(
            f"window backend {window.backend.kind!r} does not match --backend {args.backend!r}"
        )

    progress = None
    if args.progress:
        total = enum.total()

        def progress(done, _total=total):
            print(f"checked {done}/{_total} supports", file=sys.stderr)

    report_obj = verify.verify_glp(
        window, enum, workers=args.workers, num_primes=args.primes, progress=progress
    )
    if args.witness_csv:
        verify.write_witness_csv(report_obj, args.witness_csv)
    report = {
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
        "result": report_obj.to_columns(),
    }
    return report, 1 if len(report_obj.dependent) else 0


def _parse_support(text: str, n: int) -> tuple[tuple[int, int], ...]:
    parts = text.replace("(", "").replace(")", "").split(";")
    return support_cells([part.split(",") for part in parts if part.strip()], n, n)


def cmd_analyze(args) -> tuple[dict, int]:
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
        moment_table = [
            {
                "class": [list(b) for b in cls],
                "monomial": monomials.monomial_str(alpha),
                "first_moment": str(mom.first),
                "second_moment": str(mom.second),
            }
            for cls, alpha, mom in uniq.classes
        ]
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
        "n": n,
        "context": {"order": ctx.order, "prime": ctx.prime, "root": ctx.root},
        "supports": records,
    }
    return report, 0 if all(r["uniqueness"]["passed"] for r in records) else 1


def cmd_simulate(args) -> tuple[list[dict], int]:
    n = args.n
    if args.trials < 0:
        raise ValueError(f"the number of trials must be at least 0, got {args.trials}")
    if not args.tolerance >= 0:  # NaN compares false, so it would fail every trial
        raise ValueError(f"--tolerance must be a nonnegative number, got {args.tolerance}")
    erasures = args.erasures if args.erasures is not None else n * n - n
    window = _build_window(args, n)
    if window.backend.kind != "float":
        raise ValueError("simulate requires a float-backend window")
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
    return lines, 0 if failures == 0 else 1


def cmd_fourier_check(args) -> tuple[dict, int]:
    result = verify.fourier_minor_check(args.p, args.prime_bits)
    return {"result": result.to_dict()}, 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborglp",
        description="Finite Gabor frames in general linear position: "
        "construction, certification, analysis, erasure simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prime_bits=True):
        p.add_argument("--output", "-o", help="write the JSON report here (default stdout)")
        if prime_bits:
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
    common(p, prime_bits=False)
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
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload, code = args.func(args)
        if isinstance(payload, dict):
            text = _write(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": args.command,
                    **payload,
                    "timing": {
                        "generated_at": datetime.now(timezone.utc).isoformat(),
                        "elapsed_seconds": time.perf_counter() - start,
                    },
                },
                0,
            )
        else:  # simulate: one JSON line per record
            text = ["\n".join(json.dumps(line, sort_keys=True) for line in payload)]
        # the report goes out in pieces, never joined into one string
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
            fh.writelines(text)
            fh.write("\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
