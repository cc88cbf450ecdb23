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
from itertools import chain
from operator import itemgetter
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

SCHEMA_VERSION = 1


def _float_texts(values: list) -> list[str] | None:
    """`float.__repr__` of each float, computed once per distinct bit pattern
    (bits, not values, since 0.0 == -0.0); None when one is not finite."""
    bits = np.array(values, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    distinct = distinct.view(np.float64)
    if not np.isfinite(distinct).all():
        return None
    return np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)[index].tolist()


def _template(first, items: list, depth: int, columns: list) -> str | None:
    """`first` written at `depth` with one %-slot per leaf, after appending to
    `columns` the column of each slot's leaves over `items`.

    None unless every item has the shape of `first`: the same types, sorted
    keys and lengths at every level, with each leaf an int or a finite float
    (exact types, so no bool and no numpy scalar).
    """
    kind = type(first)
    if set(map(type, items)) != {kind}:
        return None
    if kind is int:
        columns.append(items)
        return "%d"
    if kind is float:
        texts = _float_texts(items)
        if texts is None:
            return None
        columns.append(texts)
        return "%s"
    if kind is dict and all(type(key) is str for key in first):
        keys = sorted(first)
    elif kind is list or kind is tuple:
        keys = range(len(first))
    else:
        return None
    if set(map(len, items)) != {len(first)}:
        return None
    if not first:
        return "{}" if kind is dict else "[]"
    flat = None if kind is dict else list(chain.from_iterable(items))
    parts = []
    for key in keys:
        try:
            column = list(map(itemgetter(key), items)) if flat is None else flat[key :: len(first)]
        except KeyError:  # a dict with other keys
            return None
        part = _template(first[key], column, depth + 1, columns)
        if part is None:
            return None
        parts.append(json.dumps(key).replace("%", "%%") + ": " + part if kind is dict else part)
    indent = "\n" + "  " * depth
    body = indent + "  " + ("," + indent + "  ").join(parts) + indent
    return "{" + body + "}" if kind is dict else "[" + body + "]"


def _write(obj, depth: int, out: list[str]) -> None:
    indent = "\n" + "  " * depth
    pad = indent + "  "
    kind = type(obj)
    if kind is dict and obj and all(type(key) is str for key in obj):
        sep = "{" + pad
        for key in sorted(obj):
            out.append(sep + json.dumps(key) + ": ")
            _write(obj[key], depth + 1, out)
            sep = "," + pad
        out.append(indent + "}")
        return
    if (kind is list or kind is tuple) and len(obj) > 1 and type(obj[0]) in (dict, list, tuple):
        columns: list = []
        template = _template(obj[0], obj, depth + 1, columns)
        if template is not None and columns:
            out.append("[" + pad)
            out.append(("," + pad).join(map(template.__mod__, zip(*columns))))
            out.append(indent + "]")
            return
    out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", indent))


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` for an acyclic `obj`.

    With any indent, `json` runs its pure-Python encoder.  Here dicts are
    walked as `json` walks them, and a list of two or more dicts or lists of
    one shape (see `_template`) is written from one %-template built from its
    first item, filled row by row from columns of leaves gathered over all
    items.  Everything else goes to `json.dumps`, indented to its depth.
    """
    out: list[str] = []
    _write(obj, 0, out)
    return "".join(out)


def _window_report(window: Window) -> dict:
    out = windows.window_to_dict(window)
    if window.kind == "constructed" and window.backend.kind == "exact":
        out["zeta_order"] = windows.zeta_order(window.n)
    return out


def _build_window(args, n: int) -> Window:
    spec = args.window
    backend = getattr(args, "backend", "float")
    fb = FloatBackend(eps=getattr(args, "eps", DEFAULT_EPS))
    if spec.endswith(".json") or Path(spec).exists():
        window = windows.load_window(spec)
        # a float window takes its zero tolerance from --eps, not from the file
        return replace(window, backend=fb) if window.backend.kind == "float" else window
    if backend == "exact":
        if spec == "constructed":
            return windows.power_window_root_of_unity(n, args.prime_bits)
        if spec == "ones":
            return windows.ones_window_exact(n, args.prime_bits)
        raise ValueError(f"window {spec!r} is not available under the exact backend")
    if spec == "constructed":
        return windows.power_window_root_of_unity_float(n, fb)
    if spec == "random":
        return windows.random_window(n, args.window_seed, fb)
    if spec == "ones":
        return windows.ones_window(n, fb)
    if spec == "pi":
        return windows.power_window_generic(n, math.pi, fb)
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
        report["verification"] = vr.to_dict()
        code = 0 if not vr.dependent else 1
    if args.window_out:
        windows.save_window(window, args.window_out)
    return report, code


def cmd_verify(args) -> tuple[dict, int]:
    n = args.n
    window = _build_window(args, n)
    if window.backend.kind != args.backend:
        raise ValueError(
            f"window backend {window.backend.kind!r} does not match --backend {args.backend!r}"
        )
    if args.mode == "sampled":
        enum = verify.SupportEnumeration(n, "sampled", count=args.count, seed=args.seed)
    else:
        # the float scan tests every support, the exact scan one per translation orbit
        rows, what = math.comb(n * n, n), "{} supports"
        if args.backend == "exact":  # an orbit has at most N² members
            rows, what = -(-rows // (n * n)), "at least {} orbit representatives"
        if rows > args.exhaustive_budget:
            raise ValueError(
                f"exhaustive mode tests {what.format(rows)}; over budget "
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
        "result": report_obj.to_dict(),
    }
    return report, 0 if not report_obj.dependent else 1


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
            text = _dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": args.command,
                    **payload,
                    "timing": {
                        "generated_at": datetime.now(timezone.utc).isoformat(),
                        "elapsed_seconds": time.perf_counter() - start,
                    },
                }
            )
        else:  # simulate: one JSON line per record
            text = "\n".join(json.dumps(line, sort_keys=True) for line in payload)
        # the text and its newline go separately, so a large report is not copied
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
            fh.write(text)
            fh.write("\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
