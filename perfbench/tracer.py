"""Outside-in tracer for gaborglp, installed from the benchmark's own files.

The tracer wraps public functions of the package by rebinding them in every
``gaborglp`` module that holds them (``verify`` imports ``det_mod`` by name,
``monomials`` looks it up on ``backends`` at call time; both must see the
wrapper).  Each wrapped call is a span: it is timed, attributed to the
caller's span on the same thread, and aggregated in memory as calls, total
time, self time (total minus direct traced children) and per-call durations.
Nothing under ``src/`` is changed; ``restore`` puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# (span name, module, attribute).  Several constructors share one span name.
TARGETS = (
    ("cli.main", "gaborglp.cli", "main"),
    ("verify.verify_glp", "gaborglp.verify", "verify_glp"),
    ("backends.det_batch_nonzero_mod", "gaborglp.backends", "det_batch_nonzero_mod"),
    ("backends.det_mod", "gaborglp.backends", "det_mod"),
    ("backends.det_batch_float", "gaborglp.backends", "det_batch_float"),
    ("backends.det_float", "gaborglp.backends", "det_float"),
    ("operators.gabor_matrix", "gaborglp.operators", "gabor_matrix"),
    ("operators.system_matrix", "gaborglp.operators", "system_matrix"),
    ("monomials.q_polynomial", "gaborglp.monomials", "q_polynomial"),
    ("windows.construct", "gaborglp.windows", "power_window_root_of_unity"),
    ("windows.construct", "gaborglp.windows", "power_window_root_of_unity_float"),
    ("windows.construct", "gaborglp.windows", "power_window_generic"),
    ("windows.construct", "gaborglp.windows", "random_window"),
    ("windows.construct", "gaborglp.windows", "ones_window"),
    ("windows.construct", "gaborglp.windows", "ones_window_exact"),
)
ENUMERATE = "verify.enumerate"

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {
    "verify.enumerate_s": ("s", "lower"),
    "verify.parent_busy_share": ("ratio", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.chunks": ("count", "lower"),
    "verify.supports_tested": ("count", "lower"),
    "verify.first_prime_zeros": ("count", "lower"),
    "verify.escalations": ("count", "lower"),
    "verify.dependent": ("count", "lower"),
    "verify.escalation_useful_ratio": ("ratio", "higher"),
    "backends.det_batch_nonzero_mod.s": ("s", "lower"),
    "backends.det_batch_nonzero_mod.calls": ("count", "lower"),
    "backends.det_batch_nonzero_mod.matrices": ("count", "lower"),
    "backends.det_batch_nonzero_mod.matrices_per_s": ("1/s", "higher"),
    "backends.det_batch_nonzero_mod.ops_computed": ("ops", "lower"),
    "backends.det_batch_nonzero_mod.bytes_computed": ("B", "lower"),
    "backends.det_mod.s": ("s", "lower"),
    "backends.det_mod.calls": ("count", "lower"),
    "backends.det_batch_float.s": ("s", "lower"),
    "backends.det_float.s": ("s", "lower"),
    "backends.det_float.calls": ("count", "lower"),
    "operators.gabor_matrix.s": ("s", "lower"),
    "operators.gabor_matrix.calls": ("count", "lower"),
    "operators.system_matrix.s": ("s", "lower"),
    "windows.construct_s": ("s", "lower"),
    "monomials.q_polynomial.p50_ms": ("ms", "lower"),
    "monomials.q_polynomial.p97_ms": ("ms", "lower"),
    "monomials.q_polynomial.calls": ("count", "lower"),
    "monomials.q_eval_s": ("s", "lower"),
    "monomials.q_interp_s": ("s", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def kernel_cost(batch: int, n: int) -> tuple[int, int]:
    """Operations and bytes of one ``det_batch_nonzero_mod`` call, computed.

    Derived from the shapes of the division-free elimination on a
    (batch, n, n) int64 stack, not measured: the initial reduction reads and
    writes n² entries; step k swaps two rows of n-k entries (read and write
    each) and updates the (n-k-1)×(n-k) trailing block with two products, a
    difference and a reduction per entry (4 ops), reading the block and the
    pivot row and writing the block.
    """
    ops = n * n  # initial % p
    words = 2 * n * n
    for k in range(n):
        width = n - k
        words += 4 * width  # row swap
        ops += (n - k - 1) * width * 4
        words += (n - k - 1) * width * 2 + width
    return batch * ops, batch * words * 8


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


@dataclass
class Spans:
    """What a tracer recorded: per-span stats, caller edges and counters."""

    stats: dict = field(default_factory=lambda: defaultdict(_Stat))
    # (parent span, child span) -> [calls, seconds]
    edges: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    counters: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.data = Spans()

    def take(self) -> Spans:
        """What was recorded since the last call (the wrappers stay installed)."""
        with self._lock:
            data, self.data = self.data, Spans()
        return data

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.data.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, seconds: float) -> None:
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += seconds
        with self._lock:
            st = self.data.stats[frame[0]]
            st.calls += 1
            st.total += seconds
            st.self_time += seconds - frame[1]
            st.durations.append(seconds)
            if parent is not None:
                edge = self.data.edges[(parent[0], frame[0])]
                edge[0] += 1
                edge[1] += seconds

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, perf_counter() - t0)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _wrap_chunks(self, original):
        tracer = self

        @functools.wraps(original)
        def chunks(enum, *args, **kwargs):
            it = original(enum, *args, **kwargs)
            while True:
                frame = tracer._enter(ENUMERATE)
                t0 = perf_counter()
                try:
                    block = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, perf_counter() - t0)
                tracer.count("verify.chunks")
                yield block

        return chunks

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "gaborglp" or k.startswith("gaborglp.")]
        try:
            for name, modname, attr in TARGETS:
                fn = getattr(importlib.import_module(modname), attr)
                if hasattr(fn, "__wrapped__"):
                    raise RuntimeError(f"{modname}.{attr} is already wrapped")
                wrapper = self._wrap(name, fn, _HOOKS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)
            enum_cls = importlib.import_module("gaborglp.verify").SupportEnumeration
            self._patch(enum_cls, "chunks", self._wrap_chunks(enum_cls.chunks))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _on_batch_mod(tracer: Tracer, args, ok) -> None:
    batch, n = args[0].shape[0], args[0].shape[1]
    ops, nbytes = kernel_cost(batch, n)
    tracer.count("backends.det_batch_nonzero_mod.matrices", batch)
    tracer.count("backends.det_batch_nonzero_mod.ops_computed", ops)
    tracer.count("backends.det_batch_nonzero_mod.bytes_computed", nbytes)
    tracer.count("verify.first_prime_zeros", int(batch - ok.sum()))


def _on_verify(tracer: Tracer, args, report) -> None:
    tracer.count("verify.supports_tested", report.supports_tested)
    if report.backend == "exact":
        tracer.count("verify.dependent", len(report.dependent))


_HOOKS = {
    "backends.det_batch_nonzero_mod": _on_batch_mod,
    "verify.verify_glp": _on_verify,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 when there are no values)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def round_layers(t: Spans, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced round."""
    st, edges, c = t.stats, t.edges, t.counters
    kernel = "backends.det_batch_nonzero_mod"
    q = "monomials.q_polynomial"
    zeros = c["verify.first_prime_zeros"]
    q_eval = edges[(q, "operators.gabor_matrix")][1] + edges[(q, "backends.det_mod")][1]
    return {
        "verify.enumerate_s": st[ENUMERATE].total,
        "verify.parent_busy_share": st[ENUMERATE].total / wall_s,
        "verify.self_s": st["verify.verify_glp"].self_time,
        "verify.chunks": c["verify.chunks"],
        "verify.supports_tested": c["verify.supports_tested"],
        "verify.first_prime_zeros": zeros,
        "verify.escalations": edges[("verify.verify_glp", "backends.det_mod")][0],
        "verify.dependent": c["verify.dependent"],
        "verify.escalation_useful_ratio": c["verify.dependent"] / zeros if zeros else 0.0,
        f"{kernel}.s": st[kernel].total,
        f"{kernel}.calls": st[kernel].calls,
        f"{kernel}.matrices": c[f"{kernel}.matrices"],
        f"{kernel}.matrices_per_s": c[f"{kernel}.matrices"] / st[kernel].total if st[kernel].total else 0.0,
        f"{kernel}.ops_computed": c[f"{kernel}.ops_computed"],
        f"{kernel}.bytes_computed": c[f"{kernel}.bytes_computed"],
        "backends.det_mod.s": st["backends.det_mod"].total,
        "backends.det_mod.calls": st["backends.det_mod"].calls,
        "backends.det_batch_float.s": st["backends.det_batch_float"].total,
        "backends.det_float.s": st["backends.det_float"].total,
        "backends.det_float.calls": st["backends.det_float"].calls,
        "operators.gabor_matrix.s": st["operators.gabor_matrix"].total,
        "operators.gabor_matrix.calls": st["operators.gabor_matrix"].calls,
        "operators.system_matrix.s": st["operators.system_matrix"].total,
        "windows.construct_s": st["windows.construct"].total,
        "monomials.q_polynomial.calls": st[q].calls,
        "monomials.q_eval_s": q_eval,
        "monomials.q_interp_s": st[q].total - q_eval,
        # cli.main minus its traced children: verify_glp and the window build
        "cli.report_s": st["cli.main"].self_time,
    }


def layer_metrics(traced_rounds, untraced_walls, report_bytes) -> dict[str, float]:
    """Medians over traced rounds, plus call percentiles and tracing overhead.

    traced_rounds: list of (Spans, wall seconds) pairs, one per traced round.
    """
    per_round = [round_layers(t, wall) for t, wall in traced_rounds]
    out = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    q_calls = [d for t, _ in traced_rounds for d in t.stats["monomials.q_polynomial"].durations]
    out["monomials.q_polynomial.p50_ms"] = _percentile(q_calls, 50) * 1e3
    out["monomials.q_polynomial.p97_ms"] = _percentile(q_calls, 97) * 1e3
    out["cli.report_bytes"] = report_bytes
    out["trace.overhead_s"] = statistics.median(w for _, w in traced_rounds) - statistics.median(untraced_walls)
    return out
