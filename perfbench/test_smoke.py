"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402

gg = wl.import_program()


def _bindings() -> dict:
    """Every attribute of every gaborglp module, plus the traced method."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gaborglp" or name.startswith("gaborglp."):
            out.update({(name, key): value for key, value in vars(mod).items()})
    out[("SupportEnumeration", "chunks")] = gg.SupportEnumeration.__dict__["chunks"]
    return out


@pytest.mark.parametrize("name", ["certify-n6", "nonglp-n4", "qx-batch"])
def test_traced_round_matches_untraced_and_restores(name, tmp_path):
    workload = wl.workloads(small=True)[name]
    inputs = workload.setup(gg, 3, tmp_path)
    plain = workload.check(gg, inputs, run.run_jobs(inputs["jobs"])[1])
    assert plain.errors == []

    before = _bindings()
    with Tracer() as tracer:
        assert _bindings() != before
        walls, outputs = run.run_jobs(inputs["jobs"])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "an attribute was not restored"

    traced = workload.check(gg, inputs, outputs)
    assert traced.errors == []
    assert traced.digest == plain.digest
    metrics = layer_metrics([(tracer.take(), sum(walls))], [sum(walls)], plain.report_bytes)
    assert metrics.keys() == PER_LAYER.keys()
    assert metrics["verify.supports_tested" if name != "qx-batch" else "monomials.q_polynomial.calls"] > 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(wl.workloads())


def test_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qx-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
