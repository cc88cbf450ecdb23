import json

import pytest

from gaborglp import verify, windows
from gaborglp.cli import main
from gaborglp.operators import Window


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    return code, out.read_text()


def strip_timing(text):
    data = json.loads(text)
    data.pop("timing", None)
    return data


def test_verify_constructed_n4(tmp_path):
    code, text = run(
        tmp_path, "verify", "--n", "4", "--backend", "exact", "--mode", "exhaustive"
    )
    assert code == 0
    report = json.loads(text)
    assert report["schema_version"] == 1
    assert report["result"]["supports_tested"] == 1820
    assert report["result"]["dependent"] == 0
    assert report["result"]["verdict"] == "glp-certified"
    # construction parameters sufficient to re-derive the window
    window = report["window"]
    assert window["zeta_order"] == 81
    ctx = window["context"]
    assert ctx["order"] == 324
    assert ctx["prime"] % 324 == 1
    assert len(window["exponents"]) == 4


def test_verify_ones_window_fails(tmp_path):
    code, text = run(tmp_path, "verify", "--n", "2", "--window", "ones")
    assert code == 1
    report = json.loads(text)
    assert report["result"]["dependent"] >= 1
    supports = [d["support"] for d in report["result"]["dependent_supports"]]
    assert [[0, 0], [1, 0]] in supports


def test_verify_witness_csv(tmp_path):
    csv_path = tmp_path / "w.csv"
    code, _ = run(
        tmp_path,
        "verify", "--n", "2", "--window", "ones", "--backend", "float",
        "--witness-csv", str(csv_path),
    )
    assert code == 1
    assert csv_path.read_text().startswith("n,support,backend,determinant")


def test_verify_sampled(tmp_path):
    code, text = run(
        tmp_path,
        "verify", "--n", "5", "--mode", "sampled", "--count", "200", "--seed", "9",
    )
    assert code == 0
    report = json.loads(text)
    assert report["result"]["supports_tested"] == 200
    assert report["result"]["verdict"] == "glp-on-sample"


def test_verify_determinism(tmp_path):
    args = ("verify", "--n", "4", "--mode", "sampled", "--count", "150", "--seed", "5")
    code1, text1 = run(tmp_path, *args)
    code2, text2 = run(tmp_path, *args)
    assert code1 == code2 == 0
    assert strip_timing(text1) == strip_timing(text2)


def test_verify_worker_invariance(tmp_path):
    base = ("verify", "--n", "4", "--backend", "exact")
    _, text1 = run(tmp_path, *base, "--workers", "1")
    _, text2 = run(tmp_path, *base, "--workers", "2")
    assert strip_timing(text1) == strip_timing(text2)


def test_verify_exact_window_without_recipe(tmp_path):
    # a window stored as bare residues cannot be re-embedded under further primes
    ones = windows.ones_window_exact(4)
    path = tmp_path / "ones.json"
    windows.save_window(Window(ones.entries, ones.backend), path)
    argv = ("verify", "--n", "4", "--backend", "exact", "--window", str(path))
    assert main(list(argv)) == 2  # escalation is refused, never dropped
    code, text = run(tmp_path, *argv, "--primes", "1")
    assert code == 1
    result = json.loads(text)["result"]
    assert result["primes_used"] == [ones.backend.prime]
    assert result["dependent"] > 0


def test_verify_config_errors(tmp_path):
    # float-only window under the exact backend
    code = main(["verify", "--n", "4", "--backend", "exact", "--window", "random"])
    assert code == 2
    # sampled without count
    code = main(["verify", "--n", "4", "--mode", "sampled", "--seed", "3"])
    assert code == 2
    # exhaustive over budget
    code = main(["verify", "--n", "8", "--exhaustive-budget", "1000"])
    assert code == 2


def test_exhaustive_budget_counts_the_rows_the_scan_tests(monkeypatch, capsys):
    # at N = 7 the exact scan tests one representative per orbit (at least
    # ⌈C(49, 7)/49⌉ = 1,753,074 rows), the float scan all 85,900,584 supports
    class Scanned(Exception):
        pass

    def scan(*args, **kwargs):
        raise Scanned

    monkeypatch.setattr(verify, "verify_glp", scan)
    with pytest.raises(Scanned):
        main(["verify", "--n", "7"])
    assert main(["verify", "--n", "7", "--backend", "float"]) == 2
    assert "tests 85900584 supports; over budget 5000000" in capsys.readouterr().err
    assert main(["verify", "--n", "7", "--exhaustive-budget", "1753073"]) == 2
    assert "tests at least 1753074 orbit representatives" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "4", "--support", "(0,0);(1,1);(2,2);(3,3)", "--class-budget", "2"],
        ["verify", "--n", "-2", "--backend", "float", "--window", "ones"],
        ["verify", "--n", "0"],
        ["verify", "--n", "0", "--mode", "sampled", "--count", "1", "--seed", "1"],
        ["verify", "--n", "4", "--window", "ones", "--primes", "0"],
        ["verify", "--n", "4", "--window", "ones", "--primes", "-2"],
        ["verify", "--n", "3", "--backend", "float", "--window", "random", "--primes", "0"],
        ["verify", "--n", "3", "--backend", "float", "--window", "random", "--primes", "-5"],
        ["verify", "--n", "2", "--window", "{malformed}"],
        ["verify", "--n", "4", "--backend", "float", "--window", "nosuch"],
        ["verify", "--n", "4", "--mode", "sampled", "--seed", "3"],
        ["fourier-check", "--p", "11"],
        ["verify", "--n", "4", "--prime-bits", "63"],
        ["verify", "--n", "4", "--window", "ones", "--prime-bits", "70"],
        ["fourier-check", "--p", "3", "--prime-bits", "63"],
        ["verify", "--n", "3", "--window", "random", "--backend", "float", "--workers", "0"],
        ["verify", "--n", "4", "--workers", "-3"],
        ["construct", "--n", "3", "--workers", "0"],
        ["construct", "--n", "5", "--workers", "0"],
        ["simulate", "--n", "3", "--window", "random", "--trials", "-1"],
        # a zero tolerance must be positive and finite: NaN would make every minor nonzero
        ["verify", "--n", "3", "--window", "ones", "--backend", "float", "--eps", "nan"],
        ["verify", "--n", "3", "--window", "ones", "--backend", "float", "--eps", "inf"],
        ["verify", "--n", "3", "--window", "ones", "--backend", "float", "--eps", "0"],
        ["verify", "--n", "3", "--window", "ones", "--backend", "float", "--eps", "-1"],
        ["simulate", "--n", "3", "--window", "random", "--eps", "nan"],
        # `err <= nan` is false, so a NaN or negative tolerance would fail every trial
        ["simulate", "--n", "3", "--window", "random", "--tolerance", "nan"],
        ["simulate", "--n", "3", "--window", "random", "--tolerance", "-1"],
        # an output path that cannot be written is a usage error, not a violation
        ["verify", "--n", "4", "-o", "{dir}"],
        ["verify", "--n", "3", "--window", "ones", "--backend", "float", "--witness-csv", "{dir}"],
        ["construct", "--n", "5", "--window-out", "{dir}"],
        ["simulate", "--n", "4", "--trials", "3", "-o", "{dir}"],
    ],
)
def test_usage_errors_exit_2_with_one_error_line(tmp_path, capsys, argv):
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"n": 2, "kind": "user"}))  # no "backend"
    code = main([a.format(malformed=malformed, dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


def test_window_names_come_before_files_of_that_name(tmp_path, monkeypatch):
    # a file named like a window kind does not shadow the kind; "./ones" reaches it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ones").write_text("not a window")
    code, text = run(tmp_path, "verify", "--n", "2", "--window", "ones", "--backend", "float")
    assert code == 1 and json.loads(text)["result"]["dependent"] == 2  # the all-ones window
    windows.save_window(windows.random_window(2, 0), tmp_path / "ones")
    code, text = run(tmp_path, "verify", "--n", "2", "--window", "./ones", "--backend", "float")
    assert code == 0 and json.loads(text)["window"]["kind"] == "random"


def test_loaded_float_window_honours_eps(tmp_path):
    # a saved window and the window it was saved from get the same result
    # under a non-default eps, which the loaded window takes from --eps
    path = tmp_path / "rand3.json"
    windows.save_window(windows.random_window(3, 0), path)
    results = []
    for spec in ["random", str(path)]:
        argv = ["verify", "--n", "3", "--backend", "float", "--window", spec, "--eps", "0.3"]
        code, text = run(tmp_path, *argv)
        assert code == 1
        results.append(json.loads(text)["result"])
    assert results[0] == results[1] and results[0]["dependent"] == 33


def test_construct_n4(tmp_path):
    wout = tmp_path / "window.json"
    code, text = run(tmp_path, "construct", "--n", "4", "--window-out", str(wout))
    assert code == 0
    report = json.loads(text)
    assert report["window"]["kind"] == "constructed"
    saved = json.loads(wout.read_text())
    assert saved["context"]["order"] == 324

    # the saved window is usable as a --window argument
    code2, text2 = run(tmp_path, "verify", "--n", "4", "--window", str(wout))
    assert code2 == 0
    assert json.loads(text2)["result"]["dependent"] == 0


def test_construct_small_n_certifies_random(tmp_path):
    code, text = run(tmp_path, "construct", "--n", "2", "--seed", "0")
    assert code == 0
    report = json.loads(text)
    assert report["window"]["kind"] == "random"
    assert report["verification"]["supports_tested"] == 6


def test_analyze_example(tmp_path):
    code, text = run(tmp_path, "analyze", "--n", "3", "--support", "(0,0);(0,1);(1,0)")
    assert code == 0
    report = json.loads(text)
    rec = report["supports"][0]
    assert rec["profile"] == [2, 1, 0]
    assert rec["gamma"] == 0
    assert rec["ci_monomial"] == "z0*z1^2"
    assert rec["ci_coefficient"]["symbolic"] == "-1 + ω"
    assert rec["ci_coefficient"]["residue"] != 0
    assert abs(rec["ci_coefficient"]["float_modulus"] - abs(1j * 3**0.5 / 2 - 1.5)) < 1e-9
    assert rec["uniqueness"]["passed"] is True
    assert len(rec["moment_table"]) == 3
    assert rec["lowest_index_monomial"] == "z0^2*z2"


def test_analyze_bad_support(tmp_path):
    code = main(["analyze", "--n", "3", "--support", "(0,0);(0,1)"])
    assert code == 2


def test_analyze_dimension_one(tmp_path):
    code, text = run(tmp_path, "analyze", "--n", "1", "--support", "(0,0)")
    assert code == 0
    rec = json.loads(text)["supports"][0]
    assert rec["ci_monomial"] == "z0"
    assert rec["ci_coefficient"]["symbolic"] == "1"


def test_simulate(tmp_path):
    out = tmp_path / "trials.jsonl"
    code = main(
        [
            "simulate", "--n", "4", "--trials", "25", "--seed", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    trials = [l for l in lines if not l.get("summary")]
    summary = [l for l in lines if l.get("summary")][0]
    assert len(trials) == 25
    assert all(t["surviving"] == 4 for t in trials)  # N²-N erased by default
    assert all(t["verdict"] == "ok" for t in trials)
    assert summary["max_relative_error"] <= 1e-8


def test_simulate_non_glp_window_fails(tmp_path):
    out = tmp_path / "trials.jsonl"
    code = main(
        [
            "simulate", "--n", "2", "--trials", "30", "--seed", "2",
            "--window", "ones", "--output", str(out),
        ]
    )
    assert code == 1
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert any(l.get("error") == "RankDeficientError" for l in lines)


def test_fourier_check(tmp_path):
    code, text = run(tmp_path, "fourier-check", "--p", "3")
    assert code == 0
    report = json.loads(text)
    assert report["result"]["passed"] is True
    assert report["result"]["minors_tested"] == 19

    code = main(["fourier-check", "--p", "9"])
    assert code == 2


def test_stdout_default(capsys):
    code = main(["fourier-check", "--p", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["passed"] is True


def test_progress_goes_to_stderr(tmp_path, capsys):
    code = main(
        [
            "verify", "--n", "3", "--window", "random", "--backend", "float",
            "--progress", "--output", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # data went to the file
    assert "supports" in captured.err
