"""Golden reports: fixed CLI configurations must keep their exact output.

Each case runs the CLI in-process and compares the sha256 of its JSON report,
without the "timing" block, to a digest recorded from an earlier revision.  A
change that alters any other byte of a report, or an exit code, fails here;
update a digest only together with a stated reason for the new report.  Float
reports drop `det_modulus` and `witness`, and `analyze` drops each
`float_modulus`, which are platform round-off.  The
digest is taken of the re-dumped report, so each case also checks that the
written bytes are `json.dumps(report, indent=2, sort_keys=True)` and a newline.
The witness CSVs of `verify --witness-csv` are pinned the same way; a float
CSV drops its determinant column, which is platform round-off.
"""

import csv
import hashlib
import io
import json

import pytest

from gaborglp.cli import main

CASES = [
    ("verify --n 4", 0, "16f372fae68e1fa0e771f91f00eda13cae155bd2c1c94656642ba5b43338f27d"),
    ("verify --n 5", 0, "545496b27296d554f4408de08e90e5c17f1f8146a7fb382910eb694bcc1ff48d"),
    (
        "verify --n 4 --window ones",
        1,
        "8a7b6cc93a6c68397d29812306a0d96fe08acbef3957f16860fe3b11fa30eae4",
    ),
    (
        # primes of 2**31 and more: the last step, escalation and orbit expansion on Python ints
        "verify --n 4 --window ones --prime-bits 31",
        1,
        "ab62b0c0fb396f9a6b30c62ebe6da664c991540099507730069b125c5881e63e",
    ),
    (
        "verify --n 4 --window ones --backend float",
        1,
        "a046f42030e1957cecb6c33e97ca24e42eb9305a011f3531da5e170028ebe60f",
    ),
    (
        "verify --n 7 --mode sampled --count 2000 --seed 3",
        0,
        "6a27a6324f04028b3850be869fd60f1e4a8521c96f82956cbc89b97c1bb76f7d",
    ),
    (
        # lists the sampled supports that seed 5 selects
        "verify --n 4 --window ones --mode sampled --count 300 --seed 5",
        1,
        "feb814821cbc768ab035b71d50255e96c94dd5b150cf61ada1f2d0bcad4330c4",
    ),
    ("fourier-check --p 5", 0, "1338b3438ffefd4883ca54d5b7d49719ec9d59c5a4d5c46d17f3806c433b4bc3"),
    ("construct --n 5", 0, "d631ceed8146bdfe92abd0a18493329631ab86227e485f76b600f145c063563c"),
    (
        # all columns at κ = 0, mixed, one column per κ, and two columns at each of two κ
        "analyze --n 4 --support (0,0);(0,1);(0,2);(0,3) --support (0,0);(0,1);(1,0);(2,3)"
        " --support (0,0);(1,1);(2,3);(3,2) --support (1,0);(1,2);(3,1);(3,3)",
        0,
        "0ee44cb2041d5258d232f31942cd7846422da2c6fd6668774cb655823a77d5c5",
    ),
]


@pytest.mark.parametrize("argv,code,digest", CASES, ids=[c[0] for c in CASES])
def test_report_digest(argv, code, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--output", str(out)]) == code
    raw = out.read_text()
    report = json.loads(raw)
    assert raw == json.dumps(report, indent=2, sort_keys=True) + "\n"
    del report["timing"]
    if "--backend float" in argv:
        for dep in report["result"]["dependent_supports"]:
            del dep["det_modulus"], dep["witness"]
    for record in report.get("supports", []):
        del record["ci_coefficient"]["float_modulus"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


CSV_CASES = [
    (
        "verify --n 4 --window ones",
        "7ddcf0e32d5d9aa3bc7c180d7b54334d07fb0d99aa822fa56dedb707af624432",
    ),
    (
        "verify --n 3 --window ones --backend float",
        "2da3b2cfaa247718ebbcfb723d633eb24424682f2cff88706ba340c6c63f8829",
    ),
]


@pytest.mark.parametrize("argv,digest", CSV_CASES, ids=[c[0] for c in CSV_CASES])
def test_witness_csv_digest(argv, digest, tmp_path):
    # every byte, with the "\r\n" row ends of `csv.writer`
    path = tmp_path / "witnesses.csv"
    args = [*argv.split(), "--output", str(tmp_path / "report.json"), "--witness-csv", str(path)]
    assert main(args) == 1
    raw = path.read_bytes().decode()
    if "--backend float" in argv:
        rows = list(csv.reader(io.StringIO(raw)))
        buf = io.StringIO()
        csv.writer(buf).writerows(row[:3] for row in rows)
        raw = buf.getvalue()
    assert hashlib.sha256(raw.encode()).hexdigest() == digest
