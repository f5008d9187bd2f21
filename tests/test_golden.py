"""CLI documents and demo 03's output stay byte-for-byte the same.

Each file under ``tests/golden`` is the exact stdout of one command below,
run from that directory; the inputs (``matrix.txt``, ``product.txt``) and
the generated matrices are there too.  A failure here means an output
format or a certified value changed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import invoke, src_env

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

S6_BLOCK = ["--rows", "3,4,5,6", "--cols", "1,2,3,4"]

# argv -> the file holding its expected stdout; every command exits 0
CASES = [
    (["gen", "sn", "6"], "s6.txt"),
    (["gen", "cutpoly", "4"], "cutpoly4.txt"),
    (["--json", "rank", "matrix.txt"], "rank_matrix.json"),
    (["embed", "from-rank", "matrix.txt"], "embedding.json"),
    (["psd", "from-embedding", "embedding.json"], "factorization.json"),
    (["verify", "psd", "--json", "factorization.json", "product.txt"],
     "verify_product.json"),
    (["bounds", "--json", "s6.txt"], "bounds_s6.json"),
    (["bounds", "--json", "cutpoly4.txt"], "bounds_cutpoly4.json"),
    (["order3-exclude", "--json", "s6.txt"], "order3_s6.json"),
    (["sqrt-bound", "--json", "--no-sign-fix", *S6_BLOCK, "s6.txt"], "sqrt_s6.json"),
]


@pytest.mark.parametrize("argv, expected", CASES, ids=[e for _, e in CASES])
def test_cli_output_is_byte_identical(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(GOLDEN)
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / expected).read_text()


def test_demo_03_output_is_byte_identical():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_exact_square_roots.py")],
        env=src_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo03.txt").read_text()


def test_every_golden_file_is_checked():
    checked = {e for _, e in CASES} | {"demo03.txt", "matrix.txt", "product.txt"}
    assert set(os.listdir(GOLDEN)) == checked
