"""CLI documents and demo 03's output stay byte-for-byte the same.

Each file under ``tests/golden`` is the exact stdout of one command below,
run from that directory; the inputs (``matrix.txt``, ``product.txt``,
``pattern.txt``, the support of ``matrix.txt``, a seeded dense 60x60 matrix
``dense60.txt`` and ``singular_mod_p.txt``) and the generated matrices are
there too.  A failure here means an output format or a certified value
changed.
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

# argv, the file holding its expected stdout, and its exit status
CASES = [
    (["gen", "sn", "6"], "s6.txt", 0),
    (["gen", "cutpoly", "4"], "cutpoly4.txt", 0),
    (["gen", "sn", "10"], "s10.txt", 0),
    (["gen", "sn", "12"], "s12.txt", 0),
    (["gen", "cutpoly", "6"], "cutpoly6.txt", 0),
    (["gen", "disjointness", "5", "2", "--json"], "disjointness_5_2.json", 0),
    (["--json", "rank", "matrix.txt"], "rank_matrix.json", 0),
    # full rank mod 2^31 - 1, so the elimination is skipped; then full rank
    # over Q but singular mod 2^31 - 1, so the elimination decides
    (["rank", "--json", "dense60.txt"], "rank_dense60.json", 0),
    (["rank", "--json", "singular_mod_p.txt"], "rank_singular_mod_p.json", 0),
    (["embed", "from-rank", "matrix.txt"], "embedding.json", 0),
    (["psd", "from-embedding", "embedding.json"], "factorization.json", 0),
    (["verify", "psd", "--json", "factorization.json", "product.txt"],
     "verify_product.json", 0),
    (["bounds", "--json", "s6.txt"], "bounds_s6.json", 0),
    (["bounds", "--json", "cutpoly4.txt"], "bounds_cutpoly4.json", 0),
    # the boolean rank decided inside the budget, then undecided: a cut
    # cover search, then a refused one
    (["bounds", "--json", "--budget", "20000", "s10.txt"], "bounds_s10.json", 0),
    (["bounds", "--json", "--budget", "20000", "s12.txt"], "bounds_s12.json", 0),
    # cut at a leaf level's bulk count, not in the per-child loop
    (["bounds", "--json", "--budget", "50", "s12.txt"], "bounds_s12_budget50.json", 0),
    (["bounds", "--json", "cutpoly6.txt"], "bounds_cutpoly6.json", 0),
    (["trirank", "--json", "cutpoly6.txt"], "trirank_cutpoly6.json", 0),
    (["order3-exclude", "--json", "s6.txt"], "order3_s6.json", 0),
    (["order3-exclude", "s6.txt"], "order3_s6.txt", 0),
    (["sqrt-bound", "--json", "--no-sign-fix", *S6_BLOCK, "s6.txt"], "sqrt_s6.json", 0),
    (["embed", "from-psd", "factorization.json"], "embedding_from_psd.json", 0),
    (["realize-support", "--json", "--seed", "3", "factorization.json"],
     "realize_support.json", 0),
    (["verify", "embedding", "--json", "embedding.json", "pattern.txt"],
     "verify_embedding.json", 0),
    # text forms
    (["rank", "s6.txt"], "rank_s6.txt", 0),
    (["trirank", "s6.txt"], "trirank_s6.txt", 0),
    (["boolrank", "s6.txt"], "boolrank_s6.txt", 0),
    (["boolrank", "--budget", "20000", "s10.txt"], "boolrank_s10.txt", 0),
    (["boolrank", "--json", "--budget", "20000", "s10.txt"], "boolrank_s10.json", 0),
    # the boolean rank undecided: a cut cover search, a refused one, and
    # the cut one as JSON
    (["boolrank", "--budget", "20000", "s12.txt"], "boolrank_s12.txt", 3),
    (["boolrank", "cutpoly6.txt"], "boolrank_cutpoly6.txt", 3),
    (["boolrank", "--json", "--budget", "20000", "s12.txt"], "boolrank_s12.json", 3),
    (["bounds", "s6.txt"], "bounds_s6.txt", 0),
    (["verify", "psd", "factorization.json", "product.txt"], "verify_product.txt", 0),
    (["verify", "embedding", "embedding.json", "pattern.txt"],
     "verify_embedding.txt", 0),
    (["sqrt-bound", *S6_BLOCK, "s6.txt"], "sqrt_s6.txt", 0),
    (["gen", "disjointness", "5", "2"], "disjointness_5_2.txt", 0),
    (["realize-support", "--seed", "3", "factorization.json"], "realize_support.txt", 0),
    (["order3-exclude", "cutpoly4.txt"], "order3_cutpoly4.txt", 1),
    (["appendix-check", "18"], "appendix_check_18.txt", 0),
]


@pytest.mark.parametrize("argv, expected, status", CASES, ids=[e for _, e, _ in CASES])
def test_cli_output_is_byte_identical(capsys, monkeypatch, argv, expected, status):
    monkeypatch.chdir(GOLDEN)
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (status, "")
    assert out == (GOLDEN / expected).read_text()


def test_demo_03_output_is_byte_identical():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_exact_square_roots.py")],
        env=src_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo03.txt").read_text()


def test_every_golden_file_is_checked():
    checked = {e for _, e, _ in CASES} | {
        "demo03.txt", "matrix.txt", "product.txt", "pattern.txt", "dense60.txt",
        "singular_mod_p.txt",
    }
    assert set(os.listdir(GOLDEN)) == checked
