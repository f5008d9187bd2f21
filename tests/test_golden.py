"""CLI documents and demo 03's output stay byte-for-byte the same.

Each file under ``tests/golden`` is the exact stdout of one command below,
run from that directory; the inputs (``matrix.txt``, ``product.txt``,
``pattern.txt``, the support of ``matrix.txt``, a seeded dense 60x60 matrix
``dense60.txt``, ``singular_mod_p.txt``, a seeded 12x14 rational matrix of
rank 6 ``chain12.txt`` and the T of its factorization,
``chain12_product.txt``, and an order-2 factorization whose A is not psd,
``nonpsd_factorization.json``, with its T ``nonpsd_product.txt``, the
all-ones 4x4 pattern ``pattern_ones.txt``, and ``p_denominator.txt``, a
2x2 matrix of rank 1 with the entry 1/(2^31 - 1)) and the
generated matrices are there too.  A failure here means an output format or
a certified value changed.
"""

import os
import sys

import pytest

from conftest import GOLDEN, ROOT, invoke, launch
from psdbounds.cli import _build_parser


S6_BLOCK = ["--rows", "3,4,5,6", "--cols", "1,2,3,4"]

# argv, the file holding its expected stdout, and its exit status
CASES = [
    (["gen", "sn", "6"], "s6.txt", 0),
    (["gen", "sn", "5", "--json"], "s5.json", 0),
    (["gen", "cutpoly", "4"], "cutpoly4.txt", 0),
    (["gen", "sn", "10"], "s10.txt", 0),
    (["gen", "sn", "12"], "s12.txt", 0),
    (["gen", "cutpoly", "6"], "cutpoly6.txt", 0),
    (["gen", "sn", "24"], "s24.txt", 0),
    (["gen", "cutpoly", "5"], "cutpoly5.txt", 0),
    (["gen", "disjointness", "5", "2", "--json"], "disjointness_5_2.json", 0),
    (["--json", "rank", "matrix.txt"], "rank_matrix.json", 0),
    # full rank mod 2^31 - 1, so the elimination is skipped; then full rank
    # over Q but singular mod 2^31 - 1, so the elimination decides
    (["rank", "--json", "dense60.txt"], "rank_dense60.json", 0),
    (["rank", "--json", "singular_mod_p.txt"], "rank_singular_mod_p.json", 0),
    # an entry with the filter's prime as its denominator: rank 1, which
    # the filter on the rows scaled to integers leaves to the elimination
    (["rank", "--json", "p_denominator.txt"], "rank_p_denominator.json", 0),
    (["embed", "from-rank", "matrix.txt"], "embedding.json", 0),
    (["psd", "from-embedding", "embedding.json"], "factorization.json", 0),
    (["verify", "psd", "--json", "factorization.json", "product.txt"],
     "verify_product.json", 0),
    # the chain on a 12x14 matrix of rank 6: factors of order 6, so each
    # packed coordinate of the trace products holds 14 slots
    (["embed", "from-rank", "chain12.txt"], "chain12_embedding.json", 0),
    (["psd", "from-embedding", "chain12_embedding.json"], "chain12_factorization.json", 0),
    (["verify", "psd", "--json", "chain12_factorization.json", "chain12_product.txt"],
     "chain12_verify.json", 0),
    (["appendix-check", "18", "--json"], "appendix_check_18.json", 0),
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
    # a scan of many blocks: 44,100 pairs, under the scan limit; then two
    # cut at the limit, one conclusive, one inconclusive after 64 blocks
    (["order3-exclude", "--json", "s12.txt"], "order3_s12.json", 0),
    (["order3-exclude", "--json", "s24.txt"], "order3_s24.json", 0),
    (["order3-exclude", "--json", "cutpoly5.txt"], "order3_cutpoly5.json", 1),
    (["sqrt-bound", "--json", "--no-sign-fix", *S6_BLOCK, "s6.txt"], "sqrt_s6.json", 0),
    (["embed", "from-psd", "factorization.json"], "embedding_from_psd.json", 0),
    # images and kernels with fractional bases: 88 entries that are not integers
    (["embed", "from-psd", "chain12_factorization.json"], "chain12_embedding_from_psd.json", 0),
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
    # positions count from 1, as in the JSON
    (["verify", "psd", "factorization.json", "matrix.txt"], "verify_matrix.txt", 1),
    # the verification that fails on its traces, then on a factor that is
    # not psd, and the inconclusive certificate, as JSON
    (["verify", "psd", "--json", "factorization.json", "matrix.txt"], "verify_matrix.json", 1),
    (["verify", "psd", "--json", "nonpsd_factorization.json", "nonpsd_product.txt"],
     "verify_nonpsd.json", 1),
    (["verify", "embedding", "embedding.json", "pattern.txt"],
     "verify_embedding.txt", 0),
    (["sqrt-bound", *S6_BLOCK, "s6.txt"], "sqrt_s6.txt", 0),
    (["gen", "disjointness", "5", "2"], "disjointness_5_2.txt", 0),
    (["realize-support", "--seed", "3", "factorization.json"], "realize_support.txt", 0),
    (["order3-exclude", "cutpoly4.txt"], "order3_cutpoly4.txt", 1),
    (["order3-exclude", "--json", "cutpoly4.txt"], "order3_cutpoly4.json", 1),
    (["appendix-check", "18"], "appendix_check_18.txt", 0),
    # the undecided boolean rank in the report, in the text boolrank prints
    (["bounds", "--budget", "20000", "s12.txt"], "bounds_s12.txt", 0),
    # an embedding checked against a pattern it does not realize
    (["verify", "embedding", "embedding.json", "pattern_ones.txt"],
     "verify_embedding_ones.txt", 1),
    (["verify", "embedding", "--json", "embedding.json", "pattern_ones.txt"],
     "verify_embedding_ones.json", 1),
    (["gen", "cutpoly", "--json", "4"], "cutpoly4.json", 0),
    (["gen", "disjointness", "--which", "hbar", "5", "2"], "disjointness_hbar_5_2.txt", 0),
]

# the --help of the top level and of every subcommand parser, in an
# 80-column terminal, and the file holding it: help_<path with _ for
# spaces>.txt, or help.txt.  `--help rank` prints the top level's.
HELP_PATHS = [
    "", "rank", "trirank", "boolrank", "bounds", "embed", "embed from-rank",
    "embed from-psd", "psd", "psd from-embedding", "verify", "verify psd",
    "verify embedding", "realize-support", "sqrt-bound", "order3-exclude",
    "reduce-rank", "gen", "gen sn", "gen cutpoly", "gen disjointness", "appendix-check",
]
HELP = [
    ([*path.split(), "--help"], "_".join(["help", *path.split()]) + ".txt")
    for path in HELP_PATHS
] + [(["--help", "rank"], "help.txt")]

# argv and the file holding its exact stderr; each exits 2 with no stdout
USAGE_ERRORS = [
    ([], "usage_no_command.txt"),
    (["no-such-command"], "usage_unknown_command.txt"),
    (["rank", "a", "b"], "usage_rank_extra_argument.txt"),
    (["--threads", "2", "rank"], "usage_threads.txt"),
    (["--json=1", "rank"], "usage_json_value.txt"),
]

# The help and usage goldens are argparse's text as CPython 3.10 and 3.11
# print it.  3.13 wraps the top-level usage line differently, and 3.13.13
# prints the choices of an error without quotes; releases of 3.12 after
# 3.12.1 are unchecked.  There only the stable part is compared: the usage
# line names psdbounds, and an error ends in one "psdbounds: error:" line.
EXACT_ARGPARSE_TEXT = sys.version_info < (3, 12)


def assert_argparse_text(text: str, expected: str):
    golden = (GOLDEN / expected).read_text()
    if EXACT_ARGPARSE_TEXT:
        assert text == golden
        return
    assert text.split(" [")[0] == golden.split(" [")[0]  # "usage: psdbounds ..."
    if expected.startswith("usage_"):
        assert text.splitlines()[-1].startswith("psdbounds: error: ")


@pytest.mark.parametrize("argv, expected, status", CASES, ids=[e for _, e, _ in CASES])
def test_cli_output_is_byte_identical(capsys, monkeypatch, argv, expected, status):
    monkeypatch.chdir(GOLDEN)
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (status, "")
    assert out == (GOLDEN / expected).read_text()


@pytest.mark.parametrize("argv, expected", HELP, ids=[" ".join(a) for a, _ in HELP])
def test_help_text_is_the_golden(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = invoke(capsys, argv)
    assert (code, err) == (0, "")
    assert_argparse_text(out, expected)


@pytest.mark.parametrize("argv, expected", USAGE_ERRORS, ids=[e for _, e in USAGE_ERRORS])
def test_usage_error_text_is_the_golden(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert_argparse_text(err, expected)


ARGPARSE_ARGV = [a for a, _ in HELP + USAGE_ERRORS]


@pytest.mark.parametrize("argv", ARGPARSE_ARGV, ids=[" ".join(a) or "-" for a in ARGPARSE_ARGV])
def test_a_launch_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # on any Python: `run` may build one command's parser, and its status,
    # help and errors are those of the parser of every command
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    full = capsys.readouterr()
    assert invoke(capsys, argv) == (exc.value.code, full.out, full.err)


# goldens the real entry point must print: the largest document, a status
# of 1 and of 3, and a usage error on stderr
LAUNCHES = {e: (argv, status, "stdout") for argv, e, status in CASES} | {
    e: (argv, 2, "stderr") for argv, e in USAGE_ERRORS
}
ENTRY_POINT = [
    "factorization.json", "order3_cutpoly4.txt", "boolrank_s12.txt",
    "usage_rank_extra_argument.txt",
]


@pytest.mark.parametrize("expected", ENTRY_POINT)
def test_the_entry_point_prints_the_golden(expected):
    # `main` in a fresh interpreter, as the psdbounds script runs it
    argv, status, stream = LAUNCHES[expected]
    proc = launch(["-m", "psdbounds.cli", *argv], env={"COLUMNS": "80"}, cwd=GOLDEN,
                  text=False)
    assert proc.returncode == status
    if stream == "stdout":
        assert (proc.stdout, proc.stderr) == ((GOLDEN / expected).read_bytes(), b"")
    else:
        assert proc.stdout == b""
        assert_argparse_text(proc.stderr.decode(), expected)


def test_demo_03_output_is_byte_identical():
    proc = launch([str(ROOT / "demos" / "03_exact_square_roots.py")], cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo03.txt").read_text()


def test_every_golden_file_is_checked():
    checked = {e for _, e, _ in CASES} | {e for _, e in HELP + USAGE_ERRORS} | {
        "demo03.txt", "matrix.txt", "product.txt", "pattern.txt", "dense60.txt",
        "singular_mod_p.txt", "chain12.txt", "chain12_product.txt",
        "nonpsd_factorization.json", "nonpsd_product.txt", "pattern_ones.txt",
        "p_denominator.txt",
    }
    assert set(os.listdir(GOLDEN)) == checked
