import argparse
import gc
import json
import os
import sys
import threading
from pathlib import Path

import pytest

import psdbounds
from conftest import GOLDEN, invoke, launch, src_env
from psdbounds import (
    ExactMatrix, cli, formats, generate_sn, psd, slack_matrix_cut_clique, support
)
from psdbounds.cli import _build_parser
from psdbounds.pattern import boolean_rank_outcome

def s6_text() -> str:
    return formats.format_matrix(generate_sn(6))


# the support of S_6 as pattern text
S6_PATTERN = (
    "6 6\n1 1 1 1 1 1\n0 1 1 1 1 1\n0 0 1 1 1 1\n"
    "1 0 0 1 1 1\n1 1 0 0 1 1\n1 1 1 0 0 1\n"
)


def test_trirank_and_boolrank(capsys):
    code, out, _ = invoke(capsys, ["trirank"], stdin=s6_text())
    assert code == 0 and out.strip() == "3"
    allones = "1 3\n1 1 1\n"
    code, out, _ = invoke(capsys, ["boolrank"], stdin=allones)
    assert code == 0 and out.strip() == "1"


def test_boolrank_budget_exhaustion(capsys):
    code, out, _ = invoke(
        capsys, ["boolrank", "--budget", "2", "--json"], stdin=s6_text()
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["value"] is None
    lo, hi = doc["bounds"]
    assert 1 <= lo <= hi


def test_negative_budget_is_a_usage_error(capsys):
    for argv in (["boolrank", "--budget", "-5"], ["bounds", "--budget", "-1"]):
        code, out, err = invoke(capsys, argv, stdin=s6_text())
        assert (code, out) == (2, "")
        assert err.startswith("error: budget must be nonnegative")
    code, out, _ = invoke(capsys, ["boolrank", "--budget", "0"], stdin=s6_text())
    assert code == 3 and out.startswith("unknown, bounds")


def test_bounds_internally_consistent_on_random_inputs(capsys):
    import random

    from conftest import random_rational_matrix

    rng = random.Random(7)
    for _ in range(10):
        m = random_rational_matrix(rng, max_rows=5, max_cols=5)
        code, out, _ = invoke(
            capsys, ["--json", "bounds"], stdin=formats.format_matrix(m)
        )
        assert code == 0
        doc = json.loads(out)
        tri = doc["triangular_rank"]["value"]
        rk = doc["rank"]["value"]
        lo, hi = doc["embedding_dim_bounds"]["value"]
        assert tri <= rk and lo <= hi
        assert doc["psd_rank_lower_bound"]["value"] >= tri
        if doc["boolean_rank"]["value"] is not None:
            assert doc["boolean_rank"]["value"] >= 0


def test_embed_psd_verify_pipeline(tmp_path, capsys):
    s6 = tmp_path / "s6.txt"
    s6.write_text(s6_text())

    code, emb_json, _ = invoke(capsys, ["embed", "from-rank", str(s6)])
    assert code == 0
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(emb_json)

    code, fact_out, _ = invoke(capsys, ["psd", "from-embedding", str(emb_file)])
    assert code == 0
    doc = json.loads(fact_out)
    t_rows = doc.pop("T")
    fact_file = tmp_path / "fact.json"
    fact_file.write_text(json.dumps(doc))
    t_file = tmp_path / "t.txt"
    t_file.write_text(
        f"{len(t_rows)} {len(t_rows[0])}\n"
        + "\n".join(" ".join(row) for row in t_rows)
        + "\n"
    )

    code, out, _ = invoke(capsys, ["verify", "psd", str(fact_file), str(t_file)])
    assert code == 0 and out.strip() == "pass"

    # corrupt one entry: verification fails with exit 1
    bad = json.loads(fact_file.read_text())
    bad["A"][0][0] = "-1"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    code, out, _ = invoke(capsys, ["verify", "psd", str(bad_file), str(t_file)])
    assert code == 1

    code, emb2, _ = invoke(capsys, ["embed", "from-psd", str(fact_file)])
    assert code == 0
    emb2_file = tmp_path / "emb2.json"
    emb2_file.write_text(emb2)
    pat_file = tmp_path / "pat.txt"
    pat_file.write_text(S6_PATTERN)
    code, out, _ = invoke(
        capsys, ["verify", "embedding", str(emb2_file), str(pat_file)]
    )
    assert code == 0 and out.strip() == "pass"

    # realize-support: identical seeds give byte-identical output
    code, t1, _ = invoke(capsys, ["realize-support", "--seed", "9", str(fact_file)])
    code2, t2, _ = invoke(capsys, ["realize-support", "--seed", "9", str(fact_file)])
    assert code == code2 == 0 and t1 == t2
    realized = formats.parse_matrix(t1)
    assert support(realized) == support(generate_sn(6))

    code, out, _ = invoke(capsys, ["reduce-rank", str(fact_file)])
    assert code == 0 and "A ranks" in out


def test_reduce_rank_rejects_non_psd_factor(tmp_path, capsys):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({
        "schema": formats.SCHEMA_VERSION,
        "kind": "psd_factorization",
        "order": 2,
        "A": [["1", "0", "0", "-1"]],
        "B": [["1", "0", "0", "1"]],
    }))
    code, out, err = invoke(capsys, ["reduce-rank", str(path)])
    assert code == 1 and out == ""
    assert err == "error: input is not psd within tolerance (min eig -1.000e+00)\n"


MODULES_PROBE = """
import json, sys
from psdbounds import cli
code = cli.run(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

# about 10 ms of start-up together, and no exact command needs them
SLOW_STDLIB = {"dataclasses", "inspect"}


def command_modules(tmp_path, *argv) -> set[str]:
    """The modules a fresh interpreter holds after running argv."""
    out = tmp_path / "modules.json"
    proc = launch(["-c", MODULES_PROBE, str(out), *argv], cwd=tmp_path)
    result = json.loads(out.read_text())
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules a bare interpreter holds in the same environment (``site``
    and its ``.pth`` files may import some)."""
    proc = launch(["-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.fixture
def chain_files(tmp_path):
    s6 = tmp_path / "s6.txt"
    s6.write_text(s6_text())
    emb = psd.embedding_from_rank_factorization(generate_sn(6))
    fact, t = psd.psd_from_embedding(emb)
    (tmp_path / "emb.json").write_text(formats.embedding_to_json(emb))
    (tmp_path / "fact.json").write_text(formats.factorization_to_json(fact))
    (tmp_path / "t.txt").write_text(formats.format_matrix(t))
    (tmp_path / "pat.txt").write_text(S6_PATTERN)
    (tmp_path / "ones.txt").write_text("6 6\n" + "1 1 1 1 1 1\n" * 6)
    (tmp_path / "cutpoly4.txt").write_text(formats.format_matrix(slack_matrix_cut_clique(4)))
    # the cover search refuses it, and the triangular rank closes the interval
    (tmp_path / "id21.txt").write_text(formats.format_matrix(ExactMatrix.identity(21)))
    return tmp_path


LAYERS = {"cutpoly", "pattern", "psd", "reduction", "scalars"}


def only(*layers) -> set[str]:
    """The layers a command leaves unloaded when it loads just ``layers``
    beyond the `cli`, `formats` and `linalg` that every command loads."""
    return LAYERS - set(layers)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        # the certify chain loads `psd`, and neither the searches nor the
        # sign enumeration; the order-3 argument loads `scalars` alone.  New
        # cases go last: a case's position is part of its test id.
        (["rank", "s6.txt"], only()),
        (["verify", "psd", "fact.json", "t.txt"], only("psd")),
        (["reduce-rank", "fact.json"], only("reduction")),
        (["order3-exclude", "s6.txt"], only("scalars")),
        (["sqrt-bound", "--rows", "3,4,5,6", "--cols", "1,2,3,4", "s6.txt"], only("scalars")),
        (["gen", "sn", "6"], only("cutpoly")),
        (["embed", "from-rank", "s6.txt"], only("psd")),
        (["psd", "from-embedding", "emb.json"], only("psd")),
        # triangular rank 7: no order-3 certificate, so no sign enumeration
        (["bounds", "cutpoly4.txt"], only("pattern")),
        (["boolrank", "id21.txt"], only("pattern")),
        (["trirank", "s6.txt"], only("pattern")),
        (["gen", "cutpoly", "4"], only("cutpoly")),
        (["appendix-check", "18"], only("cutpoly")),
        (["embed", "from-psd", "fact.json"], only("psd")),
        (["bounds", "s6.txt"], only("pattern", "scalars")),
        (["realize-support", "fact.json"], only("psd")),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_modules(chain_files, bare_modules, argv, unloaded):
    modules = command_modules(chain_files, *argv)
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("psdbounds.")}
    assert loaded == {"cli", "formats", "linalg", *LAYERS - unloaded}
    if argv[0] != "reduce-rank":  # numpy imports inspect
        assert "numpy" not in modules
        slow = (modules - bare_modules) & SLOW_STDLIB
        assert not slow, sorted(slow)


def subcommands(parser, prefix=()):
    """Every command path of the parser, such as ``'embed from-rank'``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, (*prefix, name))
            return
    yield " ".join(prefix)


BLOCK = ["--rows", "3,4,5,6", "--cols", "1,2,3,4"]
# command -> (arguments, exit status) run in `chain_files`; failing replies
# (an undecided boolean rank, an inconclusive certificate, a failed check)
# print their document too
REPLY_CASES = {
    "rank": [(["s6.txt"], 0)],
    "trirank": [(["s6.txt"], 0)],
    "boolrank": [(["s6.txt"], 0), (["--budget", "0", "s6.txt"], 3)],
    "bounds": [(["cutpoly4.txt"], 0)],
    "embed from-rank": [(["s6.txt"], 0)],
    "embed from-psd": [(["fact.json"], 0)],
    "psd from-embedding": [(["emb.json"], 0)],
    "verify psd": [(["fact.json", "t.txt"], 0), (["fact.json", "s6.txt"], 1)],
    "verify embedding": [(["emb.json", "pat.txt"], 0), (["emb.json", "ones.txt"], 1)],
    "realize-support": [(["--seed", "3", "fact.json"], 0)],
    "sqrt-bound": [([*BLOCK, "s6.txt"], 0)],
    "order3-exclude": [(["s6.txt"], 0), (["cutpoly4.txt"], 1)],
    "reduce-rank": [(["fact.json"], 0)],
    "gen sn": [(["6"], 0)],
    "gen cutpoly": [(["4"], 0)],
    "gen disjointness": [(["5", "2"], 0)],
    "appendix-check": [(["18"], 0)],
}
JSON_ONLY = {"embed from-rank", "embed from-psd", "psd from-embedding"}


def test_every_reply_case_names_a_subcommand():
    assert set(REPLY_CASES) <= set(subcommands(_build_parser()))


@pytest.mark.parametrize("command", list(subcommands(_build_parser())))
def test_json_reply_is_one_document(chain_files, capsys, monkeypatch, command):
    monkeypatch.chdir(chain_files)
    for args, status in REPLY_CASES[command]:
        argv = [*command.split(), *args]
        code, out, err = invoke(capsys, [*argv, "--json"])
        assert (code, err) == (status, ""), argv
        doc = json.loads(out)
        assert list(doc)[0] == "schema" and doc["schema"] == 1, argv
        assert out == formats.dump(doc), argv
        if command in JSON_ONLY:
            assert invoke(capsys, argv) == (code, out, err), argv


def _read(path):
    return Path(path).read_text()


def _matrix(path):
    return formats.parse_matrix(_read(path))


def _reduce(a):
    import numpy as np

    a_rows, b_rows, q = formats.float_factors_from_json(_read(a.file))
    factors = [[np.array(e).reshape(q, q) for e in rows] for rows in (a_rows, b_rows)]
    return formats.reduction_reply(psdbounds.reduce_factor_ranks(*factors, tol=a.tol))


# command -> the formats reply of its library result, from the parsed arguments
LIBRARY = {
    "rank": lambda a: formats.rank_reply(psdbounds.rank(_matrix(a.file))),
    "trirank": lambda a: formats.triangular_rank_reply(
        psdbounds.embrkl_bounds(_matrix(a.file))[0]),
    "boolrank": lambda a: formats.boolean_rank_reply(
        *boolean_rank_outcome(_matrix(a.file), a.budget)[:2]),
    "bounds": lambda a: formats.bound_report_reply(
        psdbounds.analyze(_matrix(a.file), a.budget), a.file),
    "embed from-rank": lambda a: formats.embedding_reply(
        psd.embedding_from_rank_factorization(_matrix(a.file))),
    "embed from-psd": lambda a: formats.embedding_reply(
        psd.embedding_from_psd(formats.factorization_from_json(_read(a.file)))),
    "psd from-embedding": lambda a: formats.factorization_reply(
        *psd.psd_from_embedding(formats.embedding_from_json(_read(a.file)))),
    "verify psd": lambda a: formats.factorization_check_reply(psd.verify_psd_factorization(
        formats.factorization_from_json(_read(a.factorization)), _matrix(a.matrix))),
    "verify embedding": lambda a: formats.embedding_check_reply(psd.verify_embedding(
        formats.embedding_from_json(_read(a.embedding)), formats.parse_pattern(_read(a.pattern)))),
    "realize-support": lambda a: formats.matrix_reply(psd.realize_support(
        formats.factorization_from_json(_read(a.file)), seed=a.seed, max_tries=a.tries)),
    "sqrt-bound": lambda a: formats.sqrt_rank_reply(psdbounds.min_sqrt_rank(
        _matrix(a.file), [k - 1 for k in a.rows], [l - 1 for l in a.cols])),
    "order3-exclude": lambda a: formats.certificate_reply(
        psdbounds.order3_exclusion(_matrix(a.file))),
    "reduce-rank": _reduce,
    "gen sn": lambda a: formats.matrix_reply(generate_sn(a.n)),
    "gen cutpoly": lambda a: formats.matrix_reply(slack_matrix_cut_clique(a.n)),
    "gen disjointness": lambda a: formats.graph_reply(psdbounds.graph_H(a.n, a.l)[0]),
    "appendix-check": lambda a: formats.appendix_check_reply(
        psdbounds.appendix_reduction_check(a.n)),
}


@pytest.mark.parametrize("command", list(REPLY_CASES))
def test_library_reply_is_what_the_command_prints(chain_files, capsys, monkeypatch, command):
    # a library caller gets the command's stdout and exit status, in both forms
    monkeypatch.chdir(chain_files)
    for args, status in REPLY_CASES[command]:
        argv = [*command.split(), *args]
        doc, text, code = LIBRARY[command](_build_parser().parse_args(argv))
        assert code == status, argv
        json_out = formats.dump(doc)
        assert invoke(capsys, [*argv, "--json"]) == (code, json_out, ""), argv
        assert invoke(capsys, argv) == (code, json_out if text is None else text, ""), argv


@pytest.mark.parametrize("argv", [
    ["embed", "from-psd", "deep.json"],
    ["psd", "from-embedding", "deep.json"],
    ["verify", "psd", "deep.json", "s6.txt"],
    ["verify", "embedding", "deep.json", "pat.txt"],
    ["reduce-rank", "deep.json"],
    ["embed", "from-psd"],  # the document on stdin
], ids=" ".join)
def test_deeply_nested_json_is_a_usage_error(chain_files, argv):
    # json.loads raises RecursionError past its nesting limit; a fresh
    # interpreter, so an uncaught one would show as a traceback
    deep = "[" * 100_000 + "\n"
    (chain_files / "deep.json").write_text(deep)
    proc = launch(["-m", "psdbounds.cli", *argv], input=deep, cwd=chain_files)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: bad JSON: ") and proc.stderr.count("\n") == 1


NESTED = "[" * 900 + '"1"' + "]" * 900


@pytest.mark.parametrize("argv, doc, refused", [
    (["embed", "from-psd", "doc.json"],
     {"kind": "psd_factorization", "order": 1, "A": [[NESTED]], "B": [["1"]]},
     "psd_factorization document: exact entries are strings or integers"),
    (["psd", "from-embedding", "doc.json"],
     {"kind": "subspace_embedding", "ambient_dim": 1, "U": [{"basis": [[NESTED]]}],
      "V": [{"basis": []}]},
     "subspace_embedding document: exact entries are strings or integers"),
    (["reduce-rank", "doc.json"],
     {"kind": "psd_factorization", "order": 1, "A": [[NESTED]], "B": [["1"]]},
     "psd_factorization document: entries are numbers or strings"),
], ids=["embed-from-psd", "psd-from-embedding", "reduce-rank"])
def test_an_error_line_quotes_a_long_value_cut_short(tmp_path, argv, doc, refused):
    # an entry nested 900 deep is quoted by its first 60 characters, not
    # the 1,800 of its JSON text
    text = json.dumps({"schema": 1, **doc}).replace(json.dumps(NESTED), NESTED)
    (tmp_path / "doc.json").write_text(text)
    proc = launch(["-m", "psdbounds.cli", *argv], cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: malformed {refused}, got {'[' * 60}...\n"

def test_order3_exclude_cli(capsys):
    code, out, _ = invoke(
        capsys, ["order3-exclude", "--json", "--no-sign-fix"], stdin=s6_text()
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["assignments_checked"] == 512
    assert doc["rows"] == [3, 4, 5, 6]

    allones = "2 2\n1 1\n1 1\n"
    code, out, _ = invoke(capsys, ["order3-exclude"], stdin=allones)
    assert code == 1 and "inconclusive" in out


def test_sqrt_bound_cli(capsys):
    code, out, _ = invoke(
        capsys,
        ["sqrt-bound", "--rows", "3,4,5,6", "--cols", "1,2,3,4", "--no-sign-fix"],
        stdin=s6_text(),
    )
    assert code == 0 and "minimum rank 4" in out and "512" in out


def test_sqrt_bound_cli_rejects_out_of_range_index(tmp_path):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    path = tmp_path / "s6.txt"
    path.write_text(s6_text())
    proc = launch(["-m", "psdbounds.cli", "sqrt-bound",
                   "--rows", "1,2,3,99", "--cols", "1,2,3,4", str(path)])
    assert (proc.returncode, proc.stderr) == (2, "error: row index 99 outside the 6x6 matrix\n")


def test_sqrt_bound_cli_rejects_repeated_index(capsys):
    argv = ["sqrt-bound", "--rows", "3,3,4,5", "--cols", "1,1,2,3"]
    code, out, err = invoke(capsys, argv, stdin=s6_text())
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --rows: index 3 is repeated\n")


@pytest.mark.parametrize("rows, message", [
    ("1,x,3,4", "bad index list '1,x,3,4'"),
    ("0,1,2,3", "indices are 1-based"),
])
def test_sqrt_bound_cli_rejects_bad_index_lists(capsys, rows, message):
    argv = ["sqrt-bound", "--rows", rows, "--cols", "1,2,3,4"]
    code, out, err = invoke(capsys, argv, stdin=s6_text())
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --rows: {message}\n")


def test_malformed_documents_are_usage_errors(tmp_path):
    # a fresh interpreter, so an uncaught exception would show as a traceback
    no_dim = tmp_path / "emb.json"
    no_dim.write_text(json.dumps({"schema": 1, "kind": "subspace_embedding"}))
    bad_a = tmp_path / "fact.json"
    bad_a.write_text(json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": 5, "B": [["1"]]}
    ))
    for argv in (["psd", "from-embedding", str(no_dim)], ["embed", "from-psd", str(bad_a)]):
        proc = launch(["-m", "psdbounds.cli", *argv])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


def test_bounds_on_cutpoly_5_finishes():
    # a fresh interpreter under a time limit, so a runaway search fails the test
    proc = launch(["-m", "psdbounds.cli", "bounds", "--json"],
                  input=formats.format_matrix(slack_matrix_cut_clique(5)))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rank"]["value"] == 11
    assert doc["triangular_rank"]["value"] == 11
    assert doc["boolean_rank"]["value"] == 15
    assert doc["psd_rank_lower_bound"]["value"] == 11


def test_bounds_on_cutpoly_6_answers_while_boolrank_refuses(capsys):
    text = formats.format_matrix(slack_matrix_cut_clique(6))
    proc = launch(["-m", "psdbounds.cli", "bounds", "--json"], input=text)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["boolean_rank"]["value"] is None
    assert doc["boolean_rank"]["bounds"] == [16, 32]
    assert doc["boolean_rank"]["via"] == (
        "triangular rank / nonzero lines (cover search refused the graph)"
    )
    assert doc["psd_rank_lower_bound"]["value"] == 16
    # the cover search refuses the graph; boolrank prints the same interval
    code, out, err = invoke(capsys, ["boolrank"], stdin=text)
    assert (code, out, err) == (3, "unknown, bounds [16,32]\n", "")


def test_realize_support_rejects_fewer_than_one_try(tmp_path, capsys):
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": [["1"]], "B": [["1"]]}
    ))
    for tries in ("0", "-3"):
        code, out, err = invoke(capsys, ["realize-support", "--tries", tries, str(fact)])
        assert code == 2 and out == ""
        assert err == f"error: max_tries must be at least 1, got {tries}\n"
    # seed 12 samples a zero product on its first try: the retry cap runs out
    code, out, err = invoke(
        capsys, ["realize-support", "--seed", "12", "--tries", "1", str(fact)]
    )
    assert (code, out) == (3, "") and err.startswith("error: ") and "in 1 tries" in err


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


EMPTY_FACTORIZATION = {"schema": 1, "kind": "psd_factorization", "order": 100_000, "A": [], "B": []}
EMPTY_EMBEDDING = {"schema": 1, "kind": "subspace_embedding", "ambient_dim": 100_000, "U": [], "V": []}


@pytest.mark.parametrize("argv, expected", [
    (["verify", "psd", "factorization.json", "matrix.txt"], "pass\n"),
    (["realize-support", "factorization.json"], "0 0\n"),
    (["psd", "from-embedding", "embedding.json"], {**EMPTY_FACTORIZATION, "T": []}),
], ids=["verify-psd", "realize-support", "psd-from-embedding"])
def test_an_empty_factor_side_costs_nothing_at_any_order(tmp_path, argv, expected):
    # no factor on one side means no trace product: nothing of size
    # order^2 may be built, so each launch fits in 512 MiB of address space
    (tmp_path / "factorization.json").write_text(json.dumps(EMPTY_FACTORIZATION))
    (tmp_path / "embedding.json").write_text(json.dumps(EMPTY_EMBEDDING))
    (tmp_path / "matrix.txt").write_text("0 0\n")
    proc = launch(["-m", "psdbounds.cli", *argv], cwd=tmp_path, preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert (json.loads(proc.stdout) if isinstance(expected, dict) else proc.stdout) == expected


@pytest.mark.parametrize("header", ["1000000000 0", "0 1000000000"])
def test_a_matrix_with_an_empty_side_costs_nothing_at_any_size(tmp_path, header):
    # an m x 0 matrix has m empty rows, but none is built: rank reads the
    # header alone within 512 MiB of address space
    (tmp_path / "matrix.txt").write_text(header + "\n")
    proc = launch(["-m", "psdbounds.cli", "rank", "--json", "matrix.txt"], cwd=tmp_path,
                  preexec_fn=_cap_address_space, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"schema": 1, "kind": "rank", "value": 0}


EMPTY_BOUNDS = """matrix:               matrix.txt
rank:                 0
triangular rank:      0
boolean rank:         0
embedding dimension:  between 0 and 0
psd rank lower bound: 0 (via triangular rank)
"""


@pytest.mark.parametrize("header", ["1000000000 0", "0 1000000000"])
@pytest.mark.parametrize("argv, expected", [
    (["trirank"], "0\n"),
    (["boolrank", "--json"], {"schema": 1, "kind": "boolean_rank", "value": 0}),
    (["bounds"], EMPTY_BOUNDS),
], ids=["trirank", "boolrank", "bounds"])
def test_the_pattern_commands_read_an_empty_side_at_once(tmp_path, header, argv, expected):
    # no pattern of the m x 0 or 0 x n matrix is built, nor a mask per line:
    # each search sees a matrix of rank 0 with no entries, within 512 MiB
    (tmp_path / "matrix.txt").write_text(header + "\n")
    proc = launch(["-m", "psdbounds.cli", *argv, "matrix.txt"], cwd=tmp_path,
                  preexec_fn=_cap_address_space, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (json.loads(proc.stdout) if isinstance(expected, dict) else proc.stdout) == expected


def test_reduce_rank_without_numpy(tmp_path):
    # a fresh interpreter whose numpy is a shadow package that fails to import
    shadow = tmp_path / "shadow" / "numpy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('no numpy here')\n")
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": [["1"]], "B": [["1"]]}
    ))
    path = os.pathsep.join([str(shadow.parent), src_env()["PYTHONPATH"]])
    proc = launch(["-m", "psdbounds.cli", "reduce-rank", str(fact)], env={"PYTHONPATH": path})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: reduce-rank needs numpy (pip install psdbounds[float])\n"


BLAS_PROBE = """
import os, sys
from psdbounds.cli import run
code = run(sys.argv[1:])
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(code, threads, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_reduce_rank_runs_on_one_blas_thread(preset):
    fact = GOLDEN / "factorization.json"
    proc = launch(["-c", BLAS_PROBE, "reduce-rank", "--json", str(fact)],
                  env={"OPENBLAS_NUM_THREADS": preset})
    code, threads, setting = proc.stderr.split()
    assert code == "0"
    doc = json.loads(proc.stdout)
    assert doc["a_ranks"] == [1] * 4 and doc["b_ranks"] == [2] * 4
    # a value the caller set is left as it is
    assert setting == (preset or "1")
    if preset is None and threads != "None":  # /proc/self/task is Linux only
        assert threads == "1"


def test_gen_cutpoly_and_disjointness(capsys):
    code, out, _ = invoke(capsys, ["gen", "cutpoly", "4"])
    assert code == 0
    m = formats.parse_matrix(out)
    assert (m.rows, m.cols) == (11, 8)
    assert out == formats.format_matrix(slack_matrix_cut_clique(4))

    code, out, _ = invoke(capsys, ["gen", "disjointness", "5", "1"])
    assert code == 0
    g = formats.parse_graph(out)
    assert g.edge_count() == 20

    code, out, _ = invoke(capsys, ["gen", "disjointness", "5", "1", "--which", "hbar"])
    g = formats.parse_graph(out)
    assert g.edge_count() == 5


def test_usage_errors(capsys):
    assert invoke(capsys, ["no-such-command"])[0] == 2
    assert invoke(capsys, [])[0] == 2
    code, out, err = invoke(capsys, ["rank", "/nonexistent/file.txt"])
    assert code == 2
    code, out, err = invoke(capsys, ["rank"], stdin="garbage")
    assert code == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, ["--help"])[0] == 0


def top_level_commands(parser) -> list[str]:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


# argv and the top-level commands its launch builds a parser for
BUILT = [
    (["rank"], ["rank"]),
    (["--json", "rank"], ["rank"]),
    (["rank", "--help"], ["rank"]),
    (["--json", "gen", "sn", "3"], ["gen"]),
    # a first token that is no exact command name gets every parser
    (["--help", "rank"], list(cli._COMMANDS)),
    (["--json=1", "rank"], list(cli._COMMANDS)),
    (["no-such-command"], list(cli._COMMANDS)),
    ([], list(cli._COMMANDS)),
]


@pytest.mark.parametrize("argv, built", BUILT, ids=[" ".join(a) or "-" for a, _ in BUILT])
def test_a_launch_builds_only_its_commands_parser(capsys, monkeypatch, argv, built):
    parsers = []
    build = cli._build_parser

    def recorded(*args):
        parsers.append(build(*args))
        return parsers[-1]

    monkeypatch.setattr(cli, "_build_parser", recorded)
    invoke(capsys, argv, stdin=s6_text())
    assert [top_level_commands(p) for p in parsers] == [built]


def test_no_threads_option(capsys, monkeypatch):
    assert invoke(capsys, ["--threads", "2", "rank"], stdin=s6_text())[0] == 2
    assert invoke(capsys, ["rank", "--threads", "2"], stdin=s6_text())[0] == 2
    monkeypatch.setenv("PSDBOUNDS_THREADS", "4")
    code, out, _ = invoke(
        capsys,
        ["sqrt-bound", "--rows", "3,4,5,6", "--cols", "1,2,3,4"],
        stdin=s6_text(),
    )
    assert code == 0 and "minimum rank 4" in out


def test_bounds_computes_triangular_rank_once(capsys, monkeypatch):
    # `analyze` reads the triangular rank through `pattern.embrkl_bounds`
    from psdbounds import pattern

    calls = []
    original = pattern.triangular_rank

    def counted(pat, upper=None):
        calls.append(pat)
        return original(pat, upper=upper)

    monkeypatch.setattr(pattern, "triangular_rank", counted)
    code, out, _ = invoke(capsys, ["bounds"], stdin=s6_text())
    assert code == 0 and "embedding dimension:  between 3 and 3" in out
    assert len(calls) == 1


def test_bounds_refuses_a_negative_budget_before_any_search(capsys, monkeypatch):
    from psdbounds import pattern

    calls = []
    original = pattern.triangular_rank
    monkeypatch.setattr(
        pattern, "triangular_rank", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    code, out, err = invoke(capsys, ["bounds", "--budget", "-1"], stdin=s6_text())
    assert (code, out, calls) == (2, "", [])
    assert err == "error: budget must be nonnegative, got -1\n"


def test_boolrank_computes_triangular_rank_only_when_undecided(capsys, monkeypatch):
    from psdbounds import pattern

    calls = []
    original = pattern.triangular_rank
    monkeypatch.setattr(
        pattern, "triangular_rank", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    code, out, _ = invoke(capsys, ["boolrank"], stdin=s6_text())
    assert (code, out, calls) == (0, "5\n", [])
    code, out, _ = invoke(capsys, ["boolrank", "--budget", "0"], stdin=s6_text())
    assert code == 3 and out.startswith("unknown, bounds") and calls == [1]


def test_main_exits_with_runs_status_and_freezes_the_collector(capsys, monkeypatch):
    # the freeze spares the shutdown collections every object of the launch
    argv = ["order3-exclude", "cutpoly4.txt"]
    monkeypatch.chdir(GOLDEN)
    reply = invoke(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["psdbounds", *argv])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == reply and reply[0] == 1
    assert frozen > 0


# PYTHONUNBUFFERED unset, then set: `main` buffers an unbuffered stdout
STDOUT_SETTINGS = ({"PYTHONUNBUFFERED": None}, {"PYTHONUNBUFFERED": "1"})


def launch_into(write, argv, env):
    """``python -m psdbounds.cli argv`` in ``tests/golden``, writing to the
    pipe end ``write``, which is closed once the launch has ended."""
    try:
        return launch(["-m", "psdbounds.cli", *argv], env=env, cwd=GOLDEN,
                      stdout=write, text=False)
    finally:
        os.close(write)


def test_a_reader_that_closes_the_pipe_early_ends_the_launch_quietly():
    # `gen sn 400 | head -c 10`: the reply is far larger than a pipe holds
    for env in STDOUT_SETTINGS:
        read, write = os.pipe()
        head = []

        def read_10_bytes_and_close():
            head.append(os.read(read, 10))
            os.close(read)

        reader = threading.Thread(target=read_10_bytes_and_close)
        reader.start()
        proc = launch_into(write, ["gen", "sn", "400"], env)
        reader.join(timeout=60)
        assert (head, proc.returncode, proc.stderr) == ([b"400 400\n1 "], 141, b""), env


def test_a_pipe_closed_before_the_reply_ends_the_launch_quietly():
    for env in STDOUT_SETTINGS:
        read, write = os.pipe()
        os.close(read)
        proc = launch_into(write, ["rank", "s6.txt"], env)
        assert (proc.returncode, proc.stderr) == (141, b""), env
