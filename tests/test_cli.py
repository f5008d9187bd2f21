import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psdbounds import (
    ExactMatrix, cli, embed, formats, generate_sn, slack_matrix_cut_clique
)
from psdbounds.cli import run

ROOT = Path(__file__).resolve().parent.parent


def invoke(capsys, argv, stdin: str = ""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def s6_text() -> str:
    return formats.format_matrix(generate_sn(6))


def src_env() -> dict:
    """The environment for a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def test_gen_then_rank(capsys):
    code, out, _ = invoke(capsys, ["gen", "sn", "6"])
    assert code == 0
    code, out, _ = invoke(capsys, ["rank"], stdin=out)
    assert code == 0 and out.strip() == "3"


def test_gen_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, ["gen", "sn", "5"])
    assert code == 0
    assert formats.parse_matrix(out) == generate_sn(5)
    code, jout, _ = invoke(capsys, ["--json", "gen", "sn", "5"])
    doc = json.loads(jout)
    assert doc["rows"] == doc["cols"] == 5
    assert doc["entries"][0][1] == "3"


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


def test_bounds_report(capsys):
    code, out, _ = invoke(capsys, ["--json", "bounds"], stdin=s6_text())
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"]["value"] == 3
    assert doc["triangular_rank"]["value"] == 3
    assert doc["embedding_dim_bounds"]["value"] == [3, 3]
    assert doc["psd_rank_lower_bound"]["value"] == 4
    assert doc["triangular_rank"]["value"] <= doc["rank"]["value"]
    code, out, _ = invoke(capsys, ["bounds"], stdin=s6_text())
    assert "psd rank lower bound: 4" in out


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
    from psdbounds import support

    pat_file = tmp_path / "pat.txt"
    pat_file.write_text(formats.format_pattern(support(generate_sn(6))))
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


NO_NUMPY_PROBE = """
import sys
import psdbounds
import psdbounds.cli
assert "numpy" not in sys.modules, "import psdbounds.cli loaded numpy"
assert psdbounds.cli.run(["bounds", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "bounds loaded numpy"
from psdbounds import reduction
for name in ("FactorReductionReport", "FloatPsdMatrix", "ReductionError",
             "barvinok_reduce", "factorization_to_float", "reduce_factor_ranks"):
    assert getattr(psdbounds, name) is getattr(reduction, name), name
try:
    psdbounds.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
"""


def test_exact_commands_start_without_numpy(tmp_path):
    # a fresh interpreter: this test process has numpy loaded already
    path = tmp_path / "s6.txt"
    path.write_text(s6_text())
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, str(path)],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "psd rank lower bound: 4" in proc.stdout


MODULES_PROBE = """
import json, sys
from psdbounds import cli
code = cli.run(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

EXPENSIVE = {"cutpoly", "embed", "pattern", "psd", "reduction"}
# about 10 ms of start-up together, and no exact command needs them
SLOW_STDLIB = {"dataclasses", "inspect"}


def command_modules(tmp_path, *argv) -> set[str]:
    """The modules a fresh interpreter holds after running argv."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, str(out), *argv],
        env=src_env(), capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    result = json.loads(out.read_text())
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules a bare interpreter holds in the same environment (``site``
    and its ``.pth`` files may import some)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(proc.stdout))


@pytest.fixture
def chain_files(tmp_path):
    s6 = tmp_path / "s6.txt"
    s6.write_text(s6_text())
    emb = embed.embedding_from_rank_factorization(generate_sn(6))
    fact, t = embed.psd_from_embedding(emb)
    (tmp_path / "emb.json").write_text(formats.embedding_to_json(emb))
    (tmp_path / "fact.json").write_text(formats.factorization_to_json(fact))
    (tmp_path / "t.txt").write_text(formats.format_matrix(t))
    (tmp_path / "cutpoly4.txt").write_text(formats.format_matrix(slack_matrix_cut_clique(4)))
    # the cover search refuses it, and the triangular rank closes the interval
    (tmp_path / "id21.txt").write_text(formats.format_matrix(ExactMatrix.identity(21)))
    return tmp_path


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["rank", "s6.txt"], EXPENSIVE),
        (["verify", "psd", "fact.json", "t.txt"],
         {"embed", "cutpoly", "pattern", "reduction", "scalars"}),
        (["reduce-rank", "fact.json"], {"pattern", "psd", "embed", "cutpoly"}),
        (["order3-exclude", "s6.txt"], {"embed", "cutpoly"}),
        (["sqrt-bound", "--rows", "3,4,5,6", "--cols", "1,2,3,4", "s6.txt"],
         {"embed", "cutpoly", "pattern"}),
        (["gen", "sn", "6"], {"embed", "cutpoly", "pattern", "scalars"}),
        (["embed", "from-rank", "s6.txt"], {"cutpoly", "reduction", "scalars"}),
        (["psd", "from-embedding", "emb.json"], {"cutpoly", "reduction", "scalars"}),
        # triangular rank 7: no order-3 certificate, so no sign enumeration
        (["bounds", "cutpoly4.txt"], {"cutpoly", "reduction", "scalars"}),
        (["boolrank", "id21.txt"], {"embed", "psd", "scalars", "cutpoly", "reduction"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_loads_only_its_modules(chain_files, bare_modules, argv, unloaded):
    modules = command_modules(chain_files, *argv)
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("psdbounds.")}
    assert not loaded & unloaded, sorted(loaded & unloaded)
    if argv[0] == "rank":
        assert loaded == {"cli", "formats", "linalg"}
    if argv[0] != "reduce-rank":  # numpy imports inspect
        slow = (modules - bare_modules) & SLOW_STDLIB
        assert not slow, sorted(slow)


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
    proc = subprocess.run(
        [sys.executable, "-m", "psdbounds.cli", "sqrt-bound",
         "--rows", "1,2,3,99", "--cols", "1,2,3,4", str(path)],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
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
        proc = subprocess.run(
            [sys.executable, "-m", "psdbounds.cli", *argv],
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


def test_bounds_on_cutpoly_5_finishes():
    # a fresh interpreter under a time limit, so a runaway search fails the test
    proc = subprocess.run(
        [sys.executable, "-m", "psdbounds.cli", "bounds", "--json"],
        input=formats.format_matrix(slack_matrix_cut_clique(5)),
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rank"]["value"] == 11
    assert doc["triangular_rank"]["value"] == 11
    assert doc["boolean_rank"]["value"] == 15
    assert doc["psd_rank_lower_bound"]["value"] == 11


def test_bounds_on_cutpoly_6_answers_while_boolrank_refuses(capsys):
    text = formats.format_matrix(slack_matrix_cut_clique(6))
    proc = subprocess.run(
        [sys.executable, "-m", "psdbounds.cli", "bounds", "--json"],
        input=text,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
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


def test_reduce_rank_without_numpy(tmp_path):
    # a fresh interpreter whose numpy is a shadow package that fails to import
    shadow = tmp_path / "shadow" / "numpy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('no numpy here')\n")
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": [["1"]], "B": [["1"]]}
    ))
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([str(shadow.parent), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-m", "psdbounds.cli", "reduce-rank", str(fact)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: reduce-rank needs numpy (pip install psdbounds[float])\n"


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


def test_appendix_check_cli(capsys):
    code, out, _ = invoke(capsys, ["appendix-check", "18", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["pairs_checked"] == 1296


def test_usage_errors(capsys):
    assert invoke(capsys, ["no-such-command"])[0] == 2
    assert invoke(capsys, [])[0] == 2
    code, out, err = invoke(capsys, ["rank", "/nonexistent/file.txt"])
    assert code == 2
    code, out, err = invoke(capsys, ["rank"], stdin="garbage")
    assert code == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, ["--help"])[0] == 0


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
