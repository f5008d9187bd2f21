import json
from fractions import Fraction

import pytest

from psdbounds import (
    BipartiteGraph,
    ExactMatrix,
    SupportPattern,
    embedding_from_rank_factorization,
    generate_sn,
    order3_exclusion,
    psd_from_embedding,
    support,
    verify_embedding,
    verify_psd_factorization,
)
from psdbounds import formats
from psdbounds.cli import run


def test_matrix_roundtrip():
    m = ExactMatrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(7, 3)]])
    assert formats.parse_matrix(formats.format_matrix(m)) == m
    # an m x 0 matrix is its header and m empty lines
    m = ExactMatrix.zeros(2, 0)
    assert formats.format_matrix(m) == "2 0\n\n\n"
    assert formats.parse_matrix(formats.format_matrix(m)) == m


def test_matrix_parsing_details():
    text = "# a comment\n2 2\n1 1/2   # trailing comment\n-3 0\n"
    m = formats.parse_matrix(text)
    assert m[0, 1] == Fraction(1, 2) and m[1, 0] == -3

    with pytest.raises(formats.FormatError):
        formats.parse_matrix("")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("2\n1 2\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("1 2\n1\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("1 1\n0.5\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("1 1\n1/0\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("1 1\n1/-2\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("1 1\nx\n")
    with pytest.raises(formats.FormatError):
        formats.parse_matrix("2 2\n1 2\n")


@pytest.mark.parametrize("text", ["a 2\n1 2\n", "1 -2\n\n", "2 2.0\n1 2\n3 4\n"])
def test_matrix_header_needs_two_counts(text):
    with pytest.raises(formats.FormatError, match="matrix header must be 'm n'"):
        formats.parse_matrix(text)


@pytest.mark.parametrize("text", ["2 -1\n\n\n", "x 1\n1\n", "1\n1\n"])
def test_graph_header_needs_two_counts(text):
    with pytest.raises(formats.FormatError, match="graph header must be 'L R'"):
        formats.parse_graph(text)


def test_pattern_roundtrip():
    p = SupportPattern.from_rows([[1, 0, 1], [0, 0, 1]])
    assert formats.parse_pattern(formats.format_pattern(p)) == p
    with pytest.raises(formats.FormatError, match="got 2$"):
        formats.parse_pattern("2 2\n1 0\n2 -1\n")
    with pytest.raises(formats.FormatError, match="got 1/2$"):
        formats.parse_pattern("2 2\n1 1/2\n2 -1\n")
    # a pattern without rows keeps its column count, one without columns its rows
    assert formats.parse_pattern("0 3\n") == SupportPattern.zeros(0, 3)
    p = SupportPattern.zeros(3, 0)
    assert formats.parse_pattern(formats.format_pattern(p)) == p


def test_graph_roundtrip_with_isolated_vertex():
    g = BipartiteGraph.from_edges(3, 4, [(0, 0), (0, 3), (2, 1)])
    text = formats.format_graph(g)
    assert formats.parse_graph(text) == g
    # vertex 1 has no neighbors: its line is empty
    assert text.splitlines()[2] == ""
    with pytest.raises(formats.FormatError):
        formats.parse_graph("2 2\n1\n")  # missing a line
    with pytest.raises(formats.FormatError):
        formats.parse_graph("1 2\n3\n")  # neighbor out of range
    with pytest.raises(formats.FormatError):
        formats.parse_graph("")
    with pytest.raises(formats.FormatError):
        formats.parse_graph("2 3\n1\n2 3\n1 2 3\n")  # a line too many
    # trailing blank and comment-only lines are fine
    assert formats.parse_graph("2 3\n1\n2 3\n\n# end\n") == (
        BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 1), (1, 2)])
    )


def test_embedding_json_roundtrip():
    emb = embedding_from_rank_factorization(generate_sn(6))
    text = formats.embedding_to_json(emb)
    back = formats.embedding_from_json(text)
    assert back.ambient_dim == emb.ambient_dim
    assert back.U == emb.U and back.V == emb.V
    assert verify_embedding(back, support(generate_sn(6)))
    doc = json.loads(text)
    assert doc["schema"] == 1 and doc["kind"] == "subspace_embedding"


def test_factorization_json_roundtrip():
    f, t = psd_from_embedding(embedding_from_rank_factorization(generate_sn(6)))
    back = formats.factorization_from_json(formats.factorization_to_json(f))
    assert back == f
    assert verify_psd_factorization(back, t).passed


def test_float_factors_accept_decimals():
    doc = {
        "schema": 1,
        "kind": "psd_factorization",
        "order": 1,
        "A": [["0.25"]],
        "B": [["1"]],
    }
    a, b, order = formats.float_factors_from_json(json.dumps(doc))
    assert order == 1 and a == [[0.25]] and b == [[1.0]]


def test_certificate_json_uses_one_based_indices():
    cert = order3_exclusion(generate_sn(6), fix_global_sign=False)
    doc = json.loads(formats.certificate_to_json(cert))
    assert doc["claim"] == "psd rank >= 4"
    assert doc["rows"] == [3, 4, 5, 6]
    assert doc["cols"] == [1, 2, 3, 4]
    assert doc["assignments_checked"] == 512
    assert doc["min_rank"] == 4
    assert doc["bound"] == 4
    assert len(doc["witness"]["positions"]) == len(doc["witness"]["signs"]) == 9
    assert doc["column_distinctness"] == "support-level"


def test_schema_and_kind_guards():
    with pytest.raises(formats.FormatError):
        formats.embedding_from_json("{\"kind\": \"other\", \"schema\": 1}")
    with pytest.raises(formats.FormatError):
        formats.factorization_from_json(
            "{\"kind\": \"psd_factorization\", \"schema\": 99}"
        )
    with pytest.raises(formats.FormatError):
        formats.embedding_from_json("not json")
    with pytest.raises(formats.FormatError, match="ambient_dim"):
        formats.embedding_from_json("{\"schema\": 1, \"kind\": \"subspace_embedding\"}")
    bad_a = json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": 5, "B": [["1"]]}
    )
    with pytest.raises(formats.FormatError):
        formats.factorization_from_json(bad_a)
    with pytest.raises(formats.FormatError):
        formats.float_factors_from_json(bad_a)
    zero_den = json.dumps(
        {"schema": 1, "kind": "psd_factorization", "order": 1, "A": [["1/0"]], "B": [["1"]]}
    )
    with pytest.raises(formats.FormatError):
        formats.factorization_from_json(zero_den)
    # sizes must be non-negative ints: no negative, fractional or boolean size
    for size in (-1, 1.9, True, "2"):
        fact = json.dumps(
            {"schema": 1, "kind": "psd_factorization", "order": size, "A": [], "B": []}
        )
        with pytest.raises(formats.FormatError, match="order must be"):
            formats.factorization_from_json(fact)
        with pytest.raises(formats.FormatError, match="order must be"):
            formats.float_factors_from_json(fact)
        emb = json.dumps(
            {"schema": 1, "kind": "subspace_embedding", "ambient_dim": size, "U": [], "V": []}
        )
        with pytest.raises(formats.FormatError, match="ambient_dim must be"):
            formats.embedding_from_json(emb)


# the fast token reader against Fraction's own parser: plain and signed
# integers and ratios, a 400-digit numerator, then tokens that only Fraction
# reads (decimals, exponents, spaces, "+", underscores, a non-ASCII digit)
# and tokens it refuses (zero or signed denominators, words, a superscript)
TOKENS = [
    "0", "-0", "7", "-3/4", "6/4", "1/3", "007/010", "9" * 400 + "/7",
    "1" + "0" * 400 + "/3" + "0" * 399, "0.125", "1e-3", " 2", "+2", "1_000",
    "1/0", "1/-2", "abc", "\u0663", "\u00b2", "", "-", "1/", "/2", "--1",
]


def _reference(convert, token):
    """(value, None) or (None, exception) of the parent's conversion."""
    try:
        return convert(token), None
    except Exception as exc:  # noqa: BLE001 - every error is compared
        return None, exc


def _expected_error(exc):
    # _fields wraps these as a malformed document; a ValueError passes through
    if isinstance(exc, (TypeError, ZeroDivisionError, OverflowError)):
        return formats.FormatError, f"malformed psd_factorization document: {exc}"
    return type(exc), str(exc)


def _factorization_text(token) -> str:
    # the token twice: the second read comes from the document's memo
    return json.dumps({"schema": 1, "kind": "psd_factorization", "order": 1,
                       "A": [[token], [token]], "B": [["1"]]})


@pytest.mark.parametrize("token", TOKENS)
def test_exact_tokens_read_as_fraction_does(token, tmp_path, capsys):
    text = _factorization_text(token)
    value, error = _reference(Fraction, token)
    if error is None:
        fact = formats.factorization_from_json(text)
        got = [a.entries[0] for a in fact.A]
        assert got == [value, value] and all(type(v) is Fraction for v in got)
        return
    kind, message = _expected_error(error)
    with pytest.raises(kind) as raised:
        formats.factorization_from_json(text)
    assert type(raised.value) is kind and str(raised.value) == message
    path = tmp_path / "fact.json"
    path.write_text(text)
    matrix = tmp_path / "m.txt"
    matrix.write_text("1 1\n1\n")
    capsys.readouterr()
    assert run(["verify", "psd", str(path), str(matrix)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("token", TOKENS)
def test_float_tokens_are_bit_identical_to_fraction(token, tmp_path, capsys):
    text = _factorization_text(token)
    value, error = _reference(lambda t: float(Fraction(t)), token)
    if error is None:
        a, b, order = formats.float_factors_from_json(text)
        assert [v.hex() for row in a for v in row] == [value.hex()] * 2
        assert order == 1 and b == [[1.0]]
        return
    kind, message = _expected_error(error)
    with pytest.raises(kind) as raised:
        formats.float_factors_from_json(text)
    assert type(raised.value) is kind and str(raised.value) == message
    path = tmp_path / "fact.json"
    path.write_text(text)
    capsys.readouterr()
    assert run(["reduce-rank", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_matrix_entries_read_as_before():
    # the fast reader takes only what the checked path accepted unchanged
    for token in ("0", "-0", "7", "-3/4", "6/4", "007/010", "9" * 400 + "/7"):
        assert formats.parse_matrix(f"1 1\n{token}\n")[0, 0] == Fraction(token)
    for token, reason in (
        ("1/0", "Fraction(1, 0)"),
        ("1/-2", "Invalid literal for Fraction: '1/-2'"),
        ("0.125", "decimals are not exact, use p/q"),
        ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),
    ):
        with pytest.raises(formats.FormatError) as raised:
            formats.parse_matrix(f"1 1\n{token}\n")
        assert str(raised.value) == f"bad entry {token!r}: {reason}"
    assert formats.parse_matrix("1 1\n\u0663/4\n")[0, 0] == Fraction(3, 4)
