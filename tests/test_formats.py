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


def test_matrix_roundtrip():
    m = ExactMatrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(7, 3)]])
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


def test_pattern_roundtrip():
    p = SupportPattern.from_rows([[1, 0, 1], [0, 0, 1]])
    assert formats.parse_pattern(formats.format_pattern(p)) == p
    with pytest.raises(formats.FormatError):
        formats.parse_pattern("1 1\n2\n")


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
