"""Text and JSON wire formats shared by the library and the CLI.

Matrix text: a header line ``m n`` followed by m lines of n entries, each
an integer ``p`` or a fraction ``p/q`` with q > 0.  ``#`` starts a comment.
Patterns use the same layout restricted to 0/1 entries.  Graph text: a
header ``L R`` followed by one line of 1-based right-neighbor indices per
left vertex.  JSON documents carry ``"schema": 1`` and keep exact values
as rational strings; indices in JSON are 1-based, matching the usual
row/column numbering of matrices (the Python API is 0-based).  ``dump``
writes every JSON document the package prints.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING

from .linalg import ExactMatrix, Subspace

# The other layers' types are imported where a parser builds them, so that
# reading a matrix loads `linalg` and nothing of the searches.
if TYPE_CHECKING:
    from .embed import SubspaceEmbedding
    from .pattern import BipartiteGraph, SupportPattern
    from .psd import Order3Certificate, PsdFactorization, SignAssignment

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input text or JSON."""


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _ratio(token) -> tuple[int, int] | None:
    """(p, q) for a token spelled ``-?[0-9]+(/[0-9]*[1-9][0-9]*)?`` in ASCII,
    else None.  It reads the common exact entries with two ``int`` calls;
    every other token is left to ``Fraction``, so errors keep their text."""
    if type(token) is not str or not token.isascii():
        return None
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not digits.isdigit() or (slash and not den.isdigit()):
        return None
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:  # past int's digit limit
        return None
    return (p, q) if q else None


def _exact(token) -> Fraction:
    """``Fraction(token)``, without its string parser where ``_ratio`` reads it."""
    pq = _ratio(token)
    return Fraction(token) if pq is None else Fraction(*pq)


def _float(token) -> float:
    """``float(Fraction(token))``; int / int rounds correctly, as it does."""
    pq = _ratio(token)
    return float(Fraction(token)) if pq is None else pq[0] / pq[1]


def _memo(convert):
    """``convert`` computed once per distinct string token of a document.
    Inputs repeat tokens (zeros, the mirrored half of a symmetric factor,
    small entry ranges), and an exact value read once is one shared object,
    so ``is_symmetric`` compares a factor's two halves by identity."""
    memo: dict = {}

    def read(token):
        if type(token) is not str:
            return convert(token)
        value = memo.get(token)
        if value is None:
            value = memo[token] = convert(token)
        return value

    return read


def _parse_entry(token: str) -> Fraction:
    pq = _ratio(token)
    if pq is not None:
        return Fraction(*pq)
    if "." in token:
        raise FormatError(f"bad entry {token!r}: decimals are not exact, use p/q")
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad entry {token!r}: {exc}") from None
    if "/" in token and int(token.split("/", 1)[1]) <= 0:
        raise FormatError(f"bad entry {token!r}: denominator must be positive")
    return value


def _header(line: str, kind: str, form: str) -> tuple[int, int]:
    """The two counts of a ``form`` header line, such as ``'m n'``."""
    try:
        counts = [int(tok) for tok in line.split()]
    except ValueError:
        counts = []
    if len(counts) != 2 or min(counts) < 0:
        raise FormatError(
            f"{kind} header must be '{form}' with two non-negative integers, "
            f"got {line!r}"
        )
    return counts[0], counts[1]


def parse_matrix(text: str) -> ExactMatrix:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix input")
    m, n = _header(lines[0], "matrix", "m n")
    rows = lines[1:]
    if not rows and n == 0:  # the m rows of an m x 0 matrix are empty lines
        rows = [""] * m
    if len(rows) != m:
        raise FormatError(f"expected {m} matrix rows, found {len(rows)}")
    entries = []
    read = _memo(_parse_entry)
    for line in rows:
        toks = line.split()
        if len(toks) != n:
            raise FormatError(f"expected {n} entries per row, got {len(toks)}")
        entries.extend(map(read, toks))
    return ExactMatrix(m, n, entries)


def format_matrix(m: ExactMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(v) for v in m.row(i)))
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> SupportPattern:
    from .pattern import support

    mat = parse_matrix(text)
    bad = next((v for v in mat.entries if v not in (0, 1)), None)
    if bad is not None:
        raise FormatError(f"pattern entries must be 0/1, got {bad}")
    return support(mat)


def format_pattern(p: SupportPattern) -> str:
    lines = [f"{p.rows} {p.cols}"]
    for i in range(p.rows):
        lines.append(" ".join(str(p[i, j]) for j in range(p.cols)))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> BipartiteGraph:
    from .pattern import BipartiteGraph

    # keep blank lines: a vertex with no neighbors is an empty line
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise FormatError("empty graph input")
    left, right = _header(lines[0], "graph", "L R")
    body = lines[1 : 1 + left]
    if len(body) < left:
        raise FormatError(f"expected {left} adjacency lines, found {len(body)}")
    if any(line.strip() for line in lines[1 + left :]):
        raise FormatError(f"text after the {left} adjacency lines")
    adj = []
    for line in body:
        mask = 0
        for tok in line.split():
            v = int(tok)
            if not 1 <= v <= right:
                raise FormatError(f"neighbor index {v} outside 1..{right}")
            mask |= 1 << (v - 1)
        adj.append(mask)
    return BipartiteGraph(left, right, adj)


def format_graph(g: BipartiteGraph) -> str:
    lines = [f"{g.left_count} {g.right_count}"]
    for u in range(g.left_count):
        neigh = [str(v + 1) for v in range(g.right_count) if g.has_edge(u, v)]
        lines.append(" ".join(neigh))
    return "\n".join(lines) + "\n"


# -- JSON ---------------------------------------------------------------------


def dump(doc: dict) -> str:
    """The text of a JSON document: ``schema`` first, indent 2, one newline."""
    return json.dumps({"schema": SCHEMA_VERSION, **doc}, indent=2) + "\n"


def _basis_rows(s: Subspace) -> list[list[str]]:
    return [[str(v) for v in s.basis.row(i)] for i in range(s.dim)]


def embedding_to_json(e: SubspaceEmbedding) -> str:
    return dump({
        "kind": "subspace_embedding",
        "ambient_dim": e.ambient_dim,
        "U": [{"basis": _basis_rows(u)} for u in e.U],
        "V": [{"basis": _basis_rows(v)} for v in e.V],
    })


def embedding_from_json(text: str) -> SubspaceEmbedding:
    from .embed import SubspaceEmbedding

    doc = _load(text, "subspace_embedding")
    with _fields("subspace_embedding"):
        q = _size(doc, "ambient_dim")

        read = _memo(_exact)

        def space(obj) -> Subspace:
            rows = [[read(v) for v in row] for row in obj["basis"]]
            return Subspace.from_vectors(q, rows)

        return SubspaceEmbedding(
            q,
            tuple(space(u) for u in doc["U"]),
            tuple(space(v) for v in doc["V"]),
        )


def factorization_doc(f: PsdFactorization) -> dict:
    """The JSON document of a factorization, before ``dump`` adds its schema."""
    return {
        "kind": "psd_factorization",
        "order": f.order,
        "A": [[str(v) for v in mat.entries] for mat in f.A],
        "B": [[str(v) for v in mat.entries] for mat in f.B],
    }


def factorization_to_json(f: PsdFactorization) -> str:
    return dump(factorization_doc(f))


def _factors(text: str, convert, build) -> tuple[int, list, list]:
    """The order and the A and B lists of a factorization document: each
    factor's entries read by ``convert``, then ``build(order, entries)``."""
    doc = _load(text, "psd_factorization")
    with _fields("psd_factorization"):
        q = _size(doc, "order")
        read = _memo(convert)

        def factors(entry_lists) -> list:
            return [build(q, [read(v) for v in e]) for e in entry_lists]

        return q, factors(doc["A"]), factors(doc["B"])


def factorization_from_json(text: str) -> PsdFactorization:
    from .psd import PsdFactorization

    q, a, b = _factors(text, _exact, lambda q, entries: ExactMatrix(q, q, entries))
    return PsdFactorization(q, tuple(a), tuple(b))


def float_factors_from_json(text: str) -> tuple[list[list[float]], list[list[float]], int]:
    """Factor entries as floats (accepts decimal strings), for reduce-rank."""
    q, a, b = _factors(text, _float, lambda q, entries: entries)
    return a, b, q


def certificate_to_json(cert: Order3Certificate) -> str:
    return dump({
        "kind": "order3_certificate",
        "claim": cert.claim,
        "bound": cert.bound,
        "rows": [k + 1 for k in cert.rows],
        "cols": [l + 1 for l in cert.cols],
        "assignments_checked": cert.assignments_checked,
        "min_rank": cert.min_rank,
        "witness": sign_assignment_doc(cert.witness),
        "pinned_rows": [k + 1 for k in cert.pinned_rows],
        "pinned_cols": [l + 1 for l in cert.pinned_cols],
        "column_distinctness": cert.column_distinctness,
        "reason": cert.reason,
    })


def sign_assignment_doc(w: SignAssignment | None):
    if w is None:
        return None
    return {
        "positions": [[i + 1, j + 1] for i, j in w.positions],
        "signs": list(w.signs),
    }


@contextmanager
def _fields(kind: str):
    """Turn a missing key, a wrongly typed field, a zero denominator or a
    value past the float range into a FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{kind} document has no key {exc}") from None
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} document: {exc}") from None


def _size(doc: dict, key: str) -> int:
    value = doc[key]
    # bool is an int subclass, and int() would truncate 1.9 to 1
    if type(value) is not int or value < 0:
        raise FormatError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _load(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(f"expected a {kind} document")
    if doc.get("schema") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema {doc.get('schema')!r}")
    return doc
