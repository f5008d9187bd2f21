"""Text and JSON wire formats shared by the library and the CLI, and the
reply of every command.

Matrix text: a header line ``m n`` followed by m lines of n entries, each
an integer ``p`` or a fraction ``p/q`` with q > 0.  ``#`` starts a comment.
Patterns use the same layout restricted to 0/1 entries.  Graph text: a
header ``L R`` followed by one line of 1-based right-neighbor indices per
left vertex.  JSON documents carry ``"schema": 1`` and keep exact values
as rational strings; indices in JSON are 1-based (the Python API is
0-based).  ``dump`` writes every JSON document the package prints.  Readers
take each distinct token to integers (p, q), writers reduce p / q by a gcd.

Each result type has a ``*_reply`` function returning ``(doc, text,
exit_status)``: the JSON document before ``dump`` adds its schema, the
exact text form (None for an embedding or a factorization, which have
none), and the exit status of the command that prints it.  The CLI writes
the reply of one library call, the document with ``--json`` or where there
is no text, so a library caller gets what a command prints.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from math import gcd
from typing import TYPE_CHECKING

from .linalg import ExactMatrix, _over_lcm

# The other layers' types are imported where a parser builds them, so that
# reading a matrix loads `linalg` and nothing of the searches.
if TYPE_CHECKING:
    from .cutpoly import AppendixCheckResult
    from .pattern import BipartiteGraph, BoundReport, SupportPattern
    from .psd import FactorizationReport, PsdFactorization, Subspace, SubspaceEmbedding
    from .reduction import FactorReductionReport
    from .scalars import Order3Certificate, SignAssignment, SqrtRankResult

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 1  # a check failed or a certificate is inconclusive
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3  # a retry cap ran out, or the boolean rank is undecided
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool it killed


class FormatError(ValueError):
    """Malformed input text or JSON."""


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _exact(token) -> tuple[int, int]:
    """(p, q) with p / q = ``Fraction(token)``, q > 0, in any terms, of a string or int:
    two ``int`` calls where it is spelled ``-?[0-9]+(/[0-9]+)?`` in ASCII with q > 0, else
    ``Fraction``, so errors keep their text.  A JSON float or literal is refused."""
    if type(token) is int:
        return token, 1
    if type(token) is not str:
        raise TypeError(f"exact entries are strings or integers, got {_quote(token)}")
    num, slash, den = token.partition("/")
    if token.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            if q := (int(den) if slash else 1):
                return int(num), q
        except ValueError:  # past int's digit limit
            pass
    from fractions import Fraction  # loaded only here, as in `linalg`
    return Fraction(token).as_integer_ratio()


def _float(token) -> float:
    """``float(Fraction(token))`` of a string or JSON number, as p / q, which
    rounds correctly in any terms.  A JSON literal (``true``, ``null``) is refused."""
    if type(token) not in (str, int, float):
        raise TypeError(f"entries are numbers or strings, got {_quote(token)}")
    p, q = token.as_integer_ratio() if type(token) is float else _exact(token)
    return p / q


def _read(tokens: list, convert) -> list:
    """``convert`` of each token, once per distinct string, first uses first (the first
    bad token raises); a list of other kinds too goes one by one: ``true`` would hit ``1``."""
    try:
        keys = dict.fromkeys(tokens)
    except TypeError:  # an array or object among them
        keys = None
    if keys is None or not {str}.issuperset(map(type, keys)):
        return list(map(convert, tokens))
    memo = dict(zip(keys, map(convert, keys)))
    return list(map(memo.__getitem__, tokens))


def _parse_entry(token: str) -> tuple[int, int]:
    """(p, q) of a matrix-text entry, as ``_exact`` reads it; a decimal is refused."""
    if "." in token:
        raise FormatError(f"bad entry {token!r}: decimals are not exact, use p/q")
    try:
        return _exact(token)
    except ZeroDivisionError:
        raise FormatError(f"bad entry {token!r}: zero denominator") from None
    except ValueError as exc:
        raise FormatError(f"bad entry {token!r}: {exc}") from None


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
        return ExactMatrix._of(m, 0, (), ())
    if len(rows) != m:
        raise FormatError(f"expected {m} matrix rows, found {len(rows)}")
    # each distinct token once, first uses first, up to a row of the wrong length
    toks = [line.split() for line in rows]
    short = next((i for i, row in enumerate(toks) if len(row) != n), m)
    flat = list(chain.from_iterable(toks[:short]))
    keys = dict.fromkeys(flat)
    memo = dict(zip(keys, map(_parse_entry, keys)))
    if short < m:
        raise FormatError(f"expected {n} entries per row, got {len(toks[short])}")
    if all(q == 1 for _, q in memo.values()):  # integers, the common case: rows over 1
        ints = {t: p for t, (p, _) in memo.items()}
        return ExactMatrix._of(m, n, map(ints.__getitem__, flat), (1,) * m)
    return ExactMatrix._of(m, n, *_over_lcm(list(map(memo.__getitem__, flat)), n))


def _texts(nums, den: int) -> list[str]:
    """``str(Fraction(p, den))`` of each integer p, without building it."""
    if den == 1:
        return list(map(str, nums))
    return [str(p // g) if (g := gcd(p, den)) == den else f"{p // g}/{den // g}" for p in nums]


def matrix_rows(m: ExactMatrix) -> list[list[str]]:
    """The entries of ``m`` as strings, row by row."""
    dens = m.dens if m.cols else [1] * m.rows
    return list(map(_texts, m.integer_rows(), dens))


def format_matrix(m: ExactMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"] + [" ".join(row) for row in matrix_rows(m)]
    return "\n".join(lines) + "\n"


def parse_pattern(text: str) -> SupportPattern:
    from .pattern import support

    mat = parse_matrix(text)
    bad = next((v for v in mat.entries if v not in (0, 1)), None)
    if bad is not None:
        raise FormatError(f"pattern entries must be 0/1, got {bad}")
    return support(mat)


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
            try:
                v = int(tok)
            except ValueError:
                raise FormatError(f"bad neighbor index {tok!r}: not an integer") from None
            if not 1 <= v <= right:
                raise FormatError(f"neighbor index {v} outside 1..{right}")
            mask |= 1 << (v - 1)
        adj.append(mask)
    return BipartiteGraph(left, right, adj)


def _neighbors(g: BipartiteGraph) -> list[list[int]]:
    """The 1-based right neighbors of each left vertex."""
    return [
        [v + 1 for v in range(g.right_count) if g.has_edge(u, v)]
        for u in range(g.left_count)
    ]


def format_graph(g: BipartiteGraph) -> str:
    lines = [f"{g.left_count} {g.right_count}"]
    lines += [" ".join(map(str, neigh)) for neigh in _neighbors(g)]
    return "\n".join(lines) + "\n"


# -- JSON ---------------------------------------------------------------------


def dump(doc: dict) -> str:
    """The text of a JSON document: ``schema`` first, indent 2, one newline."""
    return json.dumps({"schema": SCHEMA_VERSION, **doc}, indent=2) + "\n"


def embedding_doc(e: SubspaceEmbedding) -> dict:
    """The JSON document of an embedding, before ``dump`` adds its schema."""
    return {
        "kind": "subspace_embedding",
        "ambient_dim": e.ambient_dim,
        "U": [{"basis": matrix_rows(u.basis)} for u in e.U],
        "V": [{"basis": matrix_rows(v.basis)} for v in e.V],
    }


def embedding_to_json(e: SubspaceEmbedding) -> str:
    return dump(embedding_doc(e))


def embedding_from_json(text: str) -> SubspaceEmbedding:
    from .psd import SubspaceEmbedding, _span

    doc = _load(text, "subspace_embedding")
    with _fields("subspace_embedding"):
        q = _size(doc, "ambient_dim")

        def spaces(key: str) -> tuple[Subspace, ...]:
            out = []
            for i, obj in enumerate(_array(doc[key])):
                if type(obj) is not dict:
                    raise TypeError(
                        f'{key}[{i}] must be an object with a "basis" array,'
                        f" got {_quote(obj)}"
                    )
                basis = _array(obj["basis"])
                out.append(_span(q, [_over_lcm(_read(_array(r), _exact))[0] for r in basis]))
            return tuple(out)

        return SubspaceEmbedding(q, spaces("U"), spaces("V"))


def factorization_doc(f: PsdFactorization) -> dict:
    """The JSON document of a factorization, before ``dump`` adds its schema."""
    return {
        "kind": "psd_factorization",
        "order": f.order,
        "A": [_texts(*mat.scaled()) for mat in f.A],
        "B": [_texts(*mat.scaled()) for mat in f.B],
    }


def factorization_to_json(f: PsdFactorization) -> str:
    return dump(factorization_doc(f))


def _factors(text: str, convert, build) -> tuple[int, list, list]:
    """The order and the A and B lists of a factorization document: each
    factor's order^2 entries read by ``convert``, then ``build(order, entries)``."""
    doc = _load(text, "psd_factorization")
    with _fields("psd_factorization"):
        q = _size(doc, "order")

        def factor(entries: list):
            if len(entries) != q * q:
                raise FormatError(f"expected {q * q} entries, got {len(entries)}")
            return build(q, _read(entries, convert))

        def factors(entry_lists) -> list:
            return [factor(_array(e)) for e in _array(entry_lists)]

        return q, factors(doc["A"]), factors(doc["B"])


def factorization_from_json(text: str) -> PsdFactorization:
    from .psd import PsdFactorization

    def factor(q: int, ratios: list) -> ExactMatrix:
        nums, den = _over_lcm(ratios)  # one lcm for the factor
        return ExactMatrix._of(q, q, nums, den * q)

    q, a, b = _factors(text, _exact, factor)
    return PsdFactorization(q, tuple(a), tuple(b))


def float_factors_from_json(text: str) -> tuple[list[list[float]], list[list[float]], int]:
    """Factor entries as floats (accepts decimal strings), for reduce-rank."""
    q, a, b = _factors(text, _float, lambda q, entries: entries)
    return a, b, q


def certificate_doc(cert: Order3Certificate) -> dict:
    """The JSON document of a certificate, before ``dump`` adds its schema."""
    return {
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
        "column_distinctness": "support-level",
        "reason": cert.reason,
    }


def certificate_to_json(cert: Order3Certificate) -> str:
    return dump(certificate_doc(cert))


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
    except ZeroDivisionError:
        raise FormatError(f"malformed {kind} document: zero denominator") from None
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"malformed {kind} document: {exc}") from None


def _array(value) -> list:
    """``value`` if a JSON array: a string or object would iterate its characters or keys."""
    if type(value) is not list:
        raise TypeError(f"expected an array, got {_quote(value)}")
    return value


def _quote(value) -> str:
    """``value`` as JSON for an error line: at most 60 characters, then
    ``...``.  The encoder runs lazily, so a long or deeply nested value
    costs no more than the characters kept."""
    text = ""
    for chunk in json.JSONEncoder().iterencode(value):
        text += chunk
        if len(text) > 60:
            return text[:60] + "..."
    return text


def _size(doc: dict, key: str) -> int:
    value = doc[key]
    # bool is an int subclass, and int() would truncate 1.9 to 1
    if type(value) is not int or value < 0:
        raise FormatError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _load(text: str, kind: str) -> dict:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise FormatError(f"expected a {kind} document")
    # true == 1 and 1.0 == 1 in Python, but neither is the integer 1
    if type(schema := doc.get("schema")) is not int or schema != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema {schema!r}")
    return doc


# -- replies ------------------------------------------------------------------


def error_reply(exc: Exception, status: int) -> tuple:
    """The reply of an error: no document, and its message as the text."""
    return None, str(exc), status


def rank_reply(value: int) -> tuple:
    return {"kind": "rank", "value": value}, f"{value}\n", EXIT_OK


def triangular_rank_reply(value: int) -> tuple:
    return {"kind": "triangular_rank", "value": value}, f"{value}\n", EXIT_OK


def _undecided(lower: int, upper: int) -> str:
    return f"unknown, bounds [{lower},{upper}]"


def boolean_rank_reply(lower: int, upper: int) -> tuple:
    """The reply of a proven boolean-rank interval: a value when its ends meet."""
    if lower < upper:
        doc = {"kind": "boolean_rank", "value": None, "bounds": [lower, upper]}
        return doc, _undecided(lower, upper) + "\n", EXIT_EXHAUSTED
    return {"kind": "boolean_rank", "value": lower}, f"{lower}\n", EXIT_OK


def bound_report_reply(r: BoundReport, identity: str) -> tuple:
    """The reply of ``bounds``; ``identity`` names the matrix."""
    brank, bounds, dims = r.boolean_rank, r.boolean_rank_bounds, list(r.embedding_dim_bounds)
    doc = {
        "kind": "bound_report",
        "matrix": identity,
        "rank": {"value": r.rank, "via": "fraction-free elimination"},
        "triangular_rank": {"value": r.triangular_rank, "via": "triangular_rank branch and bound"},
        "boolean_rank": {"value": brank, "bounds": bounds and list(bounds),
                         "via": r.boolean_rank_source},
        "embedding_dim_bounds": {"value": dims, "via": "embrkl_bounds (triangular rank / rank)"},
        "psd_rank_lower_bound": {"value": r.psd_lower_bound, "via": r.psd_lower_bound_source},
    }
    text = (f"matrix:               {identity}\n"
            f"rank:                 {r.rank}\n"
            f"triangular rank:      {r.triangular_rank}\n"
            f"boolean rank:         {_undecided(*bounds) if brank is None else brank}\n"
            f"embedding dimension:  between {dims[0]} and {dims[1]}\n"
            f"psd rank lower bound: {r.psd_lower_bound} (via {r.psd_lower_bound_source})\n")
    return doc, text, EXIT_OK


def embedding_reply(e: SubspaceEmbedding) -> tuple:
    return embedding_doc(e), None, EXIT_OK


def factorization_reply(f: PsdFactorization, t: ExactMatrix) -> tuple:
    """The reply of ``psd from-embedding``: the factorization and its T."""
    return {**factorization_doc(f), "T": matrix_rows(t)}, None, EXIT_OK


def _verdict(doc: dict, failure: str = "") -> tuple:
    """The reply of a check: ``pass``, or ``FAIL`` and what failed."""
    if doc["passed"]:
        return doc, "pass\n", EXIT_OK
    return doc, f"FAIL{failure}\n", EXIT_VERIFICATION


def factorization_check_reply(report: FactorizationReport) -> tuple:
    """The reply of ``verify psd``; trace mismatches count from 1."""
    doc = {"kind": "verification", "passed": report.passed, "psd_ok": report.psd_ok,
           "trace_mismatches": [[k + 1, l + 1] for k, l in report.mismatches]}
    return _verdict(doc, "" if report.passed else f": {report.summary()}")


def embedding_check_reply(passed: bool) -> tuple:
    return _verdict({"kind": "verification", "passed": passed})


def matrix_reply(m: ExactMatrix) -> tuple:
    doc = {"kind": "matrix", "rows": m.rows, "cols": m.cols, "entries": matrix_rows(m)}
    return doc, format_matrix(m), EXIT_OK


def graph_reply(g: BipartiteGraph) -> tuple:
    doc = {"kind": "graph", "left": g.left_count, "right": g.right_count, "adj": _neighbors(g)}
    return doc, format_graph(g), EXIT_OK


def sqrt_rank_reply(result: SqrtRankResult) -> tuple:
    doc = {"kind": "sqrt_bound", "min_rank": result.min_rank,
           "assignments_checked": result.assignments_checked,
           "witness": sign_assignment_doc(result.witness)}
    text = f"minimum rank {result.min_rank} over {result.assignments_checked} sign assignments\n"
    return doc, text, EXIT_OK


def certificate_reply(cert: Order3Certificate) -> tuple:
    doc = certificate_doc(cert)
    if not cert.conclusive:
        return doc, f"inconclusive: {cert.reason}\n", EXIT_VERIFICATION
    text = (f"psd rank >= {cert.bound}: rows {doc['rows']} x cols {doc['cols']}, all "
            f"{cert.assignments_checked} sign assignments have rank >= 4\n")
    return doc, text, EXIT_OK


def reduction_reply(report: FactorReductionReport) -> tuple:
    doc = {"kind": "rank_reduction", "a_ranks": list(report.a_ranks),
           "b_ranks": list(report.b_ranks), "max_residual": report.max_residual,
           "min_eigenvalue": report.min_eigenvalue}
    text = (f"A ranks {doc['a_ranks']}, B ranks {doc['b_ranks']}, max residual "
            f"{report.max_residual:.2e}, min eigenvalue {report.min_eigenvalue:.2e}\n")
    return doc, text, EXIT_OK


def appendix_check_reply(result: AppendixCheckResult) -> tuple:
    doc = {"kind": "appendix_check", "passed": result.ok, "pairs_checked": result.pairs_checked,
           "ground_size": result.ground_size, "subset_size": result.subset_size}
    text = (f"{'pass' if result.ok else 'FAIL'}: {result.pairs_checked} pairs, "
            f"N={result.ground_size}, l={result.subset_size}\n")
    return doc, text, EXIT_OK if result.ok else EXIT_VERIFICATION
