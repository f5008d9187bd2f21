"""Command-line front end.

Matrices and patterns travel in the shared text format (stdin by default),
embeddings/factorizations/certificates as JSON documents; ``--json``
switches every command to machine-readable output.  Exit status: 0 ok,
1 verification failure or inconclusive certificate, 2 usage error,
3 retry cap exhausted, or a cover search cut or refused with the boolean
rank still undecided (``boolrank`` prints its proven interval).
"""

from __future__ import annotations

import argparse
import sys

from . import DEFAULT_BUDGET, formats

# Each command imports the layers it runs, inside its branch of _dispatch:
# a launch then compiles only those modules, and `rank` loads no search.

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(doc: dict, human: str, as_json: bool):
    if as_json:
        print(formats.dump(doc), end="")
    else:
        print(human)


def _index_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("indices are 1-based")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdbounds",
        description="Exact lower bounds on positive semidefinite and nonnegative rank.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    # the same flag is accepted after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(owner, name, **kw):
        return owner.add_parser(name, parents=[common], **kw)

    def with_input(p):
        p.add_argument("file", nargs="?", default="-", help="input file or - for stdin")
        return p

    with_input(command(sub, "rank", help="exact rank of a matrix"))
    with_input(command(sub, "trirank", help="triangular rank of the support"))
    p = with_input(command(sub, "boolrank", help="boolean rank of the support"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node cap")
    p = with_input(command(sub, "bounds", help="full bound report"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_embed = sub.add_parser("embed", help="build embeddings")
    embed_sub = p_embed.add_subparsers(dest="mode", required=True)
    with_input(command(embed_sub, "from-rank", help="embedding from a matrix"))
    with_input(command(embed_sub, "from-psd", help="embedding from a factorization JSON"))

    p_psd = sub.add_parser("psd", help="build psd factorizations")
    psd_sub = p_psd.add_subparsers(dest="mode", required=True)
    with_input(
        command(psd_sub, "from-embedding", help="projection factorization of an embedding")
    )

    p_verify = sub.add_parser("verify", help="check certificates")
    verify_sub = p_verify.add_subparsers(dest="mode", required=True)
    p = command(verify_sub, "psd", help="factorization against a matrix")
    p.add_argument("factorization", help="factorization JSON file")
    p.add_argument("matrix", help="matrix text file")
    p = command(verify_sub, "embedding", help="embedding against a pattern")
    p.add_argument("embedding", help="embedding JSON file")
    p.add_argument("pattern", help="pattern text file")

    p = with_input(
        command(sub, "realize-support", help="rational matrix realizing the support")
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=5)

    p = with_input(
        command(sub, "sqrt-bound", help="minimum rank over entrywise square roots")
    )
    p.add_argument("--rows", type=_index_list, required=True, help="1-based, e.g. 3,4,5,6")
    p.add_argument("--cols", type=_index_list, required=True, help="1-based, e.g. 1,2,3,4")
    p.add_argument("--no-sign-fix", action="store_true", help="enumerate all 2^z signs")

    p = with_input(command(sub, "order3-exclude", help="psd rank >= 4 certificate"))
    p.add_argument("--no-sign-fix", action="store_true")

    p = with_input(command(sub, "reduce-rank", help="reduce factor ranks (floats)"))
    p.add_argument("--tol", type=float, default=1e-9)

    p_gen = sub.add_parser("gen", help="generators")
    gen_sub = p_gen.add_subparsers(dest="mode", required=True)
    p = command(gen_sub, "sn", help="the banded rank-3 family")
    p.add_argument("n", type=int)
    p = command(gen_sub, "cutpoly", help="clique-inequality slack matrix of K_n")
    p.add_argument("n", type=int)
    p = command(gen_sub, "disjointness", help="disjointness graph on l-subsets")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("l", type=int, metavar="L")
    p.add_argument(
        "--which",
        choices=["h", "hbar"],
        default="h",
        help="h: disjoint pairs; hbar: unique-intersection pairs",
    )

    p = command(sub, "appendix-check", help="verify the cover reduction identity")
    p.add_argument("n", type=int)
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        # precondition violations and unreadable inputs are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "rank":
        from .linalg import rank

        value = rank(formats.parse_matrix(_read(args.file)))
        _emit({"kind": "rank", "value": value}, str(value), args.json)
        return EXIT_OK

    if cmd == "trirank":
        from .pattern import embrkl_bounds

        value, _ = embrkl_bounds(formats.parse_matrix(_read(args.file)))
        _emit({"kind": "triangular_rank", "value": value}, str(value), args.json)
        return EXIT_OK

    if cmd == "boolrank":
        from .pattern import EnumerationTooLarge, SearchBudgetExceeded, boolean_rank
        from .pattern import boolean_rank_interval, embrkl_bounds, support

        matrix = formats.parse_matrix(_read(args.file))
        pat = support(matrix)
        try:
            value = boolean_rank(pat, budget=args.budget)
        except (SearchBudgetExceeded, EnumerationTooLarge) as exc:
            # the interval `bounds` reports; only it needs the triangular rank
            tri, _ = embrkl_bounds(matrix)
            lower, upper, _ = boolean_rank_interval(pat, exc, tri)
            if lower < upper:
                _emit(
                    {"kind": "boolean_rank", "value": None, "bounds": [lower, upper]},
                    f"unknown, bounds [{lower},{upper}]",
                    args.json,
                )
                return EXIT_EXHAUSTED
            value = lower
        _emit({"kind": "boolean_rank", "value": value}, str(value), args.json)
        return EXIT_OK

    if cmd == "bounds":
        from .embed import analyze

        report = analyze(formats.parse_matrix(_read(args.file)), budget=args.budget)
        identity = args.file if args.file != "-" else "stdin"
        _emit(report.to_doc(identity), report.to_text(identity), args.json)
        return EXIT_OK

    if cmd == "embed" and args.mode == "from-rank":
        from .embed import embedding_from_rank_factorization

        emb = embedding_from_rank_factorization(formats.parse_matrix(_read(args.file)))
        print(formats.embedding_to_json(emb), end="")
        return EXIT_OK

    if cmd == "embed" and args.mode == "from-psd":
        from .embed import embedding_from_psd

        fact = formats.factorization_from_json(_read(args.file))
        emb = embedding_from_psd(fact)
        print(formats.embedding_to_json(emb), end="")
        return EXIT_OK

    if cmd == "psd" and args.mode == "from-embedding":
        from .embed import psd_from_embedding

        emb = formats.embedding_from_json(_read(args.file))
        fact, t = psd_from_embedding(emb)
        doc = formats.factorization_doc(fact)
        doc["T"] = [[str(v) for v in t.row(i)] for i in range(t.rows)]
        print(formats.dump(doc), end="")
        return EXIT_OK

    if cmd == "verify" and args.mode == "psd":
        from .psd import verify_psd_factorization

        fact = formats.factorization_from_json(_read(args.factorization))
        matrix = formats.parse_matrix(_read(args.matrix))
        report = verify_psd_factorization(fact, matrix)
        doc = {
            "kind": "verification",
            "passed": report.passed,
            "psd_ok": report.psd_ok,
            "trace_mismatches": [[k + 1, l + 1] for k, l in report.mismatches],
        }
        _emit(doc, "pass" if report.passed else f"FAIL: {report.summary()}", args.json)
        return EXIT_OK if report.passed else EXIT_VERIFICATION

    if cmd == "verify" and args.mode == "embedding":
        from .embed import verify_embedding

        emb = formats.embedding_from_json(_read(args.embedding))
        pat = formats.parse_pattern(_read(args.pattern))
        ok = verify_embedding(emb, pat)
        _emit({"kind": "verification", "passed": ok}, "pass" if ok else "FAIL", args.json)
        return EXIT_OK if ok else EXIT_VERIFICATION

    if cmd == "realize-support":
        from .psd import RealizationError, realize_support

        fact = formats.factorization_from_json(_read(args.file))
        try:
            t = realize_support(fact, seed=args.seed, max_tries=args.tries)
        except RealizationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EXHAUSTED
        _print_matrix(t, args.json)
        return EXIT_OK

    if cmd == "sqrt-bound":
        from .psd import min_sqrt_rank

        matrix = formats.parse_matrix(_read(args.file))
        rows = [k - 1 for k in args.rows]
        cols = [l - 1 for l in args.cols]
        result = min_sqrt_rank(
            matrix, rows, cols, fix_global_sign=not args.no_sign_fix
        )
        doc = {
            "kind": "sqrt_bound",
            "min_rank": result.min_rank,
            "assignments_checked": result.assignments_checked,
            "witness": formats.sign_assignment_doc(result.witness),
        }
        human = (
            f"minimum rank {result.min_rank} over "
            f"{result.assignments_checked} sign assignments"
        )
        _emit(doc, human, args.json)
        return EXIT_OK

    if cmd == "order3-exclude":
        from .psd import order3_exclusion

        matrix = formats.parse_matrix(_read(args.file))
        cert = order3_exclusion(matrix, fix_global_sign=not args.no_sign_fix)
        if args.json:
            print(formats.certificate_to_json(cert), end="")
        elif cert.conclusive:
            print(
                f"psd rank >= {cert.bound}: rows {[k + 1 for k in cert.rows]} x "
                f"cols {[l + 1 for l in cert.cols]}, all "
                f"{cert.assignments_checked} sign assignments have rank >= 4"
            )
        else:
            print(f"inconclusive: {cert.reason}")
        return EXIT_OK if cert.conclusive else EXIT_VERIFICATION

    if cmd == "reduce-rank":
        # the only numpy command: exact commands start without loading it
        try:
            import numpy as np
        except ImportError:
            raise ValueError(
                "reduce-rank needs numpy (pip install psdbounds[float])"
            ) from None

        from .reduction import ReductionError, reduce_factor_ranks

        a_rows, b_rows, order = formats.float_factors_from_json(_read(args.file))
        a = [np.array(e).reshape(order, order) for e in a_rows]
        b = [np.array(e).reshape(order, order) for e in b_rows]
        try:
            report = reduce_factor_ranks(a, b, tol=args.tol)
        except ReductionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        doc = {
            "kind": "rank_reduction",
            "a_ranks": list(report.a_ranks),
            "b_ranks": list(report.b_ranks),
            "max_residual": report.max_residual,
            "min_eigenvalue": report.min_eigenvalue,
        }
        human = (
            f"A ranks {list(report.a_ranks)}, B ranks {list(report.b_ranks)}, "
            f"max residual {report.max_residual:.2e}, "
            f"min eigenvalue {report.min_eigenvalue:.2e}"
        )
        _emit(doc, human, args.json)
        return EXIT_OK

    if cmd == "gen":
        return _cmd_gen(args)

    if cmd == "appendix-check":
        from .cutpoly import appendix_reduction_check

        result = appendix_reduction_check(args.n)
        doc = {
            "kind": "appendix_check",
            "passed": result.ok,
            "pairs_checked": result.pairs_checked,
            "ground_size": result.ground_size,
            "subset_size": result.subset_size,
        }
        human = (
            f"{'pass' if result.ok else 'FAIL'}: {result.pairs_checked} pairs, "
            f"N={result.ground_size}, l={result.subset_size}"
        )
        _emit(doc, human, args.json)
        return EXIT_OK if result.ok else EXIT_VERIFICATION

    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


def _print_matrix(m, as_json: bool) -> None:
    if as_json:
        entries = [[str(v) for v in m.row(i)] for i in range(m.rows)]
        doc = {"kind": "matrix", "rows": m.rows, "cols": m.cols, "entries": entries}
        _emit(doc, "", True)
    else:
        print(formats.format_matrix(m), end="")


def _cmd_gen(args) -> int:
    if args.mode == "sn":
        from .psd import generate_sn

        _print_matrix(generate_sn(args.n), args.json)
        return EXIT_OK
    if args.mode == "cutpoly":
        from .cutpoly import slack_matrix_cut_clique

        _print_matrix(slack_matrix_cut_clique(args.n), args.json)
        return EXIT_OK
    if args.mode == "disjointness":
        from .cutpoly import graph_H

        h, hbar = graph_H(args.n, args.l)
        g = h if args.which == "h" else hbar
        if args.json:
            doc = {
                "kind": "graph",
                "left": g.left_count,
                "right": g.right_count,
                "adj": [
                    [v + 1 for v in range(g.right_count) if g.has_edge(u, v)]
                    for u in range(g.left_count)
                ],
            }
            _emit(doc, "", True)
        else:
            print(formats.format_graph(g), end="")
        return EXIT_OK
    raise AssertionError(f"unhandled gen mode {args.mode}")  # pragma: no cover


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
