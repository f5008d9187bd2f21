"""Command-line front end.

Matrices and patterns travel in the shared text format (stdin by default),
embeddings/factorizations/certificates as JSON documents.  Each command
returns the ``formats`` reply of one library call, and ``run`` writes it:
the JSON document with ``--json``, else the text.  ``embed`` and ``psd
from-embedding`` have no text form and write JSON either way.  ``run`` also
writes every error, as one ``error:`` line on stderr.  Exit status: 0 ok,
1 verification failure or inconclusive certificate, 2 usage error,
3 retry cap exhausted, or a cover search cut or refused with the boolean
rank still undecided (``boolrank`` prints its proven interval), 141 stdout
closed by its reader before the reply was written (as if killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys

from . import DEFAULT_BUDGET, formats

# A launch pays only for its own command: `run` builds the parser of that
# command alone, and each handler imports the layers its command runs, so a
# launch compiles only those modules.  `rank` loads no search and no
# subspace algebra, which lives in `psd` with the certify chain.  `main`
# then exits without the interpreter's shutdown collection: it freezes the
# collector once the reply is written, since what the launch loaded is freed
# by the OS anyway.


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _matrix(path: str):
    return formats.parse_matrix(_read(path))


def _index_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
    if any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("indices are 1-based")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise argparse.ArgumentTypeError(f"index {repeated[0]} is repeated")
    return values


def _with_input(p):
    p.add_argument("file", nargs="?", default="-", help="input file or - for stdin")
    return p


def _modes(sub, name, help):
    """The subcommands of a command that only groups them, as ``embed``."""
    return sub.add_parser(name, help=help).add_subparsers(dest="mode", required=True)


# Each builder below adds one top-level command to ``sub``; ``command(owner,
# name, handler, ...)`` adds a parser that also takes ``--json`` after the
# name, and whose ``handler(args)`` returns the command's ``formats`` reply.


def _rank(sub, command):
    def handler(args):
        from .linalg import rank
        return formats.rank_reply(rank(_matrix(args.file)))
    _with_input(command(sub, "rank", handler, help="exact rank of a matrix"))


def _trirank(sub, command):
    def handler(args):
        from .pattern import embrkl_bounds
        return formats.triangular_rank_reply(embrkl_bounds(_matrix(args.file))[0])
    _with_input(command(sub, "trirank", handler, help="triangular rank of the support"))


def _boolrank(sub, command):
    def handler(args):
        from .pattern import boolean_rank_outcome
        lower, upper, _ = boolean_rank_outcome(_matrix(args.file), args.budget)
        return formats.boolean_rank_reply(lower, upper)
    p = _with_input(command(sub, "boolrank", handler, help="boolean rank of the support"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node cap")


def _bounds(sub, command):
    def handler(args):
        from .pattern import analyze
        report = analyze(_matrix(args.file), budget=args.budget)
        return formats.bound_report_reply(report, "stdin" if args.file == "-" else args.file)
    p = _with_input(command(sub, "bounds", handler, help="full bound report"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def _embed(sub, command):
    def from_rank(args):
        from .psd import embedding_from_rank_factorization
        return formats.embedding_reply(embedding_from_rank_factorization(_matrix(args.file)))

    def from_psd(args):
        from .psd import embedding_from_psd
        fact = formats.factorization_from_json(_read(args.file))
        return formats.embedding_reply(embedding_from_psd(fact))
    modes = _modes(sub, "embed", "build embeddings")
    _with_input(command(modes, "from-rank", from_rank, help="embedding from a matrix"))
    _with_input(command(modes, "from-psd", from_psd, help="embedding from a factorization JSON"))


def _psd(sub, command):
    def from_embedding(args):
        from .psd import psd_from_embedding
        emb = formats.embedding_from_json(_read(args.file))
        return formats.factorization_reply(*psd_from_embedding(emb))
    modes = _modes(sub, "psd", "build psd factorizations")
    _with_input(command(modes, "from-embedding", from_embedding,
                        help="projection factorization of an embedding"))


def _verify(sub, command):
    def factorization(args):
        from .psd import verify_psd_factorization
        fact = formats.factorization_from_json(_read(args.factorization))
        report = verify_psd_factorization(fact, _matrix(args.matrix))
        return formats.factorization_check_reply(report)

    def embedding(args):
        from .psd import verify_embedding
        emb = formats.embedding_from_json(_read(args.embedding))
        pattern = formats.parse_pattern(_read(args.pattern))
        return formats.embedding_check_reply(verify_embedding(emb, pattern))
    modes = _modes(sub, "verify", "check certificates")
    p = command(modes, "psd", factorization, help="factorization against a matrix")
    p.add_argument("factorization", help="factorization JSON file")
    p.add_argument("matrix", help="matrix text file")
    p = command(modes, "embedding", embedding, help="embedding against a pattern")
    p.add_argument("embedding", help="embedding JSON file")
    p.add_argument("pattern", help="pattern text file")


def _realize_support(sub, command):
    def handler(args):
        from .psd import RealizationError, realize_support
        fact = formats.factorization_from_json(_read(args.file))
        try:
            m = realize_support(fact, seed=args.seed, max_tries=args.tries)
        except RealizationError as exc:
            return formats.error_reply(exc, formats.EXIT_EXHAUSTED)
        return formats.matrix_reply(m)
    p = _with_input(command(sub, "realize-support", handler,
                            help="rational matrix realizing the support"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=5)


_NO_SIGN_FIX_HELP = (
    "let the first sign be negative: assignments_checked then counts 2^z "
    "sign choices instead of 2^(z-1)"
)


def _sqrt_bound(sub, command):
    def handler(args):
        from .scalars import min_sqrt_rank
        matrix = _matrix(args.file)
        # checked here, so that the message quotes the 1-based index as typed
        for kind, idx, size in (("row", args.rows, matrix.rows),
                                ("column", args.cols, matrix.cols)):
            bad = [k for k in idx if k > size]
            if bad:
                raise ValueError(
                    f"{kind} index {bad[0]} outside the {matrix.rows}x{matrix.cols} matrix"
                )
        rows, cols = [k - 1 for k in args.rows], [l - 1 for l in args.cols]
        result = min_sqrt_rank(matrix, rows, cols, fix_global_sign=not args.no_sign_fix)
        return formats.sqrt_rank_reply(result)
    p = _with_input(command(sub, "sqrt-bound", handler,
                            help="minimum rank over entrywise square roots"))
    p.add_argument("--rows", type=_index_list, required=True, help="1-based, e.g. 3,4,5,6")
    p.add_argument("--cols", type=_index_list, required=True, help="1-based, e.g. 1,2,3,4")
    p.add_argument("--no-sign-fix", action="store_true", help=_NO_SIGN_FIX_HELP)


def _order3_exclude(sub, command):
    def handler(args):
        from .scalars import order3_exclusion
        cert = order3_exclusion(_matrix(args.file), fix_global_sign=not args.no_sign_fix)
        return formats.certificate_reply(cert)
    p = _with_input(command(sub, "order3-exclude", handler, help="psd rank >= 4 certificate"))
    p.add_argument("--no-sign-fix", action="store_true", help=_NO_SIGN_FIX_HELP)


def _reduce_rank(sub, command):
    def handler(args):
        # the only numpy command: exact commands start without loading it.
        # Its factors are small, so a BLAS thread pool costs more to start
        # than it saves; a value the caller set still wins.
        if "numpy" not in sys.modules:
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        # reduction is loaded before it imports numpy, which then reuses the
        # memory that loading freed: importing numpy first leaves
        # reduce-rank's peak RSS about 0.1 MiB higher
        try:
            from .reduction import ReductionError, reduce_factor_ranks
        except ImportError:  # numpy, its one dependency, is missing or broken
            raise ValueError("reduce-rank needs numpy (pip install psdbounds[float])") from None
        import numpy as np

        a_rows, b_rows, order = formats.float_factors_from_json(_read(args.file))
        a = [np.array(e).reshape(order, order) for e in a_rows]
        b = [np.array(e).reshape(order, order) for e in b_rows]
        try:
            return formats.reduction_reply(reduce_factor_ranks(a, b, tol=args.tol))
        except ReductionError as exc:
            return formats.error_reply(exc, formats.EXIT_VERIFICATION)
    p = _with_input(command(sub, "reduce-rank", handler, help="reduce factor ranks (floats)"))
    p.add_argument("--tol", type=float, default=1e-9)


def _gen(sub, command):
    def sn(args):
        from .cutpoly import generate_sn
        return formats.matrix_reply(generate_sn(args.n))

    def cutpoly(args):
        from .cutpoly import slack_matrix_cut_clique
        return formats.matrix_reply(slack_matrix_cut_clique(args.n))

    def disjointness(args):
        from .cutpoly import graph_H
        h, hbar = graph_H(args.n, args.l)
        return formats.graph_reply(h if args.which == "h" else hbar)
    modes = _modes(sub, "gen", "generators")
    p = command(modes, "sn", sn, help="the banded rank-3 family")
    p.add_argument("n", type=int)
    p = command(modes, "cutpoly", cutpoly, help="clique-inequality slack matrix of K_n")
    p.add_argument("n", type=int)
    p = command(modes, "disjointness", disjointness, help="disjointness graph on l-subsets")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("l", type=int, metavar="L")
    p.add_argument("--which", choices=["h", "hbar"], default="h",
                   help="h: disjoint pairs; hbar: unique-intersection pairs")


def _appendix_check(sub, command):
    def handler(args):
        from .cutpoly import appendix_reduction_check
        return formats.appendix_check_reply(appendix_reduction_check(args.n))
    p = command(sub, "appendix-check", handler, help="verify the cover reduction identity")
    p.add_argument("n", type=int)


# the builder of each top-level command, in the order of the parsers
_COMMANDS = {
    "rank": _rank, "trirank": _trirank, "boolrank": _boolrank, "bounds": _bounds,
    "embed": _embed, "psd": _psd, "verify": _verify, "realize-support": _realize_support,
    "sqrt-bound": _sqrt_bound, "order3-exclude": _order3_exclude,
    "reduce-rank": _reduce_rank, "gen": _gen, "appendix-check": _appendix_check,
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``only`` of that command alone.

    A parser of one command names them all in its ``{rank,...}`` metavar,
    so its usage reads as the full parser's.  ``run`` asks for it only
    when the first token is that command, so none of its errors names the
    command argument, which the metavar would rename.
    """
    parser = argparse.ArgumentParser(
        prog="psdbounds",
        description="Exact lower bounds on positive semidefinite and nonnegative rank.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    # the same flag is accepted after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    def command(owner, name, handler, **kw):
        p = owner.add_parser(name, parents=[common], **kw)
        p.set_defaults(handler=handler)
        return p

    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else [only]:
        _COMMANDS[name](sub, command)
    return parser


def run(argv) -> int:
    # the first token past any top-level --json names the command; any other
    # first token (an option, -h, a misspelt command) gets the full parser
    first = next((token for token in argv if token != "--json"), None)
    parser = _build_parser(first if first in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return formats.EXIT_USAGE if exc.code else formats.EXIT_OK
    try:
        doc, text, code = args.handler(args)
    except (ValueError, OSError) as exc:
        # precondition violations and unreadable inputs are usage errors
        doc, text, code = formats.error_reply(exc, formats.EXIT_USAGE)
    if doc is None:
        print(f"error: {text}", file=sys.stderr)
    else:
        sys.stdout.write(formats.dump(doc) if args.json or text is None else text)
    return code


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # unbuffered (`python -u`, PYTHONUNBUFFERED): the text layer ignores
        # a short write into a pipe its reader closed, so write through a
        # buffer, which writes the whole reply or raises BrokenPipeError
        sys.stdout = open(
            sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
            errors=sys.stdout.errors, closefd=False,
        )
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): end silently, and point stdout
        # at devnull so that the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = formats.EXIT_BROKEN_PIPE
    # frozen, the shutdown collections skip every object the launch loaded
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
