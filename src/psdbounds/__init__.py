"""Exact lower bounds for positive semidefinite and nonnegative rank.

The package computes and certifies, in exact arithmetic:

* exact rational matrices and their ranks (`linalg`, which every command
  loads);
* support patterns, triangular rank, the embedding-dimension interval
  `embrkl_bounds`, exact biclique covers, and the bound report `analyze`
  (`pattern`);
* the certify chain: canonical subspaces over Q with their kernels,
  images and projections, subspace-lattice embeddings of a support,
  conversions between rank factorizations, embeddings and psd
  factorizations, psd factorization certificates and randomized support
  realization (`psd`);
* beyond the pattern: multi-quadratic extension scalars for entrywise
  square roots, matrix rank over those fields, the square-root sign
  enumeration and the order-3 exclusion certificate (`scalars`);
* floating-point psd rank reduction along constraint-preserving
  directions (`reduction`, which needs numpy);
* the generators: cut/clique slack matrices, disjointness graphs and the
  S_n family (`cutpoly`).

The namespace is lazy (PEP 562): ``import psdbounds`` loads no submodule,
and each name below loads its defining module on first use.  So a command
that needs only `linalg` never compiles the searches, and numpy is
imported only when a `reduction` name is used.

The result types and the exact value types (`ExactMatrix`,
`SupportPattern`, `Subspace`) are frozen value records made by the private
decorator `_frozen`, not by `dataclasses`, which would load `inspect` and
`ast` at every launch and ``exec`` generated methods for each class.
"""

from importlib import import_module
from operator import attrgetter

__version__ = "0.1.0"


def _frozen(cls):
    """Make ``cls`` an immutable value record, as ``dataclass(frozen=True)`` does.

    The fields are the class annotations in order, and a class-level value is
    that field's default.  ``__init__`` takes the fields by position or
    keyword, then runs ``__post_init__`` if the class has one (which may
    rewrite a field with ``object.__setattr__``).  Instances refuse
    assignment and deletion, equal and hash as the tuple of their fields
    within one class, print as ``Name(field=value, ...)`` unless the class
    defines its own ``__repr__`` (the exact value types do), and copy and
    pickle through their ``__dict__``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = {**defaults, **kwargs, **dict(zip(names, args))}
            twice = kwargs.keys() & names[: len(args)]
            if len(args) > len(names) or twice or values.keys() != set(names):
                raise TypeError(f"{cls.__qualname__}() takes the fields {names}")
            args = [values[name] for name in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def refuse(self, name, *value):
        raise AttributeError(f"{cls.__qualname__} is frozen: cannot set or delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{cls.__qualname__}({fields})"

    cls.__init__, cls.__eq__ = __init__, __eq__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


# node budget of every exact search unless a caller gives one; it lives here
# so that the CLI's parser reads it without loading `pattern`
DEFAULT_BUDGET = 2_000_000

# defining module -> the public names it exports through the package
_EXPORTS = {
    "cutpoly": (
        "AppendixCheckResult", "Clique", "Cut", "all_cliques", "all_cuts",
        "appendix_reduction_check", "cut_clique_slack", "generate_sn", "graph_G",
        "graph_H", "iter_slack_rows", "slack_matrix_cut_clique",
    ),
    "linalg": ("ExactMatrix", "rank"),
    "pattern": (
        "Biclique", "BicliqueCover", "BipartiteGraph", "BoundReport", "CoverSearchResult",
        "SearchBudgetExceeded", "SupportPattern", "analyze", "boolean_rank",
        "embrkl_bounds", "feasible_biclique_cover", "minimum_biclique_cover",
        "minimum_feasible_cover", "poset_of", "support", "triangular_rank",
    ),
    "psd": (
        "FactorizationReport", "PsdCertificate", "PsdFactorization", "RealizationError",
        "Subspace", "SubspaceEmbedding", "embedding_from_psd",
        "embedding_from_rank_factorization", "image", "kernel",
        "projection_matrix", "psd_certificate", "psd_from_embedding", "realize_support",
        "verify_embedding", "verify_psd_factorization",
    ),
    "reduction": (
        "FactorReductionReport", "FloatPsdMatrix", "ReductionError",
        "barvinok_reduce", "factorization_to_float", "reduce_factor_ranks",
    ),
    "scalars": (
        "MultiQuadScalar", "Order3Certificate", "SignAssignment", "SqrtRankResult",
        "min_sqrt_rank", "multiquad_rank", "order3_exclusion", "sqrt_embed",
        "squarefree_decompose",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# A star import binds what it bound when the package loaded every layer:
# the exact layers and their names.  `reduction` stays out, so that a star
# import needs no numpy.
_EXACT = [module for module in _EXPORTS if module != "reduction"]
__all__ = sorted([*_EXACT, *(name for module in _EXACT for name in _EXPORTS[module])])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as in ``psdbounds.pattern.analyze``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
