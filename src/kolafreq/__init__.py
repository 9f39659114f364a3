"""Exact bounds on the limiting frequency of 1 in the Kolakoski word.

The pipeline: generate sets of words the Kolakoski word avoids
(`avoided_set`), enumerate the words avoiding them with the Goulden-Jackson
cluster method (`weight_gf`, `weight_series`) or an avoidance automaton
(`degree_profile` for the per-length extreme ones-counts, with the exact
eventual period of the fewest ones as `DegreeProfile.certificate`;
`weight_poly_dp` for the series slices 0..N in one counting pass), read a
profile off a series (`DegreeProfile.from_series`), turn the results into
exact rational bounds (`bound_from_denominator`, `best_bound`), and sharpen
them with the eventual quasi-polynomial structure that the certificate
proves (`certified_fit` and its `QuasiPolyFit.bound`).

Submodules load on first use: `import kolafreq` imports none of them, and
the first read of a public name imports only the submodule that defines it
(a PEP 562 module `__getattr__`), so a command compiles only what it runs.
"""

from importlib import import_module
from operator import attrgetter

__version__ = "0.1.0"

# Home submodule -> the public names it defines.
_EXPORTS = {
    "automaton": (
        "AvoidanceAutomaton", "build_automaton", "degree_profile",
        "enumerate_brute", "weight_poly_dp",
    ),
    "avoided": (
        "AvoidSet", "CollisionError", "EmptyLanguageError", "NotFactorFreeError",
        "avoided_set", "expand", "read_word_file", "verify_factor_free",
    ),
    "bounds": (
        "Bound", "DegenerateDenominatorError", "DegreeProfile", "best_bound",
        "bound_from_denominator", "bound_from_term", "maxratio", "minratio",
    ),
    "cluster": (
        "ComputationCancelled", "series_from_gf", "weight_gf", "weight_series",
    ),
    "polynomials": ("InexactDivisionError", "RationalGF", "Series", "WeightPoly"),
    "quasipoly": ("MaximaReport", "QuasiPolyFit", "certified_fit", "successive_maxima"),
    "words": ("kolakoski_pieces", "kolakoski_prefix", "run_lengths", "swap_letters"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the home submodule of a public name and cache the name here."""
    home = _HOMES.get(name)
    if home is None:  # `hasattr` and `from kolafreq import <submodule>` rely on this
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def record(cls=None, /, *, uncompared=(), unshown=()):
    """Class decorator: the methods `dataclasses.dataclass(frozen=True)` writes,
    as closures, so no command imports `dataclasses`.  The fields are the
    annotations not spelled `ClassVar[...]`, with class attributes as their
    defaults; equality and hash skip `uncompared`, the repr `unshown`."""
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared, unshown=unshown)
    names = tuple(n for n, kind in cls.__annotations__.items() if not kind.startswith("ClassVar"))
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    key = attrgetter(*(n for n in names if n not in uncompared))

    def __init__(self, *args, **kwargs):
        got = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or got.keys() != set(names) or kwargs.keys() & names[:len(args)]:
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        for n in names:
            object.__setattr__(self, n, got[n])
        post_init(self)

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, refuse, refuse
    cls.__eq__ = lambda self, other: (
        key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented)
    cls.__hash__ = lambda self: hash(key(self))
    cls.__repr__ = lambda self: "{}({})".format(cls.__qualname__, ", ".join(
        f"{n}={getattr(self, n)!r}" for n in names if n not in unshown))
    return cls
