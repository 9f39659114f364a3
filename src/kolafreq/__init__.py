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
proves (`certified_fit`, `semi_rigorous_bound`).
"""

from .automaton import (
    AvoidanceAutomaton,
    DegreeProfile,
    EmptyLanguageError,
    TooLargeError,
    build_automaton,
    degree_profile,
    enumerate_brute,
    weight_poly_dp,
)
from .avoided import (
    AvoidSet,
    CollisionError,
    NotFactorFreeError,
    avoided_set,
    expand,
    read_word_file,
    verify_factor_free,
)
from .bounds import (
    Bound,
    DegenerateDenominatorError,
    best_bound,
    bound_from_denominator,
    bound_from_term,
    maxratio,
    minratio,
)
from .cluster import (
    ComputationCancelled,
    overlap_suffix_lengths,
    series_from_gf,
    weight_gf,
    weight_series,
)
from .polynomials import (
    InexactDivisionError,
    RationalGF,
    Series,
    WeightPoly,
)
from .quasipoly import (
    MaximaReport,
    QuasiPolyFit,
    certified_fit,
    semi_rigorous_bound,
    successive_maxima,
)
from .words import (
    kolakoski_pieces,
    kolakoski_prefix,
    run_lengths,
    swap_letters,
)

__version__ = "0.1.0"

__all__ = [
    "AvoidSet",
    "AvoidanceAutomaton",
    "Bound",
    "CollisionError",
    "ComputationCancelled",
    "DegenerateDenominatorError",
    "DegreeProfile",
    "EmptyLanguageError",
    "InexactDivisionError",
    "MaximaReport",
    "NotFactorFreeError",
    "QuasiPolyFit",
    "RationalGF",
    "Series",
    "TooLargeError",
    "WeightPoly",
    "avoided_set",
    "best_bound",
    "bound_from_denominator",
    "bound_from_term",
    "build_automaton",
    "certified_fit",
    "degree_profile",
    "enumerate_brute",
    "expand",
    "kolakoski_pieces",
    "kolakoski_prefix",
    "maxratio",
    "minratio",
    "overlap_suffix_lengths",
    "read_word_file",
    "run_lengths",
    "semi_rigorous_bound",
    "series_from_gf",
    "successive_maxima",
    "swap_letters",
    "verify_factor_free",
    "weight_gf",
    "weight_poly_dp",
    "weight_series",
]
