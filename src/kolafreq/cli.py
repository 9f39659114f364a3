"""Command-line front end.

Subcommands: kolakoski, avoided, gf, series, profile, bounds, quasifit,
report, verify.  Results go to standard output, progress to standard error.
Exit codes: 0 success, 1 verification failure, 2 usage error or malformed
input.

Each command imports what it runs at the top of its body, so a command
compiles and executes only the modules on its path.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .bounds import DegreeProfile
    from .polynomials import RationalGF, Series

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolafreq",
        description="Bounds on the limiting frequency of 1 in the Kolakoski word.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kolakoski", help="print a prefix of the Kolakoski word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--first", type=int, choices=(1, 2), default=2)

    p = sub.add_parser("avoided", help="print the avoided words of levels 1..d")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("gf", help="closed-form weight enumerator for a word set")
    p.add_argument("--words", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("series", help="truncated weight series for a word set")
    p.add_argument("--words", required=True, metavar="FILE")
    p.add_argument("--terms", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("profile", help="per-length min/max ones-counts")
    p.add_argument("--words", required=True, metavar="FILE")
    p.add_argument("--terms", type=int, required=True, metavar="N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument("--csv", action="store_true", help="emit CSV")

    p = sub.add_parser("bounds", help="frequency bound for a word set")
    p.add_argument("--words", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gf", action="store_true",
                       help="bound from the denominator (default)")
    group.add_argument("--profile-terms", type=int, metavar="N",
                       help="best per-term bound over a length-N profile")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("quasifit", help="certified quasi-polynomial of the fewest ones")
    p.add_argument("--words", required=True, metavar="FILE")
    p.add_argument("--terms", type=int, required=True, metavar="N")

    p = sub.add_parser("report", help="reproduce the per-depth results table")
    p.add_argument("--d", default="1-6", metavar="SPEC",
                   help="depths, e.g. 3, 1-4, or 1,3,5 (default 1-6)")
    p.add_argument("--terms", default=None, metavar="LIST",
                   help="comma list of N per depth (default: table values)")
    p.add_argument("--backend", choices=("automaton", "gj-series"),
                   default="automaton")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument("--csv", action="store_true", help="emit CSV")

    p = sub.add_parser("verify", help="run the ten checks of the verification suite")
    p.add_argument("--level", choices=("full",), default="full",
                   help="the one suite; the flag is kept for scripts that pass it")

    return parser


def _parse_depths(spec: str) -> list[int]:
    """Depths from parts such as 3 or 1-4, joined by commas; each is at least 1."""
    depths: list[int] = []
    for part in spec.split(","):
        lo, dash, hi = part.partition("-")
        try:
            span = range(int(lo), int(hi if dash else lo) + 1)
        except ValueError:
            span = range(0)
        if not span or span[0] < 1:
            raise ValueError(f"bad depth spec {spec!r}")
        depths.extend(span)
    return depths


def _poly_json(poly) -> list[list]:
    return [[a, b, str(c)] for (a, b), c in poly.sorted_terms()]


def _series_json(series: Series) -> list[list[list]]:
    out = []
    for n, row in enumerate(series.slices):
        out.append([[a, n - a, str(c)] for a, c in enumerate(row) if c])
    return out


def _progress_printer(label: str):
    """A progress hook printing about 20 lines per count, the last step included."""
    last = 0

    def hook(done: int, total: int) -> None:
        nonlocal last
        if done < last:  # weight_gf restarts at its next packing, weight_series at its next width
            print(f"{label}: packing failed its proof, retrying", file=sys.stderr)
        last = done
        if total and (done % -(-total // 20) == 0 or done == total):
            print(f"{label}: {done}/{total}", file=sys.stderr)

    return hook


def cmd_kolakoski(args) -> int:
    from itertools import islice

    from .words import kolakoski_pieces

    pieces = kolakoski_pieces(args.n, args.first)
    for batch in iter(lambda: "".join(islice(pieces, 4096)), ""):  # ~200 000 letters
        sys.stdout.write(batch)
    print()
    return EXIT_OK


def cmd_avoided(args) -> int:
    from .avoided import avoided_set

    for word in avoided_set(args.d).words:
        print(word)
    return EXIT_OK


def _gf(words) -> RationalGF:
    """weight_gf, with progress on stderr for sets of 30 words (S_4) or more."""
    from .cluster import weight_gf

    return weight_gf(words, progress=_progress_printer("gf") if len(words) >= 30 else None)


def cmd_gf(args) -> int:
    import json

    from .avoided import read_word_file

    gf = _gf(read_word_file(args.words))
    if args.json:
        print(json.dumps(
            {"numerator": _poly_json(gf.numerator),
             "denominator": _poly_json(gf.denominator)}))
    else:
        print(f"numerator   = {gf.numerator}")
        print(f"denominator = {gf.denominator}")
    return EXIT_OK


def cmd_series(args) -> int:
    import json

    from .avoided import read_word_file
    from .cluster import weight_series

    series = weight_series(
        read_word_file(args.words), args.terms,
        progress=_progress_printer("series") if args.terms >= 200 else None,
    )
    if args.json:
        print(json.dumps(_series_json(series)))
    else:
        for n in range(series.order + 1):
            print(f"t^{n}: {series.poly(n)}")
    return EXIT_OK


def _print_profile(profile: DegreeProfile, as_json: bool, as_csv: bool) -> None:
    import json

    if as_json:
        print(json.dumps({
            "N": profile.N,
            "min_ones": list(profile.min_ones),
            "max_ones": list(profile.max_ones),
        }))
    elif as_csv:
        print("n,min_ones,max_ones")
        for n in range(profile.N + 1):
            print(f"{n},{profile.min_ones[n]},{profile.max_ones[n]}")
    else:
        for n in range(profile.N + 1):
            print(f"n={n}: min_ones={profile.min_ones[n]} max_ones={profile.max_ones[n]}")


def cmd_profile(args) -> int:
    from .automaton import degree_profile
    from .avoided import read_word_file

    profile = degree_profile(read_word_file(args.words), args.terms)
    _print_profile(profile, args.json, args.csv)
    return EXIT_OK


def cmd_bounds(args) -> int:
    import json

    from .avoided import read_word_file
    from .bounds import best_bound, bound_from_denominator, decimal

    words = read_word_file(args.words)
    if args.profile_terms is not None:
        from .automaton import degree_profile

        n, bound = best_bound(degree_profile(words, args.profile_terms))
        extra = {"n": n}
    else:
        bound = bound_from_denominator(_gf(words))
        extra = {}
    if args.json:
        print(json.dumps({
            "epsilon": str(bound.epsilon),
            "epsilon_decimal": decimal(bound.epsilon),
            "lower": str(bound.lower),
            "upper": str(bound.upper),
            "rigor": bound.rigor,
            "provenance": bound.provenance,
            **extra,
        }))
    else:
        if extra:
            print(f"best term: n = {extra['n']}")
        print(bound.render())
    return EXIT_OK


def cmd_quasifit(args) -> int:
    import json

    from .automaton import degree_profile
    from .avoided import checked_words, read_word_file
    from .quasipoly import certified_fit, successive_maxima
    from .words import swap_closed

    words = checked_words(read_word_file(args.words))
    if not swap_closed(words):  # refused before any kernel run
        raise ValueError("the set is not closed under swapping the letters")
    profile = degree_profile(words, args.terms)
    fit = certified_fit(profile)
    maxima = successive_maxima(profile.min_ones, fit)
    bound = fit.bound
    print(json.dumps({
        "modulus": fit.modulus,
        "slope": fit.slope,
        "constants": list(fit.constants),
        "onset": fit.onset,
        "limit": f"{fit.slope}/{fit.modulus}",
        "epsilon": str(bound.epsilon),
        "maxima_formula": maxima.formula(),
        "attained": maxima.attained,
        "rigor": bound.rigor,
        "provenance": bound.provenance,
    }))
    return EXIT_OK


def cmd_report(args) -> int:
    import json
    from fractions import Fraction

    from .avoided import DEFAULT_TABLE_TERMS, avoided_set
    from .bounds import DegreeProfile, best_bound, decimal

    depths = _parse_depths(args.d)
    if args.terms is None:
        terms = [DEFAULT_TABLE_TERMS.get(d, 200) for d in depths]
    else:
        try:
            requested = [int(x) for x in args.terms.split(",")]
        except ValueError:
            raise ValueError(f"bad terms spec {args.terms!r}") from None
        terms = requested * len(depths) if len(requested) == 1 else requested
        if len(terms) != len(depths):
            raise ValueError("--terms must list one value, or one per depth")
        if min(terms) < 0:
            raise ValueError("--terms must be >= 0")
    rows = []
    tree = avoided_set(max(depths))  # one expansion serves every depth
    for d, N in zip(depths, terms):
        words = tree.up_to(d).words
        row = {"d": d, "set_size": len(words), "N": N, "n": None, "epsilon": None,
               "backend": args.backend}
        try:
            if args.backend == "automaton":
                from .automaton import degree_profile

                profile = degree_profile(words, N)
            else:
                from .cluster import weight_series

                series = weight_series(
                    words, N, progress=_progress_printer(f"series d={d}"))
                profile = DegreeProfile.from_series(words, series)
            n, bound = best_bound(profile)
            row.update(n=n, epsilon=str(bound.epsilon))
        except ValueError as exc:
            row["error"] = str(exc)
        rows.append(row)
    if args.json:
        print(json.dumps(rows))
    elif args.csv:
        columns = ("d", "set_size", "N", "n", "epsilon", "backend")
        print(",".join(columns))
        for r in rows:
            print(",".join("" if r[k] is None else str(r[k]) for k in columns))
    else:
        print(f"{'d':>2} {'|S_d|':>6} {'N':>5} {'n':>5} {'epsilon':>10} {'decimal':>11}  backend")
        for r in rows:
            n, eps, dec, note = ("-", "-", "-", f" ({r['error']})") if "error" in r else (
                r["n"], r["epsilon"], decimal(Fraction(r["epsilon"])), "")
            print(f"{r['d']:>2} {r['set_size']:>6} {r['N']:>5} {n:>5} {eps:>10} {dec:>11}  "
                  f"{r['backend']}{note}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_checks

    results = run_checks()
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.name}: {status} ({r.seconds:.2f}s) - {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              + ", ".join(r.name for r in failed))
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "kolakoski": cmd_kolakoski,
    "avoided": cmd_avoided,
    "gf": cmd_gf,
    "series": cmd_series,
    "profile": cmd_profile,
    "bounds": cmd_bounds,
    "quasifit": cmd_quasifit,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .avoided import CollisionError, EmptyLanguageError

    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, EmptyLanguageError, CollisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
