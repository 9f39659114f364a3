"""Run one kolafreq CLI command in this interpreter, with a span around each
public layer call.

    python3 bench/tracer.py --spans FILE --op ID -- <kolafreq arguments>

The program is not edited.  Before the command runs, every public function
listed below is rebound, in each kolafreq module that refers to it, to a
wrapper that records a span: name, start, end, parent span and op id.  Spans
are kept in memory and written to FILE as JSON lines after the command ends.

A few numbers are computed only to count work (the overlap tails behind
`cluster.weight_series.tail_updates`).  That happens after the command has
returned, outside the op, and the time it takes is reported as `post_op_s`
so the caller can subtract it from the process wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from kolafreq import avoided, automaton, bounds, cli, cluster, polynomials
from kolafreq import quasipoly, verification, words
from kolafreq.cluster import overlap_suffix_lengths

Attrs = Callable[[tuple, dict, Any], dict]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _profile_attrs(args, kwargs, result) -> dict:
    return {"set_size": len(result.words), "N": result.N}


def _automaton_attrs(args, kwargs, result) -> dict:
    return {"set_size": len(result.words), "states": result.n_states}


def _brute_attrs(args, kwargs, result) -> dict:
    return {"n": _arg(args, kwargs, 1, "n")}


def _checks_attrs(args, kwargs, result) -> dict:
    return {"checks": {r.name: r.seconds for r in result}}


# (home module, function, span attributes read from the call).  The span is
# named "<module>.<function>", and the module is the layer it belongs to.
FUNCTIONS: tuple[tuple[Any, str, Attrs | None], ...] = (
    (words, "kolakoski_prefix", None),
    (words, "contains_any_factor", None),
    (avoided, "avoided_set", None),
    (avoided, "read_word_file", None),
    (avoided, "verify_factor_free", None),
    (automaton, "build_automaton", _automaton_attrs),
    (automaton, "degree_profile", _profile_attrs),
    (automaton, "weight_poly_dp", None),
    (automaton, "enumerate_brute", _brute_attrs),
    (cluster, "weight_gf", None),
    (cluster, "weight_series", None),  # attributes: Tracer._series_attrs
    (cluster, "series_from_gf", None),
    (polynomials, "unpack_signed", None),
    (polynomials, "pack_coefficients", None),
    (bounds, "best_bound", None),
    (bounds, "bound_from_denominator", None),
    (quasipoly, "fit_quasipoly", None),
    (quasipoly, "successive_maxima", None),
    (quasipoly, "semi_rigorous_bound", None),
    (verification, "run_checks", _checks_attrs),
)

# References left unwrapped: enumerate_brute calls contains_any_factor once
# per candidate word (about 1.5 million times in `verify --level full`), so a
# span there would time the tracer.  That scan stays in enumerate_brute.
UNWRAPPED = {("kolafreq.automaton", "contains_any_factor")}

# (class, method, span name).  WeightPoly products and exact division are the
# dict arithmetic of the closed form; min_ones/max_ones are the pass that
# turns a Series into a profile.
METHODS = (
    (polynomials.WeightPoly, "__mul__", "polynomials.weightpoly_mul"),
    (polynomials.WeightPoly, "__rmul__", "polynomials.weightpoly_mul"),
    (polynomials.WeightPoly, "exact_div", "polynomials.weightpoly_exact_div"),
    (polynomials.Series, "min_ones", "polynomials.series_profile"),
    (polynomials.Series, "max_ones", "polynomials.series_profile"),
)

KOLAFREQ_MODULES = (
    words, avoided, automaton, polynomials, cluster, bounds, quasipoly,
    verification, cli,
)


class Tracer:
    """Spans of one op, recorded in memory."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.series_calls: list[tuple[tuple[str, ...], int]] = []

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = {"op": self.op, "id": index, "name": name,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(index)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap what exists: a later version of the program may drop a name,
        and its spans are then simply absent."""
        for home, fname, attrs in FUNCTIONS:
            original = getattr(home, fname, None)
            if original is None:
                continue
            if fname == "weight_series":
                attrs = self._series_attrs
            wrapper = self.wrap(f"{home.__name__.split('.')[-1]}.{fname}", original, attrs)
            for module in KOLAFREQ_MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original and (module.__name__, attr) not in UNWRAPPED:
                        setattr(module, attr, wrapper)
        for cls, method, name in METHODS:
            if method in cls.__dict__:
                setattr(cls, method, self.wrap(name, cls.__dict__[method]))

    def _series_attrs(self, args, kwargs, result) -> dict:
        ws = avoided.as_words(_arg(args, kwargs, 0, "S"))
        self.series_calls.append((ws, result.order))
        return {"set_size": len(ws), "N": result.order}

    def tail_updates(self) -> int:
        """Sum over weight_series calls of (overlap tails over all words) * N."""
        total = 0
        for ws, N in self.series_calls:
            tails = sum(len(overlap_suffix_lengths(u, v)) for v in ws for u in ws)
            total += tails * N
        return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines output file")
    parser.add_argument("--op", type=int, required=True, help="op id stamped on every span")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    tracer = Tracer(opts.op)
    tracer.install()
    code = 2
    try:
        code = cli.main(command)
    finally:
        sys.stdout.flush()
        post_start = time.perf_counter()
        counts = {"cluster.weight_series.tail_updates": tracer.tail_updates()}
        with open(opts.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"op": opts.op, "counts_outside_op": counts,
                                 "exit": code}) + "\n")
            post = time.perf_counter() - post_start
            fh.write(json.dumps({"op": opts.op, "post_op_s": post}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
