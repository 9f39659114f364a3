"""The benchmark's workloads: the CLI commands of one op and the exact checks
on their output.

Inputs are the paper's fixed parameters, so every output has a known exact
value.  The seed only orders the commands within an op.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping

# A row of `report --json`: d -> (set size, N, best n, epsilon).
Rows = Mapping[int, tuple[int, int, int, Fraction]]

TABLE_ARGS = ("report", "--d", "1-8", "--terms", "200,200,200,500,800,600,1000,1000", "--json")
SERIES_ARGS = ("report", "--d", "3-4", "--backend", "gj-series", "--terms", "200,250", "--json")
# The same (d, N) by the automaton route, run once per series run, untimed.
SERIES_AUTOMATON_ARGS = ("report", "--d", "3-4", "--terms", "200,250", "--json")
S3_ARGS = ("avoided", "--d", "3")
VERIFY_ARGS = ("verify", "--level", "full")
SETUP_ARGS = ("avoided", "--d", "1")

# Rows d = 7 and 8 of TABLE_ARGS, frozen from the first benchmarked commit.
TABLE_TAIL_ROWS = {
    7: (254, 1000, 897, Fraction(37, 1794)),
    8: (510, 1000, 897, Fraction(37, 1794)),
}
SERIES_ROWS = {
    3: (14, 200, 9, Fraction(1, 18)),
    4: (30, 250, 243, Fraction(17, 486)),
}
GF_S3 = {"epsilon": "1/18", "lower": "4/9", "upper": "5/9", "rigor": "rigorous"}
VERIFY_CHECKS = (
    "gf-s1", "gf-s3", "series-s1", "triple-oracle", "results-table",
    "results-table-gj", "quasipoly-fits", "limits-and-maxima", "d6-anomaly",
    "properties",
)


@dataclass(frozen=True)
class References:
    """Exact expected outputs; tests swap in wrong ones to prove checks bite."""

    table: Rows
    series: Rows
    gf_s3: Mapping[str, str]
    verify_checks: tuple[str, ...]

    @classmethod
    def frozen(cls, results_table) -> "References":
        """`results_table` is kolafreq.verification.REF_RESULTS_TABLE (d <= 6)."""
        table = {d: (size, N, n, eps) for d, size, N, n, eps in results_table}
        return cls({**table, **TABLE_TAIL_ROWS}, SERIES_ROWS, GF_S3, VERIFY_CHECKS)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check on its (exit code, stdout)."""

    label: str
    args: tuple[str, ...]
    check: Callable[[int, str], list[str]]


def _rows_problems(code: int, stdout: str, want: Rows, route: str) -> list[str]:
    if code != 0:
        return [f"{route}: exit code {code}"]
    try:
        got = {row["d"]: (row["set_size"], row["N"], row["n"], Fraction(row["epsilon"]))
               for row in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{route}: unreadable report ({type(exc).__name__}: {exc})"]
    if list(got) != list(want):
        return [f"{route}: depths {list(got)} != {list(want)}"]
    return [f"{route} d={d}: got {got[d]}, want {want[d]}" for d in want if got[d] != want[d]]


def check_rows(want: Rows, route: str) -> Callable[[int, str], list[str]]:
    return lambda code, stdout: _rows_problems(code, stdout, want, route)


def check_gf(want: Mapping[str, str]) -> Callable[[int, str], list[str]]:
    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"bounds --gf: exit code {code}"]
        try:
            got = json.loads(stdout)
        except ValueError as exc:
            return [f"bounds --gf: unreadable output ({exc})"]
        return [f"bounds --gf {k}: got {got.get(k)!r}, want {v!r}"
                for k, v in want.items() if got.get(k) != v]

    return check


_CHECK_LINE = re.compile(r"^(\S+): (PASS|FAIL) ")


def check_verify(names: tuple[str, ...]) -> Callable[[int, str], list[str]]:
    """Exit code 0, every named check PASS, and no check FAIL."""

    def check(code: int, stdout: str) -> list[str]:
        status = {}
        for line in stdout.splitlines():
            m = _CHECK_LINE.match(line)
            if m:
                status[m.group(1)] = m.group(2)
        problems = [f"verify: exit code {code}"] if code != 0 else []
        problems += [f"verify: {n} missing" for n in names if n not in status]
        problems += [f"verify: {n} FAIL" for n, s in status.items() if s != "PASS"]
        return problems

    return check


def check_lines(want: tuple[str, ...], label: str) -> Callable[[int, str], list[str]]:
    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"{label}: exit code {code}"]
        got = tuple(stdout.split())
        return [] if got == want else [f"{label}: got {got}, want {want}"]

    return check


def check_word_file(count: int) -> Callable[[int, str], list[str]]:
    def check(code: int, stdout: str) -> list[str]:
        ws = stdout.split()
        if code != 0 or len(ws) != count or any(set(w) - {"1", "2"} for w in ws):
            return [f"avoided --d 3: exit {code}, {len(ws)} words, want {count}"]
        return []

    return check


def setup_command() -> Command:
    """`kolafreq avoided --d 1`: interpreter start plus package import."""
    return Command("setup", SETUP_ARGS, check_lines(("111", "222"), "avoided --d 1"))


@dataclass(frozen=True)
class OpContext:
    refs: References
    s3_file: str = ""


# Runs one CLI command untimed; the result has `.code` and `.stdout`.
Run = Callable[[tuple[str, ...]], Any]


def prepare(workload: str, run: Run, refs: References, s3_file: str) -> tuple[OpContext, list[str]]:
    """Untimed inputs of a series run: the S_3 word file for `bounds --gf`.

    It also checks the automaton route at the series' (d, N) against the same
    frozen rows that every series op is checked against, so each series row
    equals the automaton route whenever a run is correct."""
    if workload != "series":
        return OpContext(refs), []
    words = run(S3_ARGS)
    problems = check_word_file(14)(words.code, words.stdout)
    with open(s3_file, "w", encoding="utf-8") as fh:
        fh.write(words.stdout)
    route = run(SERIES_AUTOMATON_ARGS)
    problems += _rows_problems(route.code, route.stdout, refs.series, "automaton route")
    return OpContext(refs, s3_file), problems


def _table_op(rng: random.Random, ctx: OpContext) -> list[Command]:
    return [Command("report", TABLE_ARGS, check_rows(ctx.refs.table, "table"))]


def _series_op(rng: random.Random, ctx: OpContext) -> list[Command]:
    commands = [
        Command("report", SERIES_ARGS, check_rows(ctx.refs.series, "gj-series")),
        Command("bounds", ("bounds", "--words", ctx.s3_file, "--gf", "--json"),
                check_gf(ctx.refs.gf_s3)),
    ]
    rng.shuffle(commands)
    return commands


def _verify_op(rng: random.Random, ctx: OpContext) -> list[Command]:
    return [Command("verify", VERIFY_ARGS, check_verify(ctx.refs.verify_checks))]


# Workload name -> the commands of one op.  Why each exists: bench/README.md.
WORKLOADS: dict[str, Callable[[random.Random, OpContext], list[Command]]] = {
    "table": _table_op,
    "series": _series_op,
    "verify": _verify_op,
}
