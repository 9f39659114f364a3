import io
import itertools
import json
import re
import sys
from unittest import mock

import pytest

from kolafreq import automaton, avoided, avoided_set, cli, cluster, kolakoski_prefix
from kolafreq.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from kolafreq.verification import DEFAULT_TABLE_TERMS, REF_QUASIPOLY


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.txt"
    path.write_text("# level-1 avoided words\n111\n222\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kolakoski_command(capsys):
    code, out, _ = run(capsys, "kolakoski", "--n", "20", "--first", "2")
    assert code == EXIT_OK
    assert out.strip() == "22112122122112112212"


@pytest.mark.parametrize("n", [0, 1, 64, 65, 97, 98, 400_000])
@pytest.mark.parametrize("first", [1, 2])
def test_kolakoski_command_streams_the_prefix(monkeypatch, n, first):
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["kolakoski", "--n", str(n), "--first", str(first)]) == EXIT_OK
    assert out.getvalue() == kolakoski_prefix(n, first) + "\n"
    # Joined batches of pieces, about 200 000 letters each, never the whole word.
    assert max(sizes) <= 4096 * 64 and len(sizes) > n // (4096 * 64)


def test_avoided_command(capsys):
    code, out, _ = run(capsys, "avoided", "--d", "2")
    assert code == EXIT_OK
    assert out.split() == ["111", "222", "12121", "21212", "112211", "221122"]


def test_gf_command(capsys, s1_file):
    code, out, _ = run(capsys, "gf", "--words", s1_file)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "numerator   = 1 + x2*t + x1*t + x2^2*t^2 + x1*x2*t^2 + x1^2*t^2 + x1*x2^2*t^3"
        " + x1^2*x2*t^3 + x1^2*x2^2*t^4",
        "denominator = 1 - x1*x2*t^2 - x1*x2^2*t^3 - x1^2*x2*t^3 - x1^2*x2^2*t^4",
    ]


def test_gf_command_json(capsys, s1_file):
    code, out, _ = run(capsys, "gf", "--words", s1_file, "--json")
    data = json.loads(out)
    assert [1, 1, "-1"] in data["denominator"]


def test_series_command_json(capsys, s1_file):
    code, out, _ = run(capsys, "series", "--words", s1_file, "--terms", "3", "--json")
    assert code == EXIT_OK
    slices = json.loads(out)
    assert slices[0] == [[0, 0, "1"]]
    assert slices[3] == [[1, 2, "3"], [2, 1, "3"]]


def test_series_command_text(capsys, s1_file):
    code, out, _ = run(capsys, "series", "--words", s1_file, "--terms", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "t^0: 1",
        "t^1: x2*t + x1*t",
        "t^2: x2^2*t^2 + 2*x1*x2*t^2 + x1^2*t^2",
        "t^3: 3*x1*x2^2*t^3 + 3*x1^2*x2*t^3",
    ]


def test_profile_command_text(capsys, s1_file):
    code, out, _ = run(capsys, "profile", "--words", s1_file, "--terms", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "n=0: min_ones=0 max_ones=0",
        "n=1: min_ones=0 max_ones=1",
        "n=2: min_ones=0 max_ones=2",
        "n=3: min_ones=1 max_ones=2",
    ]


def test_profile_command_json_and_csv(capsys, s1_file):
    code, out, _ = run(capsys, "profile", "--words", s1_file, "--terms", "4", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data == {"N": 4, "min_ones": [0, 0, 0, 1, 1], "max_ones": [0, 1, 2, 2, 3]}
    code, out, _ = run(capsys, "profile", "--words", s1_file, "--terms", "2", "--csv")
    assert out.splitlines() == ["n,min_ones,max_ones", "0,0,0", "1,0,1", "2,0,2"]


def test_bounds_command(capsys, s1_file):
    code, out, _ = run(capsys, "bounds", "--words", s1_file)
    assert code == EXIT_OK
    assert "epsilon = 1/6 (0.166667)" in out
    code, out, _ = run(capsys, "bounds", "--words", s1_file, "--profile-terms", "50", "--json")
    data = json.loads(out)
    assert data["epsilon"] == "1/6" and data["n"] == 3


def test_bounds_command_profile_terms_text(capsys, s1_file):
    code, out, _ = run(capsys, "bounds", "--words", s1_file, "--profile-terms", "50")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "best term: n = 3",
        "epsilon = 1/6 (0.166667), 1/3 <= freq <= 2/3 "
        "[rigorous; series-term(3); valid provided the limiting frequency exists]",
    ]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_bounds_gf_flag_names_the_default_route(capsys, tmp_path, flags):
    # `--gf` changes nothing: S_3's closed-form bound prints the same bytes without it.
    s3 = tmp_path / "s3.txt"
    s3.write_text("".join(w + "\n" for w in avoided_set(3).words), encoding="utf-8")
    bare = run(capsys, "bounds", "--words", str(s3), *flags)
    assert bare[0] == EXIT_OK and "1/18" in bare[1] and bare[2] == ""
    assert run(capsys, "bounds", "--words", str(s3), "--gf", *flags) == bare


@pytest.fixture
def many(tmp_path):
    """The 30 words of length 5 other than 11111 and 22222: a set as large
    as S_4 whose closed form solves in milliseconds."""
    path = tmp_path / "many.txt"
    path.write_text("".join(w + "\n" for w in map("".join, itertools.product("12", repeat=5))
                            if len(set(w)) == 2), encoding="utf-8")
    return path


def test_gf_progress_goes_to_stderr_from_30_words(capsys, tmp_path, many):
    # S_3 (14 words) stays silent.
    s3 = tmp_path / "s3.txt"
    s3.write_text("".join(w + "\n" for w in avoided_set(3).words), encoding="utf-8")
    for command, flags in (("gf", ["--json"]), ("bounds", ["--gf", "--json"])):
        code, out, err = run(capsys, command, "--words", str(many), *flags)
        assert code == EXIT_OK and json.loads(out)
        lines = err.splitlines()
        assert lines and lines[-1] == "gf: 30/30"
        assert all(line.startswith("gf: ") and line.endswith("/30") for line in lines)
        code, out, err = run(capsys, command, "--words", str(s3), *flags)
        assert code == EXIT_OK and json.loads(out) and err == ""


def test_word_file_with_a_byte_order_mark_and_crlf_line_ends(capsys, tmp_path):
    # UTF-8 text may open with a byte-order mark, as some editors write it.
    plain, marked = tmp_path / "s3.txt", tmp_path / "s3-bom.txt"
    plain.write_text("".join(w + "\n" for w in avoided_set(3).words), encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    assert avoided.read_word_file(marked) == avoided.read_word_file(plain) == avoided_set(3).words
    argv = ("bounds", "--gf", "--json", "--words")
    code, out, err = run(capsys, *argv, str(plain))
    assert code == EXIT_OK and err == ""
    assert run(capsys, *argv, str(marked)) == (code, out, err)


def test_gf_progress_says_when_the_count_restarts(capsys, many):
    # weight_gf counts its elimination steps from 1 again when a packing
    # fails its identity proof; a stand-in feeds the hook such a count.
    real = cluster.weight_gf

    def restarting(words, progress=None):
        for done in (1, 2, 3, 1, 2, 3):
            progress(done, 3)
        return real(words)

    code, out, _ = run(capsys, "gf", "--words", str(many), "--json")
    with mock.patch.object(cluster, "weight_gf", restarting):
        restarted = run(capsys, "gf", "--words", str(many), "--json")
    counts = ["gf: 1/3", "gf: 2/3", "gf: 3/3"]
    assert restarted == (code, out, "\n".join(
        counts + ["gf: packing failed its proof, retrying"] + counts) + "\n")


def test_series_progress_says_when_the_count_restarts(capsys, monkeypatch, tmp_path):
    # weight_series counts its slices from 1 again when its width cannot
    # prove a slice.  From 8 bits S_4 fails at slice 13, and the width read
    # off the counts proven so far, 24 bits, fails at slice 89.
    s4 = tmp_path / "s4.txt"
    s4.write_text("".join(w + "\n" for w in avoided_set(4).words), encoding="utf-8")
    argv = ("series", "--words", str(s4), "--terms", "200", "--json")
    code, out, err = run(capsys, *argv)
    real, widths = cluster._series_width, []

    def narrow_first(counts, terms):
        widths.append(8 if not widths else real(counts, terms))
        return widths[-1]

    monkeypatch.setattr(cluster, "_series_width", narrow_first)
    restarted = run(capsys, *argv)
    counts = [f"series: {n}/200" for n in range(10, 201, 10)]
    retry = "series: packing failed its proof, retrying"
    assert widths == [8, 24, 56] and err.splitlines() == counts
    assert restarted == (code, out, "\n".join(counts[:1] + [retry] + counts[:8] + [retry] + counts) + "\n")


def test_progress_prints_at_most_21_lines_per_count(capsys, many):
    # A stride of total // 20 is 1 below 40 steps, which printed all 30
    # steps of the 30-word set.
    code, out, err = run(capsys, "gf", "--words", str(many), "--json")
    assert code == EXIT_OK and json.loads(out)
    assert 0 < len(err.splitlines()) <= 21 and err.splitlines()[-1] == "gf: 30/30"
    for total in (1, 7, 19, 20, 21, 30, 39, 40, 41, 250, 800):
        hook = cli._progress_printer("series")
        for done in range(1, total + 1):
            hook(done, total)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) <= 21 and lines[-1] == f"series: {total}/{total}", total


def test_quasifit_command(capsys, s1_file):
    code, out, _ = run(capsys, "quasifit", "--words", s1_file, "--terms", "80")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["modulus"] == 3 and data["slope"] == 1
    assert data["limit"] == "1/3" and data["epsilon"] == "1/6"
    assert data["attained"] is True
    assert data["rigor"] == "rigorous"
    assert data["provenance"] == "certified-limit(n0=2, P=3, c=1)"


@pytest.mark.parametrize("d", sorted(REF_QUASIPOLY))
def test_quasifit_matches_the_reference_fits(capsys, tmp_path, d):
    words_path = tmp_path / f"s{d}.txt"
    words_path.write_text("\n".join(avoided_set(d).words) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "quasifit", "--words", str(words_path),
                       "--terms", str(DEFAULT_TABLE_TERMS[d]))
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["modulus"], data["slope"], tuple(data["constants"])) == REF_QUASIPOLY[d]
    assert data["epsilon"] == {1: "1/6", 2: "1/6", 3: "1/18", 4: "1/30", 5: "1/46"}[d]
    assert data["rigor"] == "rigorous"


@pytest.mark.parametrize("words,terms", [
    ("22", "60"),  # not swap-closed: 1^n avoids it, so the fewest ones bound one side only
    ("112,21,222", "60"),  # not swap-closed; its fewest ones jump by 3 at n = 4
    ("12,21", "200"),  # no certificate within N
    ("111,222", "-1"),
    ("13", "10"),  # not a word over 1 and 2
    ("1,11", "10"),  # not factor-free
    ("1,2", "10"),  # no word of length 1
])
def test_quasifit_refusals(capsys, tmp_path, words, terms):
    words_path = tmp_path / "words.txt"
    words_path.write_text(words.replace(",", "\n") + "\n", encoding="utf-8")
    code, out, err = run(capsys, "quasifit", "--words", str(words_path), "--terms", terms)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_quasifit_refuses_a_set_that_is_not_swap_closed_before_any_kernel_run(
        capsys, tmp_path):
    words_path = tmp_path / "words.txt"
    words_path.write_text("112\n21\n222\n", encoding="utf-8")
    with mock.patch.object(automaton, "_min_ones", wraps=automaton._min_ones) as kernel:
        code, out, err = run(capsys, "quasifit", "--words", str(words_path), "--terms", "60")
    assert kernel.call_count == 0
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ("profile", "--terms", "10"),
    ("bounds", "--profile-terms", "10"),
])
def test_empty_language_is_a_usage_error(capsys, tmp_path, command):
    # {1, 2} leaves no word of length 1, so the profile has no row to fill.
    words_path = tmp_path / "words.txt"
    words_path.write_text("1\n2\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], "--words", str(words_path), *command[1:])
    assert code == EXIT_USAGE and out == ""
    assert err == "error: no word of length 1 avoids the set\n"


@pytest.mark.parametrize("command", ["profile", "report"])
def test_json_and_csv_cannot_be_combined(capsys, s1_file, command):
    argv = [command, "--json", "--csv"]
    if command == "profile":
        argv += ["--words", s1_file, "--terms", "4"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and out == ""
    assert err.startswith("usage: ") and "argument --csv: not allowed with argument --json" in err


def test_report_default_table(capsys):
    code, out, _ = run(capsys, "report", "--csv")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[0] == "d,set_size,N,n,epsilon,backend"
    assert rows[1] == "1,2,200,3,1/6,automaton"
    assert rows[5] == "5,62,800,762,17/762,automaton"
    assert rows[6] == "6,126,600,555,5/222,automaton"


def test_report_rows_avoid_the_sets_of_their_depths(capsys):
    # One expansion of the deepest level serves every row.
    with mock.patch.object(automaton, "degree_profile", wraps=automaton.degree_profile) as profile, \
            mock.patch.object(avoided, "expand", wraps=avoided.expand) as expand:
        code, out, _ = run(capsys, "report", "--d", "5,2-4,1", "--terms", "30", "--json")
    assert code == EXIT_OK
    assert [call.args[0] for call in profile.call_args_list] == [
        avoided_set(d).words for d in (5, 2, 3, 4, 1)]
    assert [row["set_size"] for row in json.loads(out)] == [62, 6, 14, 30, 2]
    assert expand.call_count == 62  # the tree to depth 5, grown once


def test_report_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "--d", "1-3")
    _, second, _ = run(capsys, "report", "--d", "1-3")
    assert first == second


def test_report_series_backend_small(capsys):
    code, out, _ = run(capsys, "report", "--d", "1", "--terms", "60",
                       "--backend", "gj-series", "--json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["epsilon"] == "1/6" and row["n"] == 3


def test_report_zero_terms_yields_error_row(capsys):
    code, out, _ = run(capsys, "report", "--d", "1", "--terms", "0", "--json")
    assert code == EXIT_OK
    (row,) = json.loads(out)
    assert row["epsilon"] is None and row["n"] is None
    assert "error" in row


def test_report_text_names_the_error_of_a_row(capsys):
    code, out, _ = run(capsys, "report", "--d", "1-2", "--terms", "0,20")
    assert code == EXIT_OK
    assert out.splitlines() == [
        " d  |S_d|     N     n    epsilon     decimal  backend",
        " 1      2     0     -          -           -  automaton (profile must cover at least length 1)",
        " 2      6    20     3        1/6    0.166667  automaton",
    ]


@pytest.mark.parametrize("backend", ["automaton", "gj-series"])
@pytest.mark.parametrize("terms", ["-1", "5,-1"])
def test_report_refuses_negative_terms(capsys, backend, terms):
    code, out, err = run(capsys, "report", "--d", "3-4", "--terms", terms,
                         "--backend", backend, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --terms must be >= 0\n"


@pytest.mark.parametrize("argv,error", [
    (["--d", "0"], "bad depth spec '0'"),
    (["--d", "3-1"], "bad depth spec '3-1'"),
    (["--d", "1-"], "bad depth spec '1-'"),
    (["--d", "x"], "bad depth spec 'x'"),
    (["--d", "1", "--terms", "200,300"], "--terms must list one value, or one per depth"),
    (["--d", "1", "--terms", "1.5"], "bad terms spec '1.5'"),
    (["--d", "1", "--terms", "x"], "bad terms spec 'x'"),
    (["--d", "1", "--terms="], "bad terms spec ''"),
    (["--d", "1", "--terms", "5,"], "bad terms spec '5,'"),
])
def test_report_refuses_bad_depths_and_terms(capsys, argv, error):
    code, out, err = run(capsys, "report", *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {error}\n")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "gf", "--words", "/nonexistent/words.txt")
    assert code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_verify_runs_the_ten_checks(capsys):
    want = [
        "gf-s1: PASS - numerator, denominator, and series cross-check agree",
        "gf-s3: PASS - 18-term denominator, minratio 4/9, epsilon 1/18",
        "series-s1: PASS - slices through t^5 match",
        "triple-oracle: PASS - three oracles agree for d <= 3, n <= 18",
        "results-table: PASS - all six rows match",
        "results-table-gj: PASS - rows d <= 3 reproduced from the series backend",
        "quasipoly-fits: PASS - fits for d = 1, 2, 3, 4, 5 match",
        "limits-and-maxima: PASS - limits 1/3, 4/9, 7/15, 33/69; epsilons 1/6, 1/18, 1/30, 1/46",
        "d6-anomaly: PASS - sequences agree on n <= 600 except n = 62",
        "properties: PASS - counts, factor-freeness, avoidance, symmetry, and steps all hold",
        "all 10 checks passed",
    ]
    for argv in (("verify",), ("verify", "--level", "full")):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert re.sub(r" \(\d+\.\d\ds\)", "", out).splitlines() == want
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "quick"])
    assert exc.value.code == EXIT_USAGE


def test_verify_prints_the_failed_check_and_exits_1(capsys, monkeypatch):
    from kolafreq import verification

    rows = tuple((d, 7 if d == 2 else size, *rest) for d, size, *rest in verification.REF_RESULTS_TABLE)
    monkeypatch.setattr(verification, "REF_RESULTS_TABLE", rows)
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == EXIT_VERIFY_FAILED
    *checks, summary = out.splitlines()
    assert [line.split(":")[0] for line in checks] == [name for name, _ in verification.FULL_CHECKS]
    assert [line for line in checks if "PASS" not in line] == [checks[4]]
    assert re.fullmatch(r"results-table: FAIL \(\d+\.\d\ds\) - d=2: set size 6 != 7", checks[4])
    assert summary == "1 of 10 checks failed: results-table"


def test_verify_names_failing_check(monkeypatch):
    from kolafreq import RationalGF, WeightPoly, verification

    perturbed = RationalGF(
        WeightPoly.one(), WeightPoly({(0, 0): 1, (1, 1): -2})
    )
    monkeypatch.setattr(verification, "weight_gf", lambda words: perturbed)
    ok, detail = verification.check_gf_s1()
    assert not ok
    assert "denominator mismatch" in detail


def test_limits_and_maxima_needs_the_m11_record(monkeypatch):
    from kolafreq import MaximaReport, verification

    real = verification.successive_maxima

    def without_762(m, fit):
        r = real(m, fit)
        return MaximaReport(tuple(rec for rec in r.records if rec[0] != 762), r.modulus,
                            r.slope, r.residue, r.intercept, r.first_j, r.attained)

    monkeypatch.setattr(verification, "successive_maxima", without_762)
    ok, detail = verification.check_limits_and_maxima()
    assert not ok
    assert "17/762" in detail
