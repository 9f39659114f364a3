"""The package namespace loads each submodule on first use, the CLI loads
only the modules a command runs, and the package's records keep the
constructor, equality and frozenness of the dataclasses they replaced; the
README's library example runs as written."""

import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import kolafreq
from kolafreq import automaton, avoided, bounds


@pytest.fixture
def unloaded(monkeypatch):
    """The package namespace as `import kolafreq` leaves it: no public name
    and no submodule bound yet, so each read goes through `__getattr__`."""
    namespace = vars(kolafreq)
    for name, value in list(namespace.items()):
        if name in kolafreq.__all__ or (isinstance(value, types.ModuleType)
                                        and value.__name__.startswith("kolafreq.")):
            monkeypatch.delitem(namespace, name)
    return kolafreq


def test_every_public_name_is_its_home_modules_object(unloaded):
    for name in unloaded.__all__:
        value = getattr(unloaded, name)
        assert value.__module__.startswith("kolafreq."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert vars(unloaded)[name] is value, name  # cached: the next read is a dict lookup


def test_dir_lists_every_public_name(unloaded):
    assert set(unloaded.__all__) <= set(dir(unloaded))


def test_star_import_binds_every_public_name(unloaded):
    namespace: dict = {}
    exec("from kolafreq import *", namespace)
    assert set(unloaded.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(unloaded, name) for name in unloaded.__all__)


def test_unknown_names_raise_attribute_error(unloaded):
    with pytest.raises(AttributeError, match="no_such_name"):
        unloaded.no_such_name  # noqa: B018
    assert not hasattr(unloaded, "checked_words")  # defined in avoided, not exported
    from kolafreq import verification  # a submodule, not a public name

    assert verification.__name__ == "kolafreq.verification"


def test_a_frozen_record_refuses_assignment():
    bound = kolafreq.Bound(Fraction(1, 6), "x")
    with pytest.raises(AttributeError, match="'epsilon' of a frozen Bound"):
        bound.epsilon = Fraction(0)
    with pytest.raises(AttributeError):
        del bound.provenance
    assert bound.epsilon == Fraction(1, 6) and bound == kolafreq.Bound(Fraction(1, 6), "x")
    profile = kolafreq.DegreeProfile(("111", "222"), 1, (0, 0), (0, 1))
    with pytest.raises(AttributeError, match="'N' of a frozen DegreeProfile"):
        profile.N = 2
    assert repr(profile) == ("DegreeProfile(words=('111', '222'), N=1, min_ones=(0, 0), "
                             "max_ones=(0, 1), certificate=None)")  # every field, compared or not


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_records_take_their_fields_by_position_or_keyword():
    # A DegreeProfile's certificate defaults to None.
    words, DegreeProfile = ("111", "222"), kolafreq.DegreeProfile
    profile = DegreeProfile(words, 1, (0, 0), (0, 1), certificate=(0, 1, 0))
    assert profile == DegreeProfile(words=words, N=1, min_ones=(0, 0), max_ones=(0, 1))
    assert (profile.certificate, DegreeProfile(words, 1, (0, 0), (0, 1)).certificate) == ((0, 1, 0), None)
    for args, kwargs in [((words, 1, (0, 0)), {}), ((words, 1, (0, 0), (0, 1), None, 0), {}),
                         ((words, 1, (0, 0), (0, 1)), {"words": words}),
                         ((words, 1, (0, 0), (0, 1)), {"rows": 1})]:
        with pytest.raises(TypeError, match="takes the fields words, N, min_ones, max_ones, certificate"):
            DegreeProfile(*args, **kwargs)


def test_empty_language_error_is_one_class():
    assert kolafreq.EmptyLanguageError is avoided.EmptyLanguageError
    assert kolafreq.EmptyLanguageError is automaton.EmptyLanguageError


def test_degree_profile_lives_in_bounds_and_automaton_reexports_it():
    assert kolafreq.DegreeProfile is bounds.DegreeProfile is automaton.DegreeProfile


# Imports the package in a fresh interpreter and runs the command given, if
# any; the last line of its output lists every module it loaded.
_LOADED = (
    "import json, sys\n"
    "import kolafreq\n"
    "code = 0\n"
    "if sys.argv[1:]:\n"
    "    from kolafreq.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def loaded_modules(*argv: str) -> set[str]:
    src = str(Path(kolafreq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "kolafreq"}


@pytest.fixture(scope="module")
def s3_file(tmp_path_factory) -> str:
    words = tmp_path_factory.mktemp("words") / "s3.txt"
    words.write_text("\n".join(kolafreq.avoided_set(3)) + "\n", encoding="utf-8")
    return str(words)


def test_import_loads_no_submodule():
    assert ours(loaded_modules()) == {"kolafreq"}


def test_avoided_loads_only_the_cli_and_avoided():
    assert ours(loaded_modules("avoided", "--d", "1")) == {
        "kolafreq", "kolafreq.cli", "kolafreq.avoided"}


def test_bounds_gf_skips_the_automaton_and_the_checks(s3_file):
    loaded = loaded_modules("bounds", "--words", s3_file, "--gf")
    assert "kolafreq.cluster" in loaded
    assert not loaded & {"kolafreq.automaton", "kolafreq.quasipoly", "kolafreq.verification"}


def test_report_skips_the_fits_and_the_checks():
    # The automaton imports the polynomials only in its counting DP and
    # brute force, so the min-plus route compiles neither them nor the GJ code.
    loaded = loaded_modules("report", "--d", "1-2", "--terms", "50")
    assert "kolafreq.automaton" in loaded
    assert not loaded & {"kolafreq.polynomials", "kolafreq.cluster", "kolafreq.quasipoly",
                         "kolafreq.verification"}


def test_bare_report_skips_the_fits_and_the_checks():
    # Without --terms the row's N comes from `avoided`, not from the checks.
    loaded = loaded_modules("report", "--d", "1", "--json")
    assert ours(loaded) == {"kolafreq", "kolafreq.cli", "kolafreq.avoided", "kolafreq.bounds",
                            "kolafreq.automaton", "kolafreq.words"}


def test_default_table_terms_are_the_n_column_of_the_results_table():
    from kolafreq import verification

    assert verification.DEFAULT_TABLE_TERMS is avoided.DEFAULT_TABLE_TERMS
    assert avoided.DEFAULT_TABLE_TERMS == {d: N for d, _size, N, _n, _eps
                                           in verification.REF_RESULTS_TABLE}
    assert list(avoided.DEFAULT_TABLE_TERMS) == [1, 2, 3, 4, 5, 6]


def test_profile_skips_the_polynomials(s3_file):
    loaded = loaded_modules("profile", "--words", s3_file, "--terms", "30")
    assert "kolafreq.automaton" in loaded
    assert not loaded & {"kolafreq.polynomials", "kolafreq.cluster"}


def test_gj_series_report_skips_the_automaton():
    loaded = loaded_modules("report", "--d", "1-2", "--terms", "50", "--backend", "gj-series")
    assert "kolafreq.cluster" in loaded
    assert not loaded & {"kolafreq.automaton", "kolafreq.quasipoly", "kolafreq.verification"}


@pytest.mark.parametrize("argv", [
    ("avoided", "--d", "1"),
    ("report", "--d", "1-2", "--terms", "50"),
    ("report", "--d", "1-2", "--terms", "50", "--backend", "gj-series"),
    ("bounds", "--gf"),
    ("verify",),
], ids=" ".join)
def test_commands_load_neither_dataclasses_nor_inspect(argv, s3_file):
    if argv[0] == "bounds":
        argv = (*argv, "--words", s3_file)
    assert not loaded_modules(*argv) & {"dataclasses", "inspect"}
