"""The package namespace loads each submodule on first use, and the CLI loads
only the modules a command runs."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kolafreq
from kolafreq import automaton, avoided


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


def test_empty_language_error_is_one_class():
    assert kolafreq.EmptyLanguageError is avoided.EmptyLanguageError
    assert kolafreq.EmptyLanguageError is automaton.EmptyLanguageError


# Imports the package in a fresh interpreter and runs the command given, if
# any; the last line of its output lists the kolafreq modules it loaded.
_LOADED = (
    "import json, sys\n"
    "import kolafreq\n"
    "code = 0\n"
    "if sys.argv[1:]:\n"
    "    from kolafreq.cli import main\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kolafreq'))))\n"
    "sys.exit(code)\n"
)


def loaded_modules(*argv: str) -> set[str]:
    src = str(Path(kolafreq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_modules() == {"kolafreq"}


def test_avoided_loads_only_the_cli_and_avoided():
    assert loaded_modules("avoided", "--d", "1") == {
        "kolafreq", "kolafreq.cli", "kolafreq.avoided"}


def test_bounds_gf_skips_the_automaton_and_the_checks(tmp_path):
    words = tmp_path / "s3.txt"
    words.write_text("\n".join(kolafreq.avoided_set(3).words) + "\n", encoding="utf-8")
    loaded = loaded_modules("bounds", "--words", str(words), "--gf")
    assert "kolafreq.cluster" in loaded
    assert not loaded & {"kolafreq.automaton", "kolafreq.quasipoly", "kolafreq.verification"}


def test_report_skips_the_fits_and_the_checks():
    loaded = loaded_modules("report", "--d", "1-2", "--terms", "50")
    assert "kolafreq.automaton" in loaded
    assert not loaded & {"kolafreq.quasipoly", "kolafreq.verification"}
