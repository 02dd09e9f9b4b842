"""The package namespace: lazy submodules, one table of public names."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import masec

SUBMODULES = ("ascent", "bench", "cli", "gammainc", "model", "outage",
              "surrogate", "zf")


def _fresh(code: str, *args) -> None:
    """Run ``code`` in a new interpreter that imports masec from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(masec.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_import_loads_only_what_is_used(tmp_path):
    # importing the package loads no submodule and not numpy; writing the
    # default table loads the modules it needs and none of the solvers
    out = tmp_path / "t.txt"
    _fresh("import sys\n"
           "import masec\n"
           "loaded = {m for m in sys.modules if m.startswith('masec.')}\n"
           "assert not loaded and 'numpy' not in sys.modules, loaded\n"
           "masec.save_table(masec.default_table(), sys.argv[1])\n"
           "loaded = {m for m in sys.modules if m.startswith('masec.')}\n"
           "assert loaded == {'masec.surrogate', 'masec.gammainc',\n"
           "                  'masec.model'}, loaded\n", out)
    shipped = Path(masec.__file__).with_name("default_table.txt")
    assert out.read_bytes() == shipped.read_bytes()


def test_fit_table_loads_no_solver(tmp_path):
    # the CLI imports a solver module only in the command that runs it
    out = tmp_path / "t.txt"
    _fresh("import sys\n"
           "from masec.cli import main\n"
           "assert main(['fit-table', '--out', sys.argv[1]]) == 0\n"
           "loaded = {m for m in sys.modules if m.startswith('masec.')}\n"
           "solvers = {'masec.ascent', 'masec.bench', 'masec.outage',\n"
           "           'masec.zf'}\n"
           "assert not loaded & solvers, loaded\n"
           "assert loaded == {'masec.cli', 'masec.surrogate',\n"
           "                  'masec.gammainc', 'masec.model'}, loaded\n", out)
    shipped = Path(masec.__file__).with_name("default_table.txt")
    assert out.read_bytes() == shipped.read_bytes()


def test_a_submodule_resolves_before_anything_imports_it():
    _fresh("import sys\n"
           "import masec\n"
           "bench = masec.bench\n"
           "assert bench is sys.modules['masec.bench']\n"
           "assert bench.run_scheme is masec.run_scheme\n")


@pytest.mark.parametrize("name", masec.__all__)
def test_a_public_name_is_its_home_modules_object(name):
    # the home is where the name is defined, not a module that imports it
    home = f"masec.{masec._HOME[name]}"
    value = getattr(masec, name)
    assert value is getattr(importlib.import_module(home), name)
    assert value.__module__ == home


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(masec)
    assert set(masec.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)
    assert len(masec.__all__) == len(set(masec.__all__))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'masec' has no attribute 'nope'"):
        masec.nope  # noqa: B018
    assert not hasattr(masec, "nope")
    assert hasattr(masec, "run_scheme") and hasattr(masec, "zf")
    with pytest.raises(ImportError):
        from masec import nope  # noqa: F401
    from masec import surrogate
    assert surrogate is sys.modules["masec.surrogate"]
    assert masec.__version__ == "0.1.0"


def test_a_replaced_function_is_seen_through_the_package(monkeypatch):
    # nothing is cached in the package, so a patch and its undo both show
    real = masec.bench.run_scheme

    def fake(*args, **kwargs):
        return "fake"

    monkeypatch.setattr(masec.bench, "run_scheme", fake)
    assert masec.run_scheme is fake
    assert masec.run_scheme("MA_OB", None) == "fake"
    monkeypatch.undo()
    assert masec.run_scheme is real
    assert "run_scheme" not in vars(masec)
