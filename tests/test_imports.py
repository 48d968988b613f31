"""What ``import hippasus``, each CLI call and the tests' oracles load.

The package imports its integer core, ``fibonacci``, ``descent`` and
``wasteels``, at once; ``geometry`` (and with it ``decimal``) and ``table``
load on the first use of one of their names.  ``tests/oracles.py`` loads
no part of the package.  The subprocess checks run under -S, so that
nothing but the module imported can load a watched module.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hippasus
from test_cli import expand, manifest_calls

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = ("decimal", "hippasus.geometry", "hippasus.table")

# ``python -m hippasus`` as -m runs it; at exit, one last stderr line names
# the deferred modules the call loaded
LAUNCH = f"""\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(
    "\\n" + " ".join(m for m in {DEFERRED!r} if m in sys.modules)))
runpy._run_module_as_main("hippasus")
"""


def run_isolated(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"},
        timeout=60,
    )


def launch(text: str) -> tuple[list[str], list[str]]:
    """(exit code, stdout and stderr digests as the manifest records them,
    deferred modules loaded) of one CLI call."""
    run = run_isolated("-c", LAUNCH, *(expand(token) for token in text.split()))
    stderr, _, loaded = run.stderr.rpartition(b"\n")
    digests = [hashlib.sha256(data).hexdigest() for data in (run.stdout, stderr)]
    return [str(run.returncode), *digests], loaded.decode().split()


@pytest.mark.parametrize("module", ["hippasus", "hippasus.cli"])
def test_import_loads_no_deferred_module(module):
    code = f"import sys, {module}; print(*(m for m in {DEFERRED!r} if m in sys.modules))"
    run = run_isolated("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


@pytest.mark.parametrize(
    "text",
    ["check 55", "fib 30", "wasteels 34 55", "verify equivalence --bound 100", "verify parity",
     "fib -3", "table --max-beta 1000 --format yaml"],
)
def test_integer_commands_load_no_deferred_module(text):
    (code, _, _), loaded = launch(text)
    assert code == ("2" if text in ("fib -3", "table --max-beta 1000 --format yaml") else "0")
    assert loaded == []


@pytest.mark.parametrize(
    "text, loads",
    [
        ("octagon --n 40 --digits 50", ["decimal", "hippasus.geometry"]),
        ("octagon --n 0 --digits 10", ["decimal", "hippasus.geometry"]),  # exit 3
        ("phi-convergence --n-max 5 --digits 20", ["decimal", "hippasus.geometry"]),
        ("phi-convergence --n-max 500 --digits 20", ["decimal", "hippasus.geometry"]),  # exit 3
        ("verify convergence", ["decimal", "hippasus.geometry"]),
        ("table --max-beta 1000", ["hippasus.table"]),
        ("table --max-beta 1000 --format json", ["hippasus.table"]),
    ],
)
def test_deferred_commands_give_their_manifest_bytes(text, loads):
    recorded = {argv: fields for argv, *fields in manifest_calls()}
    got, loaded = launch(text)
    assert got == recorded[text]
    assert loaded == loads


def test_the_deferred_submodules_load_on_first_use():
    code = (
        "import sys, hippasus\n"
        "before = [m for m in ('hippasus.geometry', 'hippasus.table') if m in sys.modules]\n"
        "print(before, hippasus.geometry.__name__, hippasus.table.__name__)"
    )
    run = run_isolated("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [b"[]", b"hippasus.geometry", b"hippasus.table"]


def test_every_public_name_resolves():
    from hippasus import geometry, table

    deferred = {
        geometry: ("ConvergenceRow", "OctagonGeometry", "PrecisionConfig", "PrecisionTooLow",
                   "convergence_table", "octagon", "octagon_limits", "phi"),
        table: ("TableRow", "build_rows", "render", "render_aligned", "render_csv", "render_json"),
    }
    for home, names in deferred.items():
        assert set(names) <= set(hippasus.__all__)
        assert all(getattr(hippasus, name) is getattr(home, name) for name in names)
    namespace = {}
    exec("from hippasus import *", namespace)
    assert set(hippasus.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(hippasus, name) for name in hippasus.__all__)
    assert set(hippasus.__all__) | {"geometry", "table"} <= set(dir(hippasus))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hippasus' has no attribute 'no_such_name'"):
        hippasus.no_such_name
    assert not hasattr(hippasus, "no_such_name")


def test_the_oracles_load_no_hippasus_module():
    # the walk the tests compare with shares no code with the package,
    # though hippasus is on the path
    tests = str(Path(__file__).resolve().parent)
    code = (f"import sys; sys.path.insert(0, {tests!r}); import oracles; "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'hippasus'))")
    run = run_isolated("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
