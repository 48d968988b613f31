"""What ``import hippasus``, each CLI call and the tests' oracles load.

``import hippasus`` loads none of the package's submodules, and ``import
hippasus.cli`` only the CLI: each public name, and each submodule, loads on
first use.  A CLI call loads its own command's modules, and a call that
argparse refuses loads none.  ``tests/oracles.py`` loads no part of the
package.  The subprocess checks run under -S, so that nothing but the
module imported can load a watched module.
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
# every module the package loads on first use, and decimal, which geometry loads
DEFERRED = ("decimal", "hippasus.descent", "hippasus.fibonacci", "hippasus.geometry",
            "hippasus.table", "hippasus.wasteels")
LOADED = f"' '.join(m for m in {DEFERRED!r} if m in sys.modules)"

# ``python -m hippasus`` as -m runs it; at exit, one last stderr line names
# the deferred modules the call loaded
LAUNCH = f"""\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + {LOADED}))
runpy._run_module_as_main("hippasus")
"""

# what loading each home module loads, sorted
FIBONACCI = ["hippasus.fibonacci"]
DESCENT = ["hippasus.descent", "hippasus.fibonacci"]
WASTEELS = ["hippasus.fibonacci", "hippasus.wasteels"]
TABLE = ["hippasus.descent", "hippasus.fibonacci", "hippasus.table"]
GEOMETRY = ["decimal", "hippasus.fibonacci", "hippasus.geometry"]

# call -> (exit code, deferred modules it loads): its command's modules,
# none of which is geometry, decimal or table
INTEGER_CALLS = {
    "fib 30": ("0", FIBONACCI),
    "check 55": ("0", DESCENT),
    "check 12": ("1", FIBONACCI),  # a non-member stops before the walk
    "descent 13": ("0", DESCENT),
    "wasteels 34 55": ("0", WASTEELS),
    "verify cassini": ("0", []),
    "verify equivalence --bound 100": ("0", DESCENT),
    "verify parity": ("0", DESCENT),
    "fib -3": ("2", []),  # argparse refuses the call
    "table --max-beta 1000 --format yaml": ("2", []),
}


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
    code = (f"import sys, {module}; "
            "print(*(m for m in sys.modules if m == 'decimal' or m.startswith('hippasus.')))")
    run = run_isolated("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ([b"hippasus.cli"] if module == "hippasus.cli" else [])


@pytest.mark.parametrize(
    "name, loads",
    [("fib", FIBONACCI), ("classify", WASTEELS), ("descend", DESCENT), ("octagon", GEOMETRY),
     ("build_rows", TABLE)],
)
def test_a_public_name_loads_its_home_and_what_that_imports(name, loads):
    run = run_isolated("-c", f"import sys; from hippasus import {name}; print({LOADED})")
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().split() == loads


@pytest.mark.parametrize("text", INTEGER_CALLS)
def test_integer_commands_load_no_deferred_module(text):
    (code, _, _), loaded = launch(text)
    assert (code, loaded) == INTEGER_CALLS[text]


@pytest.mark.parametrize(
    "text, loads",
    [
        ("octagon --n 40 --digits 50", GEOMETRY),
        ("octagon --n 0 --digits 10", GEOMETRY),  # exit 3
        ("phi-convergence --n-max 5 --digits 20", GEOMETRY),
        ("phi-convergence --n-max 500 --digits 20", GEOMETRY),  # exit 3
        ("verify convergence", GEOMETRY),
        ("table --max-beta 1000", TABLE),
        ("table --max-beta 1000 --format json", TABLE),
    ],
)
def test_deferred_commands_give_their_manifest_bytes(text, loads):
    recorded = {argv: fields for argv, *fields in manifest_calls()}
    got, loaded = launch(text)
    assert got == recorded[text]
    assert loaded == loads


SUBMODULES = ("descent", "fibonacci", "geometry", "table", "wasteels")


def test_the_deferred_submodules_load_on_first_use():
    code = (
        "import sys, hippasus\n"
        f"print({LOADED} or '-', *(getattr(hippasus, m).__name__ for m in {SUBMODULES!r}))"
    )
    run = run_isolated("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().split() == ["-", *(f"hippasus.{m}" for m in SUBMODULES)]


def test_every_public_name_resolves():
    from hippasus import descent, fibonacci, geometry, table, wasteels

    homes = {
        fibonacci: ("MAX_INDEX", "cassini_residual", "fib", "fib_index_of", "is_consecutive_fib"),
        descent: ("DescentTrace", "HippasusPair", "NotHippasusError", "SuccessorSet", "descend",
                  "extend", "find_exact_solution", "hippasus_residual",
                  "is_fibonacci_by_descent", "is_hippasus_pair", "predecessor", "successors",
                  "unique_successor", "verify_no_exact_solution"),
        wasteels: ("WasteelsVerdict", "classify", "wasteels_residual"),
        geometry: ("ConvergenceRow", "OctagonGeometry", "PrecisionConfig", "PrecisionTooLow",
                   "convergence_table", "octagon", "octagon_limits", "phi"),
        table: ("TableRow", "build_rows", "render", "render_aligned", "render_csv", "render_json"),
    }
    assert sorted(name for names in homes.values() for name in names) == sorted(
        set(hippasus.__all__) - {"__version__"})
    for home, names in homes.items():
        assert all(getattr(hippasus, name) is getattr(home, name) for name in names)
    namespace = {}
    exec("from hippasus import *", namespace)
    assert set(hippasus.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(hippasus, name) for name in hippasus.__all__)
    assert set(hippasus.__all__) | set(SUBMODULES) <= set(dir(hippasus))


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
