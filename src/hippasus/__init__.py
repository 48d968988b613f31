"""Fibonacci numbers characterized by the residual beta*(beta+alpha) - alpha**2.

A positive integer beta with some alpha >= beta making that residual +1 or -1
(a "Hippasus number" with successor alpha) is exactly a Fibonacci number.
This package provides the exact-arithmetic search for such pairs, the
subtractive-descent decision procedure that proves membership and recovers
the index, the Wasteels consecutive-pair criterion, and the golden-ratio
geometry attached to the sequence (quotient convergence and the near-regular
octagon built on Fibonacci-diameter circles).

Importing the package loads none of its submodules.  Each public name,
and each submodule, loads on first use (PEP 562), so ``from hippasus import
fib`` loads ``fibonacci`` alone and ``from hippasus import octagon`` loads
``geometry`` (with ``decimal``) and what it imports.
"""
__version__ = "0.1.0"

__all__ = [
    "MAX_INDEX",
    "fib",
    "fib_index_of",
    "is_consecutive_fib",
    "cassini_residual",
    "hippasus_residual",
    "is_hippasus_pair",
    "HippasusPair",
    "SuccessorSet",
    "DescentTrace",
    "NotHippasusError",
    "successors",
    "unique_successor",
    "predecessor",
    "extend",
    "descend",
    "is_fibonacci_by_descent",
    "find_exact_solution",
    "verify_no_exact_solution",
    "wasteels_residual",
    "classify",
    "WasteelsVerdict",
    "PrecisionConfig",
    "PrecisionTooLow",
    "ConvergenceRow",
    "OctagonGeometry",
    "phi",
    "convergence_table",
    "octagon",
    "octagon_limits",
    "TableRow",
    "build_rows",
    "render",
    "render_aligned",
    "render_csv",
    "render_json",
    "__version__",
]

# name -> the submodule that defines it, loaded on first use by __getattr__
_DEFERRED = {
    **dict.fromkeys(("fibonacci", "MAX_INDEX", "cassini_residual", "fib", "fib_index_of",
                     "is_consecutive_fib"), "fibonacci"),
    **dict.fromkeys(("descent", "DescentTrace", "HippasusPair", "NotHippasusError",
                     "SuccessorSet", "descend", "extend", "find_exact_solution",
                     "hippasus_residual", "is_fibonacci_by_descent", "is_hippasus_pair",
                     "predecessor", "successors", "unique_successor",
                     "verify_no_exact_solution"), "descent"),
    **dict.fromkeys(("wasteels", "WasteelsVerdict", "classify", "wasteels_residual"), "wasteels"),
    **dict.fromkeys(("geometry", "ConvergenceRow", "OctagonGeometry", "PrecisionConfig",
                     "PrecisionTooLow", "convergence_table", "octagon", "octagon_limits", "phi"),
                    "geometry"),
    **dict.fromkeys(("table", "TableRow", "build_rows", "render", "render_aligned", "render_csv",
                     "render_json"), "table"),
}


def __getattr__(name: str):
    home = _DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the relative import ``from . import geometry`` without its fromlist,
    # whose hasattr() check on this package would call __getattr__ again;
    # loading the submodule binds it here, as an eager import would
    module = __import__(home, globals(), level=1)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})
