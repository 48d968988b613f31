"""Command-line front-end.

Exit codes are a stable contract: 0 affirmative/success, 1 negative verdict
or counterexample found, 2 usage error, 3 precision error; 141 (128 +
SIGPIPE) when the reader closes stdout before the report ends.
"""
from __future__ import annotations

import argparse
import os
import sys

# geometry (and with it decimal) and table are imported inside the handlers
# that use them, so that every other command starts without them
from .descent import DescentTrace, descend, find_exact_solution, successors
from .fibonacci import _decide, fib
from .wasteels import classify


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum (0 or 1)."""
    expected = "a positive integer" if minimum else "a non-negative integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return value

    return parse


def _cmd_fib(args: argparse.Namespace) -> int:
    print(fib(args.i))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from . import table

    rows = table.build_rows(args.max_beta)
    sys.stdout.write(table.render(rows, args.format))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    beta = args.beta
    decided = _decide(beta)
    print(f"beta: {beta}")
    if decided is None:
        print("status: not-hippasus")
        print("successors: none")
        return 1
    print("status: hippasus")
    print("successors:", "1 2" if beta == 1 else decided[1])
    return _print_descent(beta, *decided)


def _cmd_descent(args: argparse.Namespace) -> int:
    decided = _decide(args.beta)
    if decided is None:
        print(f"not a Hippasus number: {args.beta}")
        return 1
    return _print_descent(args.beta, *decided)


def _print_descent(beta: int, i: int, alpha: int) -> int:
    """The walk from beta = F(i), given _decide's certified (i, F(i+1)),
    which saves the trace its own doubling."""
    # one value at a time: the whole walk from F(10**4) is 10 MB of digits
    write = sys.stdout.write
    write("descent:")
    for value in tuple.__new__(DescentTrace, (beta, i))._walk(alpha):
        write(f" {value}")
    write(f"\nfibonacci_index: {i}\n")
    return 0


def _cmd_wasteels(args: argparse.Namespace) -> int:
    verdict = classify(args.x, args.y)
    print(f"x: {verdict.x}")
    print(f"y: {verdict.y}")
    print(f"residual: {verdict.residual}")
    print(f"consecutive: {'yes' if verdict.consecutive else 'no'}")
    if verdict.consecutive:
        assert verdict.indices is not None
        print(f"indices: {verdict.indices[0]} {verdict.indices[1]}")
        return 0
    return 1


def _cmd_octagon(args: argparse.Namespace) -> int:
    from . import geometry

    cfg = geometry.PrecisionConfig(digits=args.digits)
    geo, limits, deviations = geometry._octagon_report(args.n, cfg)
    print(f"n: {geo.n}")
    print(f"digits: {cfg.digits}")
    print(f"p: ({geo.p[0]}, {geo.p[1]})")
    print(f"q: ({geo.q[0]}, {geo.q[1]})")
    print(f"d: {geo.d}")
    print(f"e: {geo.e}")
    names = ("d_over_f", "d_over_e", "e_over_f")
    ratios = (geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
    for name, ratio, limit, deviation in zip(names, ratios, limits, deviations):
        print(f"{name}: {ratio}")
        print(f"limit_{name}: {limit}")
        print(f"deviation_{name}: {deviation}")
    return 0


def _cmd_phi_convergence(args: argparse.Namespace) -> int:
    from . import geometry

    cfg = geometry.PrecisionConfig(digits=args.digits)
    rows = geometry._convergence_rows(args.n_max, cfg)  # PrecisionTooLow before any output
    print(f"phi: {geometry.phi(cfg)}")
    for row in rows:
        print(f"{row.n}  {row.ratio}  {row.error}")
    return 0


def _verify_cassini(bound: int) -> int:
    # F(i+1), F(i+2) by addition, not cassini_residual's doublings, and each
    # F(k) squared once: F(i+2) = F(i) + F(i+1) makes the residual
    # F(i)*F(i+2) - F(i+1)**2 equal to (F(i)**2 + F(i+2)**2 - 3*F(i+1)**2)/2
    b, c = 1, 2  # F(i+1), F(i+2) at i = 0
    square_a, square_b = 1, 1  # F(i)**2, F(i+1)**2
    for i in range(bound + 1):
        expected = 1 if i % 2 == 0 else -1
        square_c = c * c
        twice = square_a + square_c - 3 * square_b
        if twice != 2 * expected:
            print(f"verify cassini: FAIL at i={i}: residual {twice}/2, expected {expected}")
            return 1
        b, c, square_a, square_b = c, b + c, square_b, square_c
    print(f"verify cassini: pass (i in 0..{bound})")
    return 0


def _verify_equivalence(bound: int) -> int:
    # both routes against the sequence walk: F(i) is the next member at or
    # above beta and F(i + 1) its successor; at the end F(i) exceeds the
    # bound, so F(1), ..., F(i - 1) are the distinct members checked
    i, member, following = 0, 1, 1
    for beta in range(1, bound + 1):
        index, alphas = None, ()
        if beta == member:
            index, alphas = i, ((1, 2) if beta == 1 else (following,))
            while member <= beta:
                i, member, following = i + 1, following, member + following
        trace = descend(beta)
        got = None if trace is None else trace.recovered_index
        if got != index:
            print(f"verify equivalence: FAIL at beta={beta}: descent index {got}, sequence {index}")
            return 1
        found = successors(beta).successors
        if found != alphas:
            print(f"verify equivalence: FAIL at beta={beta}: successors {found}, sequence {alphas}")
            return 1
    print(f"verify equivalence: pass (beta in 1..{bound}, {i - 1} Fibonacci values)")
    return 0


def _verify_parity(bound: int) -> int:
    hit = find_exact_solution(bound)
    if hit is not None:
        print(f"verify parity: FAIL: beta={hit[0]}, alpha={hit[1]} solves beta*(beta+alpha)=alpha^2")
        return 1
    print(f"verify parity: pass (no exact solution for beta in 1..{bound})")
    return 0


def _verify_convergence(bound: int) -> int:
    from . import geometry

    digits = max(50, geometry._digit_count(fib(bound)) + 15)
    rows = geometry._convergence_rows(bound, geometry.PrecisionConfig(digits=digits))
    prev = next(rows).error
    for n, _, cur in rows:
        if not abs(cur) < abs(prev):
            print(f"verify convergence: FAIL at n={n}: |error| {abs(cur)} >= {abs(prev)}")
            return 1
        if (cur > 0) == (prev > 0):
            print(f"verify convergence: FAIL at n={n}: error sign did not alternate")
            return 1
        prev = cur
    print(f"verify convergence: pass (n in 1..{bound} at {digits} digits)")
    return 0


# suite name -> (runner, default bound, ceiling).  _cmd_verify refuses a
# bound above the ceiling before the run starts.  Each ceiling is set by
# time, on a 2-vCPU VM (Python 3.11): equivalence costs 0.7-1.3 us a beta,
# 6-11 minutes at its ceiling; cassini's walk grows about 6 times per
# doubling of the bound (0.5 s at 20,000, 3.1 s at 40,000, 19 s at 80,000,
# 119 s at its ceiling); convergence's about 7 times (1.3 s at 10,000, 9.9 s at
# 20,000, 81 s at 40,000).  The descent decides parity at once for every
# bound, so it has no ceiling.
VERIFY_SUITES = {
    "cassini": (_verify_cassini, 300, 160_000),
    "equivalence": (_verify_equivalence, 100_000, 500_000_000),
    "parity": (_verify_parity, 1_000, None),
    "convergence": (_verify_convergence, 60, 40_000),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    runner, default, ceiling = VERIFY_SUITES[args.suite]
    bound = default if args.bound is None else args.bound
    if ceiling is not None and bound > ceiling:
        raise ValueError(f"verify {args.suite}: bound {bound} exceeds the ceiling (max {ceiling})")
    return runner(bound)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hippasus",
        description="Fibonacci numbers via the residual beta*(beta+alpha) - alpha**2: "
        "search, descent, Wasteels criterion, golden-ratio geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="print F(i) under the 1,1-start indexing")
    p.add_argument("i", type=_int_at_least(0))
    p.set_defaults(func=_cmd_fib)

    p = sub.add_parser("table", help="emit the Hippasus pair table for beta <= max-beta")
    p.add_argument("--max-beta", type=_int_at_least(1), required=True)
    # table.FORMATS, restated so that building the parser does not load table
    p.add_argument("--format", choices=("aligned", "csv", "json"), default="aligned")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="report Hippasus status, successors and descent")
    p.add_argument("beta", type=_int_at_least(1))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("descent", help="print the subtractive descent trace")
    p.add_argument("beta", type=_int_at_least(1))
    p.set_defaults(func=_cmd_descent)

    p = sub.add_parser("wasteels", help="test whether x, y are consecutive Fibonacci numbers")
    p.add_argument("x", type=_int_at_least(1))
    p.add_argument("y", type=_int_at_least(1))
    p.set_defaults(func=_cmd_wasteels)

    p = sub.add_parser("octagon", help="octagon geometry at index n with limit deviations")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--digits", type=_int_at_least(1), default=50)
    p.set_defaults(func=_cmd_octagon)

    p = sub.add_parser("phi-convergence", help="quotients F(n+1)/F(n) and their distance to phi")
    p.add_argument("--n-max", type=_int_at_least(1), required=True)
    p.add_argument("--digits", type=_int_at_least(1), default=50)
    p.set_defaults(func=_cmd_phi_convergence)

    p = sub.add_parser("verify", help="run an exhaustive range check")
    p.add_argument("suite", choices=VERIFY_SUITES)
    p.add_argument("--bound", type=_int_at_least(1), default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # a PrecisionTooLow can only come from a geometry already loaded
        geometry = sys.modules.get("hippasus.geometry")
        if geometry is not None and isinstance(exc, geometry.PrecisionTooLow):
            print(f"precision error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # the tool prints and parses arbitrarily large integers; drop the
    # interpreter's int<->str digit guard (present since 3.10.7) for this
    # process only, so that main() called in-process leaves it alone
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send what is still buffered
        # to devnull, so that the flush at exit is silent, and exit as a
        # shell reports a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
