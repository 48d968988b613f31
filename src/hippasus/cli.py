"""Command-line front-end.

Exit codes are a stable contract: 0 affirmative/success, 1 negative verdict
or counterexample found, 2 usage error, 3 precision error.
"""
from __future__ import annotations

import argparse
import sys

from . import geometry, table
from .descent import (
    DescentTrace,
    descend,
    find_exact_solution,
    is_fibonacci_by_descent,
    successors,
)
from .fibonacci import _in_range, cassini_residual, fib, fib_index_of
from .geometry import PrecisionConfig, PrecisionTooLow, _digit_count, convergence_table
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
    rows = table.build_rows(args.max_beta)
    sys.stdout.write(table.render(rows, args.format))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    beta = args.beta
    found = successors(beta).successors
    print(f"beta: {beta}")
    if not found:
        print("status: not-hippasus")
        print("successors: none")
        return 1
    print("status: hippasus")
    print("successors:", " ".join(str(a) for a in found))
    return _print_descent(DescentTrace(beta, fib_index_of(beta)))


def _cmd_descent(args: argparse.Namespace) -> int:
    trace = descend(args.beta)
    if trace is None:
        print(f"not a Hippasus number: {args.beta}")
        return 1
    return _print_descent(trace)


def _print_descent(trace: DescentTrace) -> int:
    # one value at a time: the whole walk from F(10**4) is 10 MB of digits
    write = sys.stdout.write
    write("descent:")
    for value in trace._walk():
        write(f" {value}")
    write("\n")
    print(f"fibonacci_index: {trace.recovered_index}")
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
    cfg = PrecisionConfig(digits=args.digits)
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
    cfg = PrecisionConfig(digits=args.digits)
    rows = convergence_table(args.n_max, cfg)
    print(f"phi: {geometry.phi(cfg)}")
    for row in rows:
        print(f"{row.n}  {row.ratio}  {row.error}")
    return 0


def _verify_cassini(bound: int) -> int:
    # the last residual needs F(bound + 2): refuse an unreachable bound now,
    # not after hours of smaller residuals
    _in_range(bound + 2)
    for i in range(bound + 1):
        expected = 1 if i % 2 == 0 else -1
        got = cassini_residual(i)
        if got != expected:
            print(f"verify cassini: FAIL at i={i}: residual {got}, expected {expected}")
            return 1
    print(f"verify cassini: pass (i in 0..{bound})")
    return 0


# The largest bounds equivalence and parity accept.  A beta costs 2.3-4.9 us
# and 0.13-0.24 us at small bounds on a 2-vCPU VM (Python 3.11), about 1.3
# and 3 times that near the ceilings (5*beta**2 outgrows 64 bits above
# 1.9e9), so a run at either ceiling takes 25-50 minutes; a larger bound is
# refused before the loop, not run for days.
_EQUIVALENCE_CEILING = 500_000_000
_PARITY_CEILING = 5_000_000_000


def _within(bound: int, ceiling: int, suite: str) -> None:
    if bound > ceiling:
        raise ValueError(f"verify {suite}: bound {bound} exceeds the ceiling (max {ceiling})")


def _verify_equivalence(bound: int) -> int:
    _within(bound, _EQUIVALENCE_CEILING, "equivalence")
    members = set()
    a, b = 1, 1
    while a <= bound:
        members.add(a)
        a, b = b, a + b
    count = 0
    for beta in range(1, bound + 1):
        by_descent = is_fibonacci_by_descent(beta)
        by_successor = bool(successors(beta).successors)
        by_sequence = beta in members
        if not (by_descent == by_successor == by_sequence):
            print(
                f"verify equivalence: FAIL at beta={beta}: "
                f"descent={by_descent} successors={by_successor} sequence={by_sequence}"
            )
            return 1
        count += by_sequence
    print(f"verify equivalence: pass (beta in 1..{bound}, {count} Fibonacci values)")
    return 0


def _verify_parity(bound: int) -> int:
    _within(bound, _PARITY_CEILING, "parity")
    hit = find_exact_solution(bound)
    if hit is not None:
        print(f"verify parity: FAIL: beta={hit[0]}, alpha={hit[1]} solves beta*(beta+alpha)=alpha^2")
        return 1
    print(f"verify parity: pass (no exact solution for beta in 1..{bound})")
    return 0


def _verify_convergence(bound: int) -> int:
    digits = max(50, _digit_count(fib(bound)) + 15)
    rows = convergence_table(bound, PrecisionConfig(digits=digits))
    for n in range(1, bound + 1):
        prev, cur = rows[n - 1].error, rows[n].error
        if not abs(cur) < abs(prev):
            print(f"verify convergence: FAIL at n={n}: |error| {abs(cur)} >= {abs(prev)}")
            return 1
        if (cur > 0) == (prev > 0):
            print(f"verify convergence: FAIL at n={n}: error sign did not alternate")
            return 1
    print(f"verify convergence: pass (n in 1..{bound} at {digits} digits)")
    return 0


# suite name -> (runner, default bound)
VERIFY_SUITES = {
    "cassini": (_verify_cassini, 300),
    "equivalence": (_verify_equivalence, 100_000),
    "parity": (_verify_parity, 1_000),
    "convergence": (_verify_convergence, 60),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    runner, default_bound = VERIFY_SUITES[args.suite]
    return runner(args.bound if args.bound is not None else default_bound)


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
    p.add_argument("--format", choices=table.FORMATS, default="aligned")
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
    except PrecisionTooLow as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # the tool prints and parses arbitrarily large integers; drop the
    # interpreter's int<->str digit guard (present since 3.10.7) for this
    # process only, so that main() called in-process leaves it alone
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())
