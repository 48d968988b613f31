"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""
import csv
import io
import json
import random
import subprocess
import sys
import time
from decimal import ROUND_DOWN, Decimal, localcontext
from pathlib import Path

import mpmath

from hippasus.descent import (
    HippasusPair,
    extend,
    is_fibonacci_by_descent,
    predecessor,
    successors,
    verify_no_exact_solution,
)
from hippasus.fibonacci import cassini_residual, fib_index_of
from hippasus.geometry import PrecisionConfig, convergence_table, octagon, octagon_limits
from hippasus.wasteels import classify, is_consecutive_fib
from oracles import walk

GOLDEN = Path(__file__).parent / "golden" / "table_max_beta_1000.txt"

TABLE_PAIRS = [
    (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21), (21, 34),
    (34, 55), (55, 89), (89, 144), (144, 233), (233, 377), (377, 610),
    (610, 987), (987, 1597),
]


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {label}{suffix}")
    return ok


def truncate_sig(x: Decimal, sig: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = sig
        ctx.rounding = ROUND_DOWN
        return +x


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "hippasus", "table", "--max-beta", "1000"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    golden = GOLDEN.read_text()
    rows = [line.split() for line in run.stdout.splitlines()[1:]]
    pairs = [(int(r[0]), int(r[1])) for r in rows]
    signs = [r[3][-2] for r in rows]
    ok = (
        run.returncode == 0
        and run.stdout == golden
        and pairs == TABLE_PAIRS
        and signs == ["+", "-"] * 8
        and elapsed < 1.0
    )
    assert report(1, "table --max-beta 1000 is byte-identical to the golden file",
                  ok, f"16 rows, {elapsed:.2f}s")


def test_criterion_2_cassini_identity():
    t0 = time.perf_counter()
    ok = all(cassini_residual(i) == (-1) ** i for i in range(301))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert report(2, "cassini_residual(i) == (-1)^i for i in 0..300",
                  ok, f"{elapsed:.2f}s")


def test_criterion_3_characterization_equivalence():
    members = frozenset(a for _, a, _ in walk(10**6))
    t0 = time.perf_counter()
    positives = 0
    first_bad = None
    for beta in range(1, 10**6 + 1):
        by_descent = is_fibonacci_by_descent(beta)
        by_successor = bool(successors(beta).successors)
        by_sequence = beta in members
        if not (by_descent == by_successor == by_sequence):
            first_bad = beta
            break
        positives += by_sequence
    elapsed = time.perf_counter() - t0
    ok = first_bad is None and positives == 29 and elapsed < 10.0
    assert report(3, "descent == successor search == sequence membership on 1..10^6",
                  ok, f"{positives} positives, {elapsed:.2f}s")


def test_criterion_4_uniqueness():
    ok = successors(1).successors == (1, 2)
    for beta in range(2, 10**5 + 1):
        found = successors(beta).successors
        if len(found) > 1 or (len(found) == 1) != (fib_index_of(beta) is not None):
            ok = False
            break
    assert report(4, "|successors| == 2 at beta=1, <= 1 on 2..10^5, == 1 exactly at Fibonacci beta", ok)


def test_criterion_5_sign_algebra():
    pairs = [HippasusPair.from_beta_alpha(b, a) for b, a in TABLE_PAIRS]
    chain = [HippasusPair(1, 1, 1)]
    for _ in range(10**4):
        chain.append(extend(chain[-1]))
    ok = all(p.sign == (-1) ** i for i, p in enumerate(pairs))
    checked = 0
    for p in pairs + chain:
        up = extend(p)
        if up.sign != -p.sign:
            ok = False
            break
        if p.alpha > p.beta:
            down = predecessor(p)
            if down.sign != -p.sign or extend(down) != p:
                ok = False
                break
        checked += 1
    assert report(5, "predecessor/extend negate the sign; extend after predecessor is identity",
                  ok, f"{checked} pairs")


def test_criterion_6_wasteels_desk_scale():
    t0 = time.perf_counter()
    first_bad = None
    for x in range(1, 2001):
        for y in range(1, 2001):
            if classify(x, y).consecutive != is_consecutive_fib(x, y):
                first_bad = (x, y)
                break
        if first_bad:
            break
    elapsed = time.perf_counter() - t0
    ok = first_bad is None and elapsed < 30.0
    assert report(6, "classify == is_consecutive_fib on (1..2000)^2",
                  ok, f"4x10^6 checks, {elapsed:.1f}s")


def test_criterion_7_no_exact_solution():
    ok = verify_no_exact_solution(10**4)
    assert report(7, "beta*(beta+alpha) never equals alpha^2 for beta <= 10^4", ok)


def test_criterion_8_golden_ratio_convergence():
    rows = convergence_table(60, PrecisionConfig(digits=50))
    ok = True
    for n in range(1, 61):
        if not abs(rows[n].error) < abs(rows[n - 1].error):
            ok = False
        if (rows[n].error > 0) == (rows[n - 1].error > 0):
            ok = False
    final_error = abs(rows[60].error)
    ok = ok and final_error < Decimal("1e-20")
    assert report(8, "|phi - F(n+1)/F(n)| strictly alternating-decreasing, final < 1e-20",
                  ok, f"|error(60)| = {final_error:.3E}")


def test_criterion_9_octagon_limits():
    cfg = PrecisionConfig(digits=50)
    geo = octagon(40, cfg)
    limits = octagon_limits(cfg)
    ratios = (geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
    tol = Decimal("1e-10")
    ok = all(abs(r - l) < tol for r, l in zip(ratios, limits))

    # independent re-derivation of the closed forms
    old_dps = mpmath.mp.dps
    mpmath.mp.dps = 60
    try:
        golden = (1 + mpmath.sqrt(5)) / 2
        rederived = (
            mpmath.sqrt(2) / 2 * (mpmath.sqrt(golden**4 - 1) - 1),
            mpmath.sqrt(2) / mpmath.sqrt(2 - mpmath.sqrt(2))
            * (mpmath.sqrt(1 - golden**-4) - golden**-2),
            mpmath.sqrt(2 - mpmath.sqrt(2)) / 2 * golden**2,
        )
        for ours, oracle in zip(limits, rederived):
            if abs(ours - Decimal(mpmath.nstr(oracle, 55))) > Decimal("1e-45"):
                ok = False
    finally:
        mpmath.mp.dps = old_dps

    # the published 6-figure values truncate the limits toward zero
    published = (Decimal("1.00375"), Decimal("1.00187"), Decimal("1.00187"))
    ok = ok and all(truncate_sig(l, 6) == p for l, p in zip(limits, published))
    assert report(9, "octagon ratios at n=40 match the closed-form limits to 1e-10; "
                     "limits re-derived and consistent with 1.00375/1.00187/1.00187",
                  ok, f"max deviation {max(abs(r - l) for r, l in zip(ratios, limits)):.3E}")


def test_criterion_10_product_identity():
    lim1, lim2, lim3 = octagon_limits(PrecisionConfig(digits=50))
    with localcontext() as ctx:
        ctx.prec = 50
        gap = abs(lim1 - lim2 * lim3)
    ok = gap < Decimal("1e-48")
    assert report(10, "first limit == second * third within 1e-48 at 50 digits",
                  ok, f"gap = {gap:.3E}")
