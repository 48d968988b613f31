"""Seeded inputs and expected results for the three benchmark workloads.

Nothing here imports hippasus.  Expected Fibonacci values come from plain
iterative addition, other expectations from the definitions in the package
README, and all of it is computed before the timed loop starts.

A workload is the op list of one *pass*; a run makes the same pass several
times, so every op is timed more than once.  A library op is a tuple
``(kind, args, expected)``, a CLI op ``(layer, argv, exit_code, expected)``.
"""
from __future__ import annotations

import random
from decimal import Decimal, localcontext

# Reference constants, 70 significant digits, computed independently of the
# package (mpmath at 80 digits): phi and the three octagon limit ratios.
PHI = Decimal("1.618033988749894848204586834365638117720309179805762862135448622705260")
OCTAGON_LIMITS = (
    Decimal("1.003755861787704301993794287768472599918449545698852744782338585940594"),
    Decimal("1.001874108911480817740005280390354892376693914739609358251960780559424"),
    Decimal("1.001878232863276581480099011957940153792868940527107836194313067765324"),
)


def fib_values(indices) -> dict[int, int]:
    """{i: F(i)} for the given indices, F(0) = F(1) = 1, by plain addition."""
    out = {}
    a, b, i = 1, 1, 0  # a = F(i), b = F(i + 1)
    for k in sorted(set(indices)):
        while i < k:
            a, b = b, a + b
            i += 1
        out[k] = a
    return out


def fib_prefix(count: int, above: int = 0) -> list[int]:
    """[F(0), F(1), ...]: at least ``count`` values, and past ``above``."""
    seq = [1, 1]
    while len(seq) < count or seq[-1] <= above:
        seq.append(seq[-1] + seq[-2])
    return seq


def _stratified(count: int, rng: random.Random, lo: int, hi: int) -> list[int]:
    """``count`` draws spread evenly over log(n) in [lo, hi]: draw k lies
    within a tenth of a step of the middle of the k-th of ``count`` equal
    steps, so that two seeds give different values at nearly the same cost."""
    return [round(lo * (hi / lo) ** ((k + rng.uniform(0.45, 0.55)) / count))
            for k in range(count)]


# --------------------------------------------------------------------------
# big_operands: cold, deep work on Fibonacci values with 200 to 20,900 digits
# --------------------------------------------------------------------------

ANCHOR_N = 100_000  # every pass starts here, so the peak RSS is the same every run
GROUPS = 12  # stratified indices per pass besides the anchor
LIMITS_CALLS = 4  # octagon_limits calls per pass, stratified digits
CONVERGENCE_N = 2000


def big_operands(seed: int) -> list:
    """The ops of one pass on F(n): n = 10^5, then 12 n spread over log(n) in
    [10^3, 10^5].

    The cost of most ops grows as n^2, so the largest draws set most of a
    pass's time; independent log-uniform draws would move it by tens of per
    cent from seed to seed, the near-even spread by about one per cent.
    """
    rng = random.Random(seed)
    ns = _stratified(GROUPS, rng, 1_000, ANCHOR_N)
    rng.shuffle(ns)
    ns.insert(0, ANCHOR_N)
    digits = _stratified(LIMITS_CALLS, rng, 1_000, 10_000)
    values = fib_values([k for n in ns for k in (n, n + 1)]
                        + [CONVERGENCE_N, CONVERGENCE_N + 1])
    # the CLI's own rule for convergence tables: digits of F(n) plus 15
    conv_digits = len(str(values[CONVERGENCE_N])) + 15
    ops = []
    for n in ns:
        f, f1 = values[n], values[n + 1]
        ops += [
            ("fib", (n,), f),
            ("fib_index_of", (f,), n),
            ("classify", (f, f1), (True, (n, n + 1), 1 if n % 2 else -1)),
            ("is_consecutive_fib", (f, f1), True),
            ("descend", (f,), n),
            ("successors", (f,), (f1,)),
            ("descend", (f + 1,), None),
            ("fib_index_of", (f + 1,), None),
            ("octagon", (n, 50), f),
        ]
    ops += [("octagon_limits", (d,), None) for d in digits]
    ops.append(("convergence_table", (CONVERGENCE_N, conv_digits),
                (values[CONVERGENCE_N], values[CONVERGENCE_N + 1])))
    return ops


# --------------------------------------------------------------------------
# small_sweep: warm cache hits and shallow rejects on small inputs
# --------------------------------------------------------------------------

SWEEP_BETAS = 100_000
SWEEP_CHUNKS = 10
CLASSIFY_EVERY = 10  # one classify op per 10 betas
CASSINI_PER_10 = (1, 0, 1, 0, 1, 0, 1, 0, 0, 0)  # cassini_residual ops per 10 betas
CASSINI_MIN_I = 1000
TABLE_BETA = 100_000
EXACT_BETA = 10_000


def small_sweep(seed: int):
    """The ops of one pass over a contiguous beta range up to 2 * 10^5, plus
    small cached lookups.

    Each op counts with its fastest pass, and a cheap call (successors,
    descend, classify) costs about 1.7 us at the host's faster speed and
    2.9 us at the slower one; in a stretch where the faster speed is rare,
    some calls never meet it.  The cheap calls are 84 % of ops, so the p50
    lies at their 60th percentile and stays at the faster speed unless 40 %
    of them never met it.  cassini_residual(i), i in [1000, 2000], is the
    other 16 %; its cost rises with i, so the p90 lies inside a continuous
    range of costs.  A pass is short (about 250,000 ops, lazily yielded) so
    that a run makes many of them.
    """
    rng = random.Random(seed)
    start = rng.randrange(SWEEP_BETAS - 10_000, SWEEP_BETAS) + 1
    fibs = fib_prefix(0, above=start + SWEEP_BETAS + TABLE_BETA)
    index, nxt = {}, {}
    for i in range(2, len(fibs) - 1):
        index[fibs[i]] = i
        nxt[fibs[i]] = fibs[i + 1]
    pairs = []
    for _ in range(SWEEP_BETAS // CLASSIFY_EVERY):
        if rng.random() < 0.05:
            i = rng.randrange(2, 21)
            x, y = fibs[i], fibs[i + 1]
        else:
            x, y = rng.randrange(1, 10_001), rng.randrange(1, 10_001)
        residual = y * y - x * y - x * x
        if x == 1 and y in (1, 2):  # the value 1 sits at indices 0 and 1
            expect = (True, (y - 1, y), residual)
        elif y == nxt.get(x):
            expect = (True, (index[x], index[x] + 1), residual)
        else:
            expect = (False, None, residual)
        pairs.append(((x, y), expect))

    rows = [(1, 1, 1), (1, 2, -1)] + [
        (f, fibs[i + 1], 1 if i % 2 == 0 else -1)
        for i, f in enumerate(fibs) if i >= 2 and f <= TABLE_BETA
    ]
    renders = render_expectations(rows)
    # heavy ops, one after each odd-numbered chunk
    heavy = [
        [("build_rows", (TABLE_BETA,), rows)],
        [("render", ("aligned",), renders["aligned"])],
        [("render", ("csv",), renders["csv"])],
        [("render", ("json",), renders["json"])],
        [("find_exact_solution", (EXACT_BETA,), None)],
    ]
    chunk = SWEEP_BETAS // SWEEP_CHUNKS

    # drawn while the pass runs, from its own generator
    cassini_rng = random.Random(rng.random())

    def ops():
        for c in range(SWEEP_CHUNKS):
            for beta in range(start + c * chunk, start + (c + 1) * chunk):
                k = beta - start
                a = nxt.get(beta)
                yield ("successors", (beta,), (a,) if a else ())
                yield ("descend", (beta,), index[beta] if a else None)
                for _ in range(CASSINI_PER_10[k % 10]):
                    i = cassini_rng.randrange(CASSINI_MIN_I, 2001)
                    yield ("cassini_residual", (i,), 1 if i % 2 == 0 else -1)
                if k % CLASSIFY_EVERY == 0:
                    args, expect = pairs[k // CLASSIFY_EVERY]
                    yield ("classify", args, expect)
            if c % 2:
                yield from heavy[c // 2]

    return ops()


def render_expectations(rows) -> dict:
    """The three table renderings as the package README specifies them; the
    JSON one as the parsed list of rows."""
    full = [(b, a, b + a, b * (b + a), s, a * a) for b, a, s in rows]
    headers = ("beta", "alpha", "sum", "product", "alpha_squared")
    cells = [(str(b), str(a), str(t), f"{a}^2{'+' if s > 0 else '-'}1", str(q))
             for b, a, t, _, s, q in full]
    widths = [max(len(h), *(len(c[k]) for c in cells)) for k, h in enumerate(headers)]
    aligned = "".join(
        "  ".join(v.rjust(w) for v, w in zip(line, widths)) + "\n"
        for line in [headers] + cells
    )
    csv = "beta,alpha,sum,product,sign,alpha_squared\n" + "".join(
        ",".join(map(str, r)) + "\n" for r in full
    )
    keys = ("beta", "alpha", "sum", "product", "sign", "alpha_squared")
    return {"aligned": aligned, "csv": csv, "json": [dict(zip(keys, r)) for r in full]}


# --------------------------------------------------------------------------
# cli_mix: one `python -m hippasus` subprocess per op
# --------------------------------------------------------------------------

USAGE_ERRORS = (
    ["fib", "-3"],
    ["fib", "twelve"],
    ["check", "0"],
    ["table", "--max-beta", "0"],
    ["wasteels", "3"],
    ["octagon"],
    ["no-such-command"],
)
PRECISION_ERRORS = (
    ["octagon", "--n", "40", "--digits", "10"],
    ["phi-convergence", "--n-max", "30", "--digits", "14"],
    ["phi-convergence", "--n-max", "200", "--digits", "50"],
)
VERIFY_SUITES = ("cassini", "equivalence", "parity", "convergence")


def cli_mix(seed: int, golden: bytes) -> list:
    """The ops of one pass: a round of 18 CLI calls in a seeded order.

    An op is ``(layer, argv, exit_code, expected)`` where ``expected`` is the
    exact stdout bytes, or a callable that returns an error string or None.
    """
    rng = random.Random(seed)
    fibs = fib_prefix(202)
    fib_set = set(fibs)
    # fib arguments spread over log(i) in [1, 10^5] like big_operands
    fib_args = _stratified(3, rng, 1, 100_000)
    fib_out = fib_values(fib_args)
    ops = [("cli.fib", ["fib", str(i)], 0, f"{fib_out[i]}\n".encode()) for i in fib_args]
    ops.append(("cli.table", ["table", "--max-beta", "1000"], 0, golden))
    i = rng.randrange(2, 201)
    beta, alpha = fibs[i], fibs[i + 1]
    descent = " ".join(str(fibs[k]) for k in range(i, -1, -1))
    other = _non_fib(rng, fibs[200], fib_set)
    ops.append(("cli.check", ["check", str(beta)], 0, (
        f"beta: {beta}\nstatus: hippasus\nsuccessors: {alpha}\n"
        f"descent: {descent}\nfibonacci_index: {i}\n").encode()))
    ops.append(("cli.check", ["check", str(other)], 1,
                f"beta: {other}\nstatus: not-hippasus\nsuccessors: none\n".encode()))
    i = rng.randrange(2, 201)
    descent = " ".join(str(fibs[k]) for k in range(i, -1, -1))
    ops.append(("cli.descent", ["descent", str(fibs[i])], 0,
                f"descent: {descent}\nfibonacci_index: {i}\n".encode()))
    other = _non_fib(rng, fibs[200], fib_set)
    ops.append(("cli.descent", ["descent", str(other)], 1,
                f"not a Hippasus number: {other}\n".encode()))
    i = rng.randrange(2, 200)
    x, y = fibs[i], fibs[i + 1]
    ops.append(("cli.wasteels", ["wasteels", str(x), str(y)], 0, (
        f"x: {x}\ny: {y}\nresidual: {1 if i % 2 else -1}\n"
        f"consecutive: yes\nindices: {i} {i + 1}\n").encode()))
    x, y = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
    residual = y * y - x * y - x * x
    while x <= y and residual in (1, -1):
        y += 1
        residual = y * y - x * y - x * x
    ops.append(("cli.wasteels", ["wasteels", str(x), str(y)], 1,
                f"x: {x}\ny: {y}\nresidual: {residual}\nconsecutive: no\n".encode()))
    ops.append(("cli.octagon", ["octagon", "--n", "40"], 0, _check_octagon))
    n_max = rng.randrange(5, 151)
    ops.append(("cli.phi-convergence", ["phi-convergence", "--n-max", str(n_max)], 0,
                _phi_checker(n_max, fibs)))
    for suite in VERIFY_SUITES:
        ops.append((f"cli.verify-{suite}", ["verify", suite], 0, _verify_checker(suite)))
    ops.append(("cli.usage_error", rng.choice(USAGE_ERRORS), 2, b""))
    ops.append(("cli.precision_error", rng.choice(PRECISION_ERRORS), 3, b""))
    rng.shuffle(ops)
    return ops


def _non_fib(rng: random.Random, hi: int, fib_set: set[int]) -> int:
    while True:
        v = rng.randrange(4, hi)
        if v not in fib_set:
            return v


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_octagon(out: bytes) -> str | None:
    f = _fields(out.decode())
    if f.get("n") != "40" or f.get("digits") != "50":
        return f"header {f.get('n')!r} {f.get('digits')!r}"
    if f.get("p", "").split(",")[0] != "(82790070.5":  # F(40) / 2
        return f"p = {f.get('p')!r}"
    for name, limit in zip(("d_over_f", "d_over_e", "e_over_f"), OCTAGON_LIMITS):
        ratio, lim = Decimal(f[name]), Decimal(f["limit_" + name])
        if abs(lim - limit) > Decimal("1e-48") or abs(ratio - limit) > Decimal("1e-12"):
            return f"{name} = {ratio}, limit {lim}"
    return None


def _phi_checker(n_max: int, fibs: list[int]):
    def check(out: bytes) -> str | None:
        lines = out.decode().splitlines()
        if len(lines) != n_max + 2 or not lines[0].startswith("phi: "):
            return f"{len(lines)} lines"
        if abs(Decimal(lines[0][5:]) - PHI) > Decimal("1e-48"):
            return f"phi = {lines[0][5:]}"
        with localcontext() as ctx:
            ctx.prec = 60
            for n, line in enumerate(lines[1:]):
                k, ratio, _ = line.split()
                exact = Decimal(fibs[n + 1]) / Decimal(fibs[n])
                if int(k) != n or abs(Decimal(ratio) - exact) > Decimal("1e-45"):
                    return f"row {n}: {line}"
        return None
    return check


def _verify_checker(suite: str):
    prefix = f"verify {suite}: pass".encode()

    def check(out: bytes) -> str | None:
        return None if out.startswith(prefix) and out.count(b"\n") == 1 else f"{out[:80]!r}"
    return check
