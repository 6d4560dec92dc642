"""The four workloads: seeded inputs, the timed operation, output checks
and the input profile of each.

Every input comes from the `random.Random` handed to `make_pool`, so one
seed always gives the same pool.  Pools are stratified: the seed draws
the matrices, degrees and witness seeds, but the share of each stratum
(matrix size, minimality, verdict kind, census size class) is fixed, so
that runs on different seeds measure the same mix of work.

Operations look library functions up through their modules at call
time (`decide.scan`, not a name bound at import), so that the traced run
sees them once `tracing.patch` has replaced the module attributes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from curvedet import cli, decide, degree_matrix, resolution, series, witness


class WrongOutput(Exception):
    """An operation returned something its check rejects."""


def _expect(condition: bool, message: str):
    if not condition:
        raise WrongOutput(message)


def _histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _shuffled(rng, grid):
    rows = [list(row) for row in grid]
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    return [[row[j] for j in cols] for row in rows]


def _dhb_grid(rng, n: int, minimal: bool, top: int):
    """A valid (n-1) x n presentation grid with potentials in [-top, top],
    with or without zero entries, rows and columns shuffled."""
    while True:
        u = sorted((rng.randint(-top, top) for _ in range(n - 1)), reverse=True)
        v = sorted(rng.randint(0, top) for _ in range(n))
        v = [x - v[0] for x in v]
        diag = [u[k] + v[k] for k in range(n - 1)]
        if min(diag) < 0 or max(diag) == 0:
            continue
        grid = [[ui + vj for vj in v] for ui in u]
        if all(x != 0 for row in grid for x in row) == minimal:
            return _shuffled(rng, grid)


def _square_grid(rng, n: int, reason: str, top: int, degrees: range):
    """A homogeneous n x n grid with degree in `degrees` whose
    representability verdict has the given reason, rows and columns
    shuffled."""
    while True:
        u = sorted((rng.randint(-top, top) for _ in range(n)), reverse=True)
        v = sorted(rng.randint(0, top) for _ in range(n))
        grid = [[ui + vj for vj in v] for ui in u]
        if sum(grid[k][k] for k in range(n)) in degrees and decide.representable(grid).reason == reason:
            return _shuffled(rng, grid)


def _hvector(rng, length: int) -> list[int]:
    """An admissible h-vector: full growth for a while, then non-increasing."""
    h = [1]
    growing = True
    while len(h) < length:
        last = h[-1]
        if growing and last == len(h) and rng.random() < 0.7:
            h.append(last + 1)
        else:
            growing = False
            h.append(rng.randint(max(1, last - 2), last))
    return h


def _dhb(grid):
    return degree_matrix.canonicalize(grid)[0]


# ---------------------------------------------------------------------------
# decide-sweep: many degrees per matrix
# ---------------------------------------------------------------------------

SWEEP_SIZES = range(2, 8)
SWEEP_PER_SIZE = 400
SWEEP_TOP = 8


def sweep_pool(rng) -> list:
    # a 1 x 2 presentation has no zero entry, so n = 2 is always minimal
    pool = [
        _dhb_grid(rng, n, minimal=n == 2 or i % 2 == 0, top=SWEEP_TOP)
        for n in SWEEP_SIZES
        for i in range(SWEEP_PER_SIZE)
    ]
    rng.shuffle(pool)
    return pool


def sweep_op(grid):
    Q = degree_matrix.canonicalize(grid)[0]
    dmax = Q.shifts[0] + 2
    scanned = decide.scan(Q, dmax)
    threshold = decide.stable_threshold(Q)
    cases = (
        [decide.corollary_case(Q, d) for d in range(1, dmax + 1)]
        if Q.is_numerically_minimal
        else []
    )
    return Q, scanned, threshold, cases


def sweep_check(grid, out):
    Q, scanned, threshold, cases = out
    b = Q.shifts
    dmax = b[0] + 2
    _expect([d for d, _ in scanned] == list(range(1, dmax + 1)), "scan skipped a degree")
    verdicts = [None] + [decision.verdict for _, decision in scanned]
    B = resolution.betti_of_matrix(Q)
    delta = resolution.scheme_degree(B)
    expected = next(
        (d for d in range(1, b[0] + 1) if verdicts[d] and resolution.hilbert_function(B, d) == delta),
        None,
    )
    _expect(threshold == expected, f"threshold {threshold}, scan gives {expected}")
    _expect(all(verdicts[threshold:]), "scan says no above the stable threshold")
    if Q.is_numerically_minimal:
        _expect(len(cases) == dmax, "corollary_case skipped a degree")
        for (d, decision), result in zip(scanned, cases):
            _expect(
                result.decision.to_json() == decision.to_json(),
                f"corollary_case disagrees with contains_subscheme at d={d}",
            )
            case = "i" if d >= b[0] else "ii" if d < b[-1] else "iii"
            _expect(result.case == case, f"case {result.case} at d={d}, expected {case}")
    else:
        _expect(cases == [], "corollary_case ran on a non-minimal matrix")


def sweep_profile(pool, outputs) -> dict:
    Qs = [_dhb(grid) for grid in pool]
    reasons = Counter()
    for out in outputs.values():
        reasons.update(decision.reason for _, decision in out[1])
    return {
        "ops_in_pool": len(pool),
        "n": _histogram(Q.n for Q in Qs),
        "minimal_share": sum(Q.is_numerically_minimal for Q in Qs) / len(Qs),
        "b1": _histogram(Q.shifts[0] for Q in Qs),
        "degrees_per_op_mean": sum(Q.shifts[0] + 2 for Q in Qs) / len(Qs),
        "threshold": _histogram(out[2] for out in outputs.values()),
        "reasons": dict(sorted(reasons.items())),
    }


# ---------------------------------------------------------------------------
# decide-census: one degree over many matrices
# ---------------------------------------------------------------------------

# (n, bound, minimal) size classes; the larger bounds only with small n,
# so that one call stays below about 0.3 s and a run holds 100 calls.
# Fifteen classes of four calls put p50 and p90 inside a class, not on
# the cost jump between two.
CENSUS_CLASSES = (
    (3, 3, False), (3, 4, False), (3, 4, True),
    (3, 5, False), (3, 5, True), (3, 6, False), (3, 6, True),
    (4, 3, False), (4, 3, True), (4, 4, False), (4, 4, True),
    (4, 5, True), (5, 3, False), (5, 3, True), (5, 4, True),
)
# A call's cost depends on d by up to 2x, so each class gets one degree
# from each band; the seed picks the degree within the band.
CENSUS_DEGREE_BANDS = ((2, 3), (5, 6), (8, 9), (11, 12))


def census_pool(rng) -> list:
    pool = [
        (n, rng.choice(band), bound, minimal)
        for n, bound, minimal in CENSUS_CLASSES
        for band in CENSUS_DEGREE_BANDS
    ]
    rng.shuffle(pool)
    return pool


def census_op(item):
    n, d, bound, minimal = item
    return decide.census(n, d, bound, minimal_only=minimal)


@lru_cache(maxsize=None)
def count_presentations(n: int, bound: int, minimal: bool) -> int:
    """The number of matrices `census(n, _, bound, minimal)` must visit,
    counted here without the library's enumerator."""
    count = 0
    for u_up in itertools.combinations_with_replacement(range(-bound, bound + 1), n - 1):
        u = u_up[::-1]
        for v_rest in itertools.combinations_with_replacement(range(bound + 1), n - 1):
            v = (0,) + v_rest
            diag = [u[k] + v[k] for k in range(n - 1)]
            if min(diag) < 0 or max(diag) == 0:
                continue
            if minimal and any(ui + vj == 0 for ui in u for vj in v):
                continue
            count += 1
    return count


def census_check(item, out):
    n, d, bound, minimal = item
    _expect(
        (out["n"], out["d"], out["bound"], out["minimalOnly"]) == (n, d, bound, minimal),
        "census echoes the wrong query",
    )
    _expect(out["yes"] + out["no"] == out["total"], "yes + no != total")
    _expect(sum(out["byReason"].values()) == out["total"], "reasons do not add up to total")
    expected = count_presentations(n, bound, minimal)
    _expect(out["total"] == expected, f"total {out['total']}, counted {expected}")


def census_profile(pool, outputs) -> dict:
    reasons = Counter()
    for out in outputs.values():
        reasons.update(out["byReason"])
    return {
        "ops_in_pool": len(pool),
        "n": _histogram(n for n, _, _, _ in pool),
        "bound": _histogram(bound for _, _, bound, _ in pool),
        "d": _histogram(d for _, d, _, _ in pool),
        "minimal_share": sum(minimal for *_, minimal in pool) / len(pool),
        "matrices_per_pass": sum(out["total"] for out in outputs.values()),
        "reasons": dict(sorted(reasons.items())),
    }


# ---------------------------------------------------------------------------
# witness-mix: line restrictions and rank bounds
# ---------------------------------------------------------------------------

# The cost of a report follows from its stratum: matrix size, degree and
# verdict for verify_representable; h-vector length, generator count and
# degree for verify_subscheme.  Strata follow a fixed schedule, so every
# seed has the same mix; the seed draws the matrices and witness seeds.
# Per 8 reports: 6 verify_representable (3 yes, 2 negative diagonal,
# 1 bad subdiagonal block) and 2 verify_subscheme.
WITNESS_REASONS = (
    decide.REASON_OK, decide.REASON_DIAGONAL, decide.REASON_OK,
    decide.REASON_SUBDIAGONAL, decide.REASON_OK, decide.REASON_DIAGONAL,
)
WITNESS_BLOCKS = 12
WITNESS_SQUARE_SIZES = (2, 3, 4, 5)
WITNESS_SQUARE_DEGREES = (2, 5, 8, 11, 14, 17)
# The largest degree with this verdict when potentials stay within 6.
WITNESS_SQUARE_DEGREE_CAP = {
    (2, decide.REASON_DIAGONAL): 5,
    (2, decide.REASON_SUBDIAGONAL): 11,
    (3, decide.REASON_DIAGONAL): 16,
}
WITNESS_TRIALS_SQUARE = 5
# (h-vector length, degree) of the verify_subscheme reports, all with
# three generators.  The membership test at degree d costs about d^4.5:
# d = 20 takes up to 0.6 s per trial, so higher degrees would leave too
# few reports in a run.  p90 falls among the d = 18 reports.  Every
# stable threshold here is at most 7, below these degrees.
WITNESS_SUBSCHEMES = ((3, 12), (4, 14), (5, 16), (6, 17), (5, 18), (5, 18), (7, 19), (4, 20))
WITNESS_SUB_GENERATORS = 3


@dataclass(frozen=True)
class WitnessItem:
    kind: str  # "representable" or "subscheme"
    grid: list
    seed: int
    degree: int | None = None


def _generic_presentation(rng, length: int, generators: int):
    """The generic-Betti presentation of a random h-vector of this length
    whose ideal has this many generators."""
    while True:
        Q = resolution.generic_betti(_hvector(rng, length)).to_dhb()
        if Q.n == generators:
            return Q


def witness_pool(rng) -> list:
    pool = []
    sub = 0
    for block in range(WITNESS_BLOCKS):
        n = WITNESS_SQUARE_SIZES[block % len(WITNESS_SQUARE_SIZES)]
        for r, reason in enumerate(WITNESS_REASONS):
            d = WITNESS_SQUARE_DEGREES[(block + r) % len(WITNESS_SQUARE_DEGREES)]
            d = min(d, WITNESS_SQUARE_DEGREE_CAP.get((n, reason), d))
            grid = _square_grid(rng, n, reason, top=6, degrees=range(d, d + 1))
            pool.append(WitnessItem("representable", grid, rng.randrange(2**31)))
        for _ in range(2):
            length, d = WITNESS_SUBSCHEMES[sub % len(WITNESS_SUBSCHEMES)]
            Q = _generic_presentation(rng, length, WITNESS_SUB_GENERATORS)
            pool.append(WitnessItem("subscheme", _shuffled(rng, Q.entries), rng.randrange(2**31), d))
            sub += 1
    rng.shuffle(pool)
    return pool


def witness_op(item: WitnessItem):
    if item.kind == "representable":
        return witness.verify_representable(item.grid, trials=WITNESS_TRIALS_SQUARE, seed=item.seed)
    Q = degree_matrix.canonicalize(item.grid)[0]
    return witness.verify_subscheme(Q, item.degree, trials=1, seed=item.seed)


def witness_check(item: WitnessItem, report):
    if item.kind == "representable":
        decision = decide.representable(item.grid)
        trials = WITNESS_TRIALS_SQUARE
    else:
        decision = decide.contains_subscheme(_dhb(item.grid), item.degree)
        trials = 1
    _expect(report.ok, f"witness mismatches: {report.mismatches[:2]}")
    _expect(report.verdict_checked == decision.to_json(), "witness checked another verdict")
    _expect((report.seed, report.trials) == (item.seed, trials), "report echoes the wrong run")
    _expect(len(report.observed_degrees) == trials, "a trial is missing")


def witness_profile(pool, outputs) -> dict:
    squares = [item for item in pool if item.kind == "representable"]
    subs = [item for item in pool if item.kind == "subscheme"]
    return {
        "ops_in_pool": len(pool),
        "kind": _histogram(item.kind for item in pool),
        "square_n": _histogram(len(item.grid) for item in squares),
        "square_d": _histogram(decide.representable(item.grid).degree for item in squares),
        "square_reason": _histogram(decide.representable(item.grid).reason for item in squares),
        "subscheme_n": _histogram(len(item.grid[0]) for item in subs),
        "subscheme_d": _histogram(item.degree for item in subs),
        "subscheme_b1": _histogram(_dhb(item.grid).shifts[0] for item in subs),
    }


# ---------------------------------------------------------------------------
# cli-oneshot: one interpreter per command, as the README runs the tool
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliItem:
    command: str
    params: tuple  # ((name, value), ...) in argv order; values are JSON-able

    def argv(self) -> list[str]:
        out = [self.command]
        for name, value in self.params:
            if value is True:
                out.append(f"--{name}")
            elif value is not False:
                out += [f"--{name}", value if isinstance(value, str) else json.dumps(value)]
        return out


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str = field(compare=False, default="")


def _cli_item(rng, command: str) -> CliItem:
    if command == "check-representable":
        reason = rng.choice((decide.REASON_OK, decide.REASON_DIAGONAL, decide.REASON_SUBDIAGONAL))
        grid = _square_grid(rng, rng.randint(2, 4), reason, top=3, degrees=range(1, 10))
        return CliItem(command, (("matrix", grid),))
    if command in ("check-subscheme", "corollary"):
        n = rng.randint(2, 4)
        grid = _dhb_grid(rng, n, minimal=n == 2 or command == "corollary" or rng.random() < 0.5, top=4)
        return CliItem(command, (("matrix", grid), ("degree", rng.randint(1, 10))))
    if command == "threshold":
        n = rng.randint(2, 5)
        return CliItem(command, (("matrix", _dhb_grid(rng, n, n == 2 or rng.random() < 0.5, top=5)),))
    if command == "scan":
        n = rng.randint(2, 5)
        grid = _dhb_grid(rng, n, n == 2 or rng.random() < 0.5, top=5)
        return CliItem(command, (("matrix", grid), ("dmax", rng.randint(4, 12))))
    if command == "hf":
        Q = _dhb(_dhb_grid(rng, rng.randint(2, 4), True, top=4))
        return CliItem(command, (
            ("gens", list(Q.minor_degrees)), ("syz", list(Q.shifts)), ("tmax", rng.randint(2, 10)),
        ))
    if command == "betti-from-hf":
        return CliItem(command, (("h", _hvector(rng, rng.randint(2, 8))),))
    if command == "series":
        curve = rng.randint(6, 8)
        props = [{"z": rng.randint(-1, 1), "kind": rng.choice((series.NONSPECIAL, series.EFFECTIVE))}
                 for _ in range(rng.randint(0, 2))]
        return CliItem(command, (
            ("curve-degree", curve), ("divisor-degree", rng.randint(2 * curve, 3 * curve)),
            ("series-dim", rng.randint(1, 2)), ("properties", props),
        ))
    if command == "witness":
        if rng.random() < 0.5:
            reason = rng.choice((decide.REASON_OK, decide.REASON_DIAGONAL, decide.REASON_SUBDIAGONAL))
            grid = _square_grid(rng, rng.randint(2, 4), reason, top=3, degrees=range(1, 7))
            degree = None
        else:
            while True:
                Q = resolution.generic_betti(_hvector(rng, rng.randint(2, 5))).to_dhb()
                degree = decide.stable_threshold(Q)
                if degree <= 6:
                    break
            grid = _shuffled(rng, Q.entries)
        params = (("matrix", grid),) + ((("degree", degree),) if degree else ())
        return CliItem(command, params + (("trials", 2), ("seed", rng.randrange(2**31))))
    if command == "enumerate":
        return CliItem(command, (
            ("n", rng.randint(2, 4)), ("degree", rng.randint(1, 8)), ("bound", rng.randint(1, 3)),
            ("minimal", rng.random() < 0.5),
        ))
    raise ValueError(f"unknown command {command}")


CLI_COMMANDS = (
    "check-representable", "check-subscheme", "corollary", "threshold", "scan",
    "hf", "betti-from-hf", "series", "witness", "enumerate",
)
CLI_ROUNDS = 15


def cli_pool(rng) -> list:
    pool = [_cli_item(rng, command) for _ in range(CLI_ROUNDS) for command in CLI_COMMANDS]
    rng.shuffle(pool)
    return pool


def cli_library_result(item: CliItem):
    """What the command must print, computed by direct library calls."""
    p = dict(item.params)
    c = item.command
    if c == "check-representable":
        return decide.representable(p["matrix"]).to_json()
    if c == "check-subscheme":
        return decide.contains_subscheme(_dhb(p["matrix"]), p["degree"]).to_json()
    if c == "corollary":
        result = decide.corollary_case(_dhb(p["matrix"]), p["degree"])
        return {**result.decision.to_json(), "case": result.case}
    if c == "threshold":
        return {"threshold": decide.stable_threshold(_dhb(p["matrix"]))}
    if c == "scan":
        return {"scan": [{"d": d, **decision.to_json()} for d, decision in decide.scan(_dhb(p["matrix"]), p["dmax"])]}
    if c == "hf":
        B = resolution.BettiData.of(p["gens"], p["syz"])
        return {
            "gens": list(B.gens),
            "syz": list(B.syz),
            "delta": resolution.scheme_degree(B),
            "stabilizationBound": resolution.stabilization_bound(B),
            "hf": [
                {"t": t, "hf": resolution.hilbert_function(B, t), "h0": resolution.h0_ideal(B, t)}
                for t in range(p["tmax"] + 1)
            ],
        }
    if c == "betti-from-hf":
        B = resolution.generic_betti(p["h"])
        return {"gens": list(B.gens), "syz": list(B.syz)}
    if c == "series":
        props = tuple(series.ShiftedProperty(x["z"], x["kind"]) for x in p["properties"])
        query = series.SeriesQuery(p["curve-degree"], p["divisor-degree"], p["series-dim"], props)
        return series.analyze(query).to_json()
    if c == "witness":
        if "degree" in p:
            report = witness.verify_subscheme(_dhb(p["matrix"]), p["degree"], trials=p["trials"], seed=p["seed"])
        else:
            report = witness.verify_representable(p["matrix"], trials=p["trials"], seed=p["seed"])
        return report.to_json()
    if c == "enumerate":
        return decide.census(p["n"], p["degree"], p["bound"], minimal_only=p["minimal"])
    raise ValueError(f"unknown command {c}")


def cli_subprocess_op(item: CliItem, env: dict, cwd: str) -> CliResult:
    with subprocess.Popen(
        [sys.executable, "-m", "curvedet.cli", *item.argv()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=cwd,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    return CliResult(proc.returncode, out, err)


def cli_in_process_op(item: CliItem) -> CliResult:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(item.argv())
    return CliResult(code, buffer.getvalue())


def cli_check(item: CliItem, result: CliResult):
    _expect(result.code == 0, f"{item.command} exited {result.code}: {result.stdout[-200:]} {result.stderr[-300:]}")
    try:
        body = json.loads(result.stdout)
    except json.JSONDecodeError:
        raise WrongOutput(f"{item.command} printed no JSON: {result.stdout[-200:]}") from None
    expected = json.loads(json.dumps(cli_library_result(item)))
    _expect(body == expected, f"{item.command} output differs from the library result")


def cli_profile(pool, outputs) -> dict:
    sizes = [len(dict(item.params)["matrix"][0]) for item in pool if "matrix" in dict(item.params)]
    answers = Counter()
    for result in outputs.values():
        body = json.loads(result.stdout)
        if "answer" in body:
            answers[body["answer"] + ":" + body.get("reason", "OK")] += 1
    return {
        "ops_in_pool": len(pool),
        "command": _histogram(item.command for item in pool),
        "matrix_cols": _histogram(sizes),
        "answers": dict(sorted(answers.items())),
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup_module: str  # what a fresh interpreter imports before the first op
    make_pool: Callable[[Any], list]
    op: Callable[[Any], Any]  # the timed unit of user work
    check: Callable[[Any, Any], None]  # raises WrongOutput
    profile: Callable[[list, dict], dict]
    subprocess_ops: bool = False
    traced_op: Callable[[Any], Any] | None = None  # in-process stand-in for a subprocess op


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def workloads(src: str, cwd: str) -> dict[str, Workload]:
    env = child_env(src)
    return {
        w.name: w
        for w in (
            Workload(
                "cli-oneshot", "curvedet.cli", cli_pool,
                lambda item: cli_subprocess_op(item, env, cwd), cli_check, cli_profile,
                subprocess_ops=True, traced_op=cli_in_process_op,
            ),
            Workload("decide-sweep", "curvedet", sweep_pool, sweep_op, sweep_check, sweep_profile),
            Workload("decide-census", "curvedet", census_pool, census_op, census_check, census_profile),
            Workload("witness-mix", "curvedet", witness_pool, witness_op, witness_check, witness_profile),
        )
    }
