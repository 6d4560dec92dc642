"""Command-line front end.

Inputs are JSON literals on argv (matrices as arrays of arrays of
integers); results are JSON on stdout.  Exit code 0 means the command
ran (verdicts live in the JSON body, never the exit code), 1 means the
input was rejected, 2 means a randomized verification contradicted a
decision.  Schema violations are reported with JSON pointer paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decide, resolution
from .degree_matrix import DHBMatrix, canonicalize
from .errors import CurvedetError


class InputError(Exception):
    """Invalid payload; rendered as an error object and exit code 1."""


def _parse_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag}: not valid JSON ({exc.msg} at position {exc.pos})")


def _check_matrix(value, pointer: str) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{pointer}: expected a non-empty array of rows")
    out = []
    for i, row in enumerate(value):
        out.append(_check_int_list(row, f"{pointer}/{i}"))
        if len(row) != len(value[0]):
            raise InputError(f"{pointer}/{i}: row length {len(row)} != {len(value[0])}")
    return out


def _check_int_list(value, pointer: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise InputError(f"{pointer}: expected a non-empty array of integers")
    for j, x in enumerate(value):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"{pointer}/{j}: expected an integer")
    return list(value)


def _matrix_arg(args) -> list[list[int]]:
    return _check_matrix(_parse_json(args.matrix, "--matrix"), "/matrix")


def _as_dhb(grid) -> DHBMatrix:
    Q, _, _ = canonicalize(grid)
    if not isinstance(Q, DHBMatrix):
        raise InputError("/matrix: expected an (n-1) x n matrix")
    return Q


def _decision_json(decision: decide.Decision, verbose: bool) -> dict:
    out = decision.to_json()
    if verbose:
        out["normalized"] = [list(row) for row in decision.normalized]
        out["trailingDegrees"] = [list(pair) for pair in decision.trailing_degrees]
    return out


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check_representable(args):
    return _decision_json(decide.representable(_matrix_arg(args)), args.verbose)


def _cmd_check_subscheme(args):
    Q = _as_dhb(_matrix_arg(args))
    return _decision_json(decide.contains_subscheme(Q, args.degree), args.verbose)


def _cmd_corollary(args):
    Q = _as_dhb(_matrix_arg(args))
    result = decide.corollary_case(Q, args.degree)
    out = _decision_json(result.decision, args.verbose)
    out["case"] = result.case
    return out


def _cmd_threshold(args):
    Q = _as_dhb(_matrix_arg(args))
    return {"threshold": decide.stable_threshold(Q)}


def _cmd_scan(args):
    Q = _as_dhb(_matrix_arg(args))
    return {
        "scan": [
            dict(d=d, **_decision_json(decision, args.verbose))
            for d, decision in decide.scan(Q, args.dmax)
        ]
    }


def _cmd_hf(args):
    gens = _check_int_list(_parse_json(args.gens, "--gens"), "/gens")
    syz = _check_int_list(_parse_json(args.syz, "--syz"), "/syz") if args.syz else []
    B = resolution.BettiData.of(gens, syz)
    delta, bound = resolution.scheme_degree(B), resolution.stabilization_bound(B)
    tmax = args.tmax if args.tmax is not None else max(bound + 1, 0)
    if tmax < 0:
        raise InputError(f"tmax must be >= 0, got {tmax}")
    decide._check_cells(f"hf to tmax = {tmax} over n = {B.n}", (tmax + 1) * B.n)
    return {
        "gens": list(B.gens),
        "syz": list(B.syz),
        "delta": delta,
        "stabilizationBound": bound,
        "hf": [
            {"t": t, "hf": resolution.hilbert_function(B, t), "h0": resolution.h0_ideal(B, t)}
            for t in range(tmax + 1)
        ],
    }


def _cmd_betti_from_hf(args):
    h = _check_int_list(_parse_json(args.h, "--h"), "/h")
    B = resolution.generic_betti(h)
    return {"gens": list(B.gens), "syz": list(B.syz)}


def _cmd_series(args):
    from . import series

    props = []
    if args.properties:
        raw = _parse_json(args.properties, "--properties")
        if not isinstance(raw, list):
            raise InputError("/properties: expected an array of {z, kind} objects")
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise InputError(f"/properties/{i}: expected an object")
            unknown = set(item) - {"z", "kind"}
            if unknown:
                raise InputError(f"/properties/{i}: unknown fields {sorted(unknown)}")
            if "z" not in item or not isinstance(item["z"], int) or isinstance(item["z"], bool):
                raise InputError(f"/properties/{i}/z: expected an integer")
            if item.get("kind") not in (series.NONSPECIAL, series.EFFECTIVE):
                raise InputError(f"/properties/{i}/kind: expected 'nonspecial' or 'effective'")
            props.append(series.ShiftedProperty(item["z"], item["kind"]))
    query = series.SeriesQuery(args.curve_degree, args.divisor_degree, args.series_dim, tuple(props))
    return series.analyze(query).to_json()


def _cmd_witness(args):
    from . import witness

    grid = _matrix_arg(args)
    rows, cols = len(grid), len(grid[0])
    prime = witness.DEFAULT_PRIME if args.prime is None else args.prime
    if rows == cols:
        report = witness.verify_representable(grid, trials=args.trials, seed=args.seed, prime=prime)
    elif rows + 1 == cols:
        if args.degree is None:
            raise InputError("--degree is required for an (n-1) x n matrix")
        report = witness.verify_subscheme(
            _as_dhb(grid), args.degree, trials=args.trials, seed=args.seed, prime=prime
        )
    else:
        raise InputError(f"/matrix: expected n x n or (n-1) x n, got {rows} x {cols}")
    return report.to_json()


def _cmd_enumerate(args):
    return decide.census(args.n, args.degree, args.bound, minimal_only=args.minimal)


# ---------------------------------------------------------------------------
# rendering and argument plumbing
# ---------------------------------------------------------------------------


def _render_table(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.append(_render_table(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for item in value:
            # a nested list stays on one line, like any other item
            if isinstance(item, dict) and item:
                lines.append(_render_table(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {item}")
        return "\n".join(lines).rstrip()
    return f"{pad}{value}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvedet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["json", "table"], default="json")

    def add(name: str, summary: str):
        return sub.add_parser(name, help=summary, parents=[output])

    def common(p):
        p.add_argument("--matrix", required=True, help="JSON array of arrays of integers")
        p.add_argument("--verbose", action="store_true",
                       help="check-representable, check-subscheme, corollary and scan add the "
                            "normalized matrix and trailing degrees; threshold and witness ignore it")

    p = add("check-representable", "decide determinantal representability")
    common(p)
    p.set_defaults(func=_cmd_check_representable)

    p = add("check-subscheme", "decide subscheme containment at a degree")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_check_subscheme)

    p = add("corollary", "closed-form containment decision with case tag")
    common(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_corollary)

    p = add("threshold", "least degree from which containment is stable")
    common(p)
    p.set_defaults(func=_cmd_threshold)

    p = add("scan", "containment decisions for d = 1..dmax")
    common(p)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_scan)

    p = add("hf", "Hilbert function of a resolution")
    p.add_argument("--gens", required=True, help="JSON array of generator degrees")
    p.add_argument("--syz", help="JSON array of syzygy degrees")
    p.add_argument("--tmax", type=int)
    p.set_defaults(func=_cmd_hf)

    p = add("betti-from-hf", "cancellation-free Betti numbers of an h-vector")
    p.add_argument("--h", required=True, help="JSON array: the h-vector")
    p.set_defaults(func=_cmd_betti_from_hf)

    p = add("series", "linear-series existence table on a general curve")
    p.add_argument("--curve-degree", type=int, required=True)
    p.add_argument("--divisor-degree", type=int, required=True)
    p.add_argument("--series-dim", type=int, required=True)
    p.add_argument("--properties", help='JSON array of {"z": int, "kind": "nonspecial"|"effective"}')
    p.set_defaults(func=_cmd_series)

    p = add("witness", "verify a decision by random sampling over F_p")
    common(p)
    p.add_argument("--degree", type=int, help="curve degree (required for (n-1) x n input)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int)  # None: witness.DEFAULT_PRIME
    p.set_defaults(func=_cmd_witness)

    p = add("enumerate", "census of containment decisions over bounded matrices")
    p.add_argument("--n", type=int, required=True, help="size of the square matrix (Q is (n-1) x n)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, required=True, help="potential bound")
    p.add_argument("--minimal", action="store_true", help="only numerically minimal matrices")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def run(argv) -> int:
    """Entry point used by tests: returns the exit code, output on stdout."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.func(args)
    except CurvedetError as exc:
        text, code = json.dumps(exc.payload()), 1
    except (InputError, ValueError) as exc:
        text, code = json.dumps({"error": "InputError", "message": str(exc)}), 1
    else:
        text = _render_table(result) if args.format == "table" else json.dumps(result)
        code = 2 if args.command == "witness" and result.get("mismatches") else 0

    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point stdout at devnull so
        # that the interpreter's flush at exit fails silently too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
