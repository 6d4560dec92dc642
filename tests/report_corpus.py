"""The byte-identity corpus of witness reports, defined once.

Two groups of reports, each the JSON of a report, or of the error's
payload where a witness raises:

- subscheme: verify_subscheme(Q, d, trials=3, seed=d, prime=p) over
  iter_dhb_matrices (2, 3), (3, 3), (3, 4) and (4, 2), at d = 1..b_1 + 1
  and p in {7, 11, 101} with p > d;
- square: verify_representable(grid, trials=3, seed=d, prime=p) over the
  squares of test_square_census.RANGES, at p in {7, 101} with p > d.

A group's digest is the sha256 of its lines "key<TAB>report\\n" in
order.  `tests/report_corpus.txt` holds one line per group: name, count,
digest.  A change that alters reports by design regenerates it and lists
the keys that changed.  The script imports curvedet from the `src` of
its own checkout, so two checkouts compare with diff.  It is not a
pytest module.

    python tests/report_corpus.py                  # the group lines
    python tests/report_corpus.py > tests/report_corpus.txt
    python tests/report_corpus.py --check          # exit 1 on any difference
    python tests/report_corpus.py --keys subscheme # key<TAB>sha256[:16] per report
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from curvedet import CurvedetError, iter_dhb_matrices, verify_representable, verify_subscheme  # noqa: E402
from test_square_census import RANGES, squares  # noqa: E402

DIGESTS = HERE / "report_corpus.txt"
SUBSCHEME_RANGES = ((2, 3), (3, 3), (3, 4), (4, 2))
SUBSCHEME_PRIMES = (7, 11, 101)
SQUARE_PRIMES = (7, 101)


def _text(witness, *args, **kwargs) -> str:
    try:
        out = witness(*args, **kwargs).to_json()
    except CurvedetError as exc:
        out = exc.payload()
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def _grid(rows) -> str:
    return json.dumps([list(row) for row in rows], separators=(",", ":"))


def subscheme():
    for n, bound in SUBSCHEME_RANGES:
        for Q in iter_dhb_matrices(n, bound):
            for d in range(1, max(Q.shifts) + 2):
                for p in [p for p in SUBSCHEME_PRIMES if p > d]:
                    yield f"{_grid(Q.entries)} d={d} p={p}", _text(verify_subscheme, Q, d, trials=3, seed=d, prime=p)


def square():
    for n, bound in RANGES:
        for grid, d in squares(n, bound):
            for p in [p for p in SQUARE_PRIMES if p > d]:
                yield f"{_grid(grid)} d={d} p={p}", _text(verify_representable, grid, trials=3, seed=d, prime=p)


GROUPS = {"subscheme": subscheme, "square": square}


def group_line(name: str) -> str:
    digest, count = hashlib.sha256(), 0
    for key, text in GROUPS[name]():
        digest.update(f"{key}\t{text}\n".encode())
        count += 1
    return f"{name} {count} {digest.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS.name}; exit 1 on any difference")
    mode.add_argument("--keys", choices=GROUPS, metavar="GROUP", help="print key<TAB>sha256[:16] per report")
    args = parser.parse_args(argv)
    if args.keys:
        for key, text in GROUPS[args.keys]():
            print(f"{key}\t{hashlib.sha256(text.encode()).hexdigest()[:16]}")
        return 0
    lines = [group_line(name) for name in GROUPS]
    if not args.check:
        print("\n".join(lines))
        return 0
    expected = DIGESTS.read_text().splitlines()
    for line, want in zip(lines, expected):
        print(("ok   " if line == want else "DIFF ") + line + ("" if line == want else f"\n     expected {want}"))
    if lines != expected:
        print(f"report corpus differs from {DIGESTS.name}; list the changed keys with --keys GROUP")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
