#!/usr/bin/env python3
"""Run the full verification battery with per-criterion timing.

Exit status is nonzero when any criterion fails, so this can anchor a
CI job.  `--only 4,9` restricts to the listed criterion numbers, read
in hlkit's integer-list grammar (`4 9`, `[4,9]` and `1^2` work too);
a number with no criterion exits 2.  `--json` prints one JSON line per
criterion, with the keys of `hlkit verify all --json` (criterion, title,
holds, detail) plus its `seconds`, and a last line with the `total`
seconds and the count of `failures`.
"""

import argparse
import json
import sys
import time

from hlkit.acceptance import CRITERIA
from hlkit.cli import VECTOR, piped


def criterion_numbers(text):
    """The `--only` set; refuses a number that names no criterion."""
    wanted = set(VECTOR(text))
    known = {num for num, _, _ in CRITERIA}
    if not wanted or not wanted <= known:
        raise argparse.ArgumentTypeError(
            f"criteria are numbered {min(known)}..{max(known)}, got {text!r}"
        )
    return wanted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", type=criterion_numbers, help="criterion numbers")
    ap.add_argument("--json", action="store_true", help="one JSON line per criterion")
    args = ap.parse_args(argv)

    failures = 0
    total_start = time.perf_counter()
    for num, title, fn in CRITERIA:
        if args.only is not None and num not in args.only:
            continue
        start = time.perf_counter()
        ok, detail = fn()
        took = time.perf_counter() - start
        if args.json:
            verdict = {"criterion": num, "title": title, "holds": bool(ok),
                       "detail": detail, "seconds": round(took, 4)}
            print(json.dumps(verdict))
        else:
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {num:2d} {title} ({took:.2f}s)")
            print(f"         {detail}")
        if not ok:
            failures += 1
    total = time.perf_counter() - total_start
    if args.json:
        print(json.dumps({"total": round(total, 4), "failures": failures}))
    else:
        print(f"total: {total:.2f}s, failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(piped(main))
