"""Every function in src/hlkit is reached by a verb, the gate or the
worked examples, or is on the allowlist below with its reason.

`reachability.py` does the runs in a fresh process, under a profile
hook set before hlkit is imported, and reports the functions that
none of them called.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

ALLOWED_UNCALLED = {
    # The packed walk widens its digits, and repacks its states, only
    # once a coefficient outgrows them, which no verb's input reaches;
    # TestPackedWalk::test_widening_from_two_bits forces it.
    "hlkit.hall_littlewood._widen",
    "hlkit.hall_littlewood._repacked",
    # Python's data model: hashing and the repr of a polynomial, for
    # callers who put one in a set or print it at a prompt.
    "hlkit.laurent.LaurentPoly.__hash__",
    "hlkit.laurent.LaurentPoly.__repr__",
    "hlkit.xpoly.XPoly.__hash__",
    "hlkit.xpoly.XPoly.__repr__",
    # int - LaurentPoly; no library path puts a plain int on the left.
    "hlkit.laurent.LaurentPoly.__rsub__",
    # The public inverse of --json: a reader of the CLI's JSON lines
    # gets its objects back with them.
    "hlkit.hall_littlewood.BasisExpansion.from_json",
    "hlkit.laurent.LaurentPoly.from_json",
    "hlkit.xpoly.XPoly.from_json",
    # The benchmark traces these by name (perfbench/run.py), so they
    # stay in src/ until its next version (ROADMAP item 1).
    "hlkit.hall_littlewood.skew_qprime",
    "hlkit.tableaux.layer_chains",
}


def test_every_function_is_reached_or_allowed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "reachability.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == []
    uncalled = set(report["uncalled"])
    assert sorted(uncalled - ALLOWED_UNCALLED) == [], "reach these or allow them with a reason"
    assert sorted(ALLOWED_UNCALLED - uncalled) == [], "reached or gone: drop them from the list"
