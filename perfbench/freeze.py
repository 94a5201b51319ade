"""Freeze the benchmark's output references into ``perfbench/refs``.

    python3 perfbench/freeze.py

Each reference is checked by an independent route before it is
written, wherever one runs in reasonable time:

- charge-route Q' (``qprime_schur``) against the kernel route
  (``kernel_schur``) for partitions of length <= 8, and the kernel
  cases against the charge route;
- ``plane_partition_qprime`` against ``tableau_route_xpoly``;
- gate criteria must report ok=True, with the same detail string on
  two cold runs;
- CLI requests must exit 0; ``qprime`` in the Schur basis is compared
  with the charge route, ``pp-expand`` with the tableau route,
  ``aleph`` with the column rule, ``tableaux --weight`` (count and
  charge polynomial) with the kernel route, and every
  ``verify``/``factor-check`` request must report that its identity
  holds.

Other CLI outputs are frozen as the current code prints them.  Each
reference records the route that checked it under ``checked_by``
(``null`` when none did).
"""

from __future__ import annotations

import json
import sys

import workloads as W

KERNEL_MAX_LENGTH = 8


def _write(name, refs):
    W.REFS.mkdir(exist_ok=True)
    path = W.REFS / f"{name}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    checked = sum(1 for r in refs.values() if r.get("checked_by"))
    print(f"{path.name}: {len(refs)} references, {checked} checked independently")


def freeze_gate(mods, memos):
    acceptance = mods["acceptance"]
    runs = []
    for _ in range(2):
        memos.clear()
        runs.append({num: fn() for num, _title, fn in acceptance.CRITERIA})
    refs = {}
    for num, title, _fn in acceptance.CRITERIA:
        (ok, detail), again = runs[0][num], runs[1][num]
        if ok is not True or again != (ok, detail):
            raise W.BenchError(f"criterion {num} is not a stable pass: {detail!r}")
        refs[f"criterion_{num}"] = {
            "title": title,
            "detail": detail,
            "checked_by": "two cold runs, ok=True",
        }
    _write("gate", refs)


def freeze_qprime(mods, memos):
    hl, sym = mods["hall_littlewood"], mods["symmetrize"]
    refs = {}
    for route, case, arg in W.qprime_inputs():
        memos.clear()
        out = W.qprime_json(route, W.qprime_call(mods, route, arg))
        if route == "charge":
            checked = 0
            for p, got in zip(arg, out):
                if len(p) <= KERNEL_MAX_LENGTH:
                    kernel = hl.BasisExpansion("S", sym.kernel_schur(p))
                    if kernel.to_json() != got:
                        raise W.BenchError(f"charge and kernel routes differ on {p}")
                    checked += 1
            by = f"kernel_schur on {checked} of {len(arg)} partitions"
        elif route == "kernel":
            charge = hl.qprime_schur(arg)
            if hl.BasisExpansion("S", sym.kernel_schur(arg)) != charge:
                raise W.BenchError(f"kernel and charge routes differ on {arg}")
            by = "qprime_schur"
        else:
            lam, n = arg
            if hl.tableau_route_xpoly(lam, n).to_json() != out:
                raise W.BenchError(f"plane-partition and tableau routes differ on {arg}")
            by = "tableau_route_xpoly"
        refs[f"{route}.{case}"] = {"sha256": W.digest(out), "checked_by": by}
    _write("qprime", refs)


def _independent_stdout(mods, group, argv):
    """Expected stdout of a request by another route, or None."""
    hl, partitions = mods["hall_littlewood"], mods["partitions"]
    verb, args = argv[0], argv[1:]
    if group == "qprime" and len(args) == 1:
        lam = partitions.parse_partition(args[0])
        return hl.qprime_schur(lam).render() + "\n"
    if group == "qprime" and args[1:] == ["--json"]:
        lam = partitions.parse_partition(args[0])
        return json.dumps(hl.qprime_schur(lam).to_json(), sort_keys=True) + "\n"
    if verb == "pp-expand":
        lam = partitions.parse_partition(args[0])
        return str(hl.tableau_route_xpoly(lam, int(args[1]))) + "\n"
    if verb == "aleph":
        lam, mu = (partitions.parse_partition(a) for a in args)
        return str(hl.skew_qprime_one_columns(lam, mu)) + "\n"
    return None


def _independent_tail(mods, argv):
    """Expected last two stdout lines of a ``tableaux --weight`` request,
    by the kernel route: K_{shape,weight}(t) is the S_shape coefficient of
    Q'_weight, and the tableau count is its value at t = 1."""
    if argv[0] == "tableaux" and argv[2] == "--weight":
        p = mods["partitions"].parse_partition
        kf = mods["symmetrize"].kernel_schur(p(argv[3]))[p(argv[1])]
        return [f"count: {sum(kf.coeffs.values())}", f"charge polynomial: {kf}"]
    return None


def freeze_cli(mods, memos):
    refs = {}
    for group, requests in sorted(W.cli_catalog().items()):
        for argv in requests:
            memos.clear()
            code, stdout = W.cli_call(mods, argv)
            key = W.cli_key(argv)
            if code != 0:
                raise W.BenchError(f"request {key!r} exited {code}")
            by = None
            expected = _independent_stdout(mods, group, argv)
            tail = _independent_tail(mods, argv)
            if expected is not None:
                if stdout != expected:
                    raise W.BenchError(f"request {key!r} differs from its oracle")
                by = "independent route"
            elif tail is not None:
                if stdout.rstrip("\n").splitlines()[-2:] != tail:
                    raise W.BenchError(f"request {key!r} differs from kernel_schur")
                by = "kernel_schur"
            elif group in ("verify", "factor-check"):
                if not all(line.endswith(("holds", "hold")) for line in stdout.splitlines()):
                    raise W.BenchError(f"request {key!r} does not hold: {stdout!r}")
                by = "identity holds"
            refs[key] = {"exit": code, "sha256": W.digest(stdout), "checked_by": by}
    _write("cli", refs)


def main():
    mods = W.import_hlkit()
    memos = W.Memos(mods)
    for freeze in (freeze_gate, freeze_qprime, freeze_cli):
        freeze(mods, memos)
    return 0


if __name__ == "__main__":
    sys.exit(main())
