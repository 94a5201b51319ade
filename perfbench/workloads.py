"""Inputs, operations and output references of the hlkit benchmark.

Everything here drives hlkit from outside the library, through its
public modules.  Library calls go through module attributes looked up
at call time (``mods["hall_littlewood"].qprime_schur``), so that the
tracer in ``tracing.py`` can rebind them.

Three workloads, each a list of operations (``Op``):

- ``gate``: the 13 acceptance criteria in order; memos are cleared at
  the start of each pass only, as one ``scripts/verify_all.py`` process
  starts cold and reuses its memos across criteria.
- ``qprime``: the Schur-basis Q' scaling points of the three routes
  (charge, kernel, plane-partition); memos are cleared before each case.
- ``cli``: a seeded mix of small requests through ``hlkit.cli.main``;
  memos are cleared before each request, which models one process per
  command without re-importing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import pkgutil
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

WORKLOADS = ("gate", "qprime", "cli")

# Layers are the modules of src/hlkit, in dependency order.
LAYERS = (
    "laurent",
    "xpoly",
    "partitions",
    "tableaux",
    "symmetrize",
    "alphabets",
    "hall_littlewood",
    "identities",
    "acceptance",
    "cli",
)

CLI_REQUESTS_PER_GROUP = 50


class BenchError(RuntimeError):
    """The benchmark cannot run: missing program, reference or input."""


# ------------------------------------------------------------------ program


def import_hlkit():
    """Import every hlkit submodule from this checkout's ``src``.

    ``hlkit.__main__`` is never imported: it runs the CLI and exits.
    Returns {short module name: module}, with the package itself under
    the key ``"hlkit"``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import hlkit
    except ImportError as e:
        raise BenchError(f"cannot import hlkit from {SRC}: {e}") from e
    if Path(hlkit.__file__).resolve().parent != (SRC / "hlkit").resolve():
        raise BenchError(f"hlkit imported from {hlkit.__file__}, not from {SRC}")
    mods = {"hlkit": hlkit}
    for info in pkgutil.iter_modules(hlkit.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"hlkit.{info.name}")
    missing = [name for name in LAYERS if name not in mods]
    if missing:
        raise BenchError(f"hlkit has no module(s) {missing}")
    return mods


def src_lines():
    """Line count of src/hlkit/*.py (informational, tracked by the ROADMAP)."""
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "hlkit").glob("*.py"))
    )


class Memos:
    """Every ``functools.cache`` memo of hlkit, found by walking its modules.

    A memo is any module-level object with ``cache_clear`` and
    ``cache_info``; one imported into several modules counts once.  With
    ``stats`` on, ``clear`` first adds the memo's hits and misses to
    running totals and keeps the largest size it reached.
    """

    def __init__(self, mods):
        found = {}
        for mod in mods.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)
                ):
                    found[id(obj)] = obj
        self.memos = dict(
            sorted(
                (f"{obj.__module__.removeprefix('hlkit.')}.{obj.__qualname__}", obj)
                for obj in found.values()
            )
        )
        self.stats = False
        self.reset_stats()

    def reset_stats(self):
        self.hits = dict.fromkeys(self.memos, 0)
        self.misses = dict.fromkeys(self.memos, 0)
        self.entries = dict.fromkeys(self.memos, 0)

    def restart_stats(self):
        """Clear every memo, then count from zero with stats on."""
        self.stats = False
        self.clear()
        self.reset_stats()
        self.stats = True

    def clear(self):
        if self.stats:
            for name, memo in self.memos.items():
                info = memo.cache_info()
                self.hits[name] += info.hits
                self.misses[name] += info.misses
                self.entries[name] = max(self.entries[name], info.currsize)
        for memo in self.memos.values():
            memo.cache_clear()


# --------------------------------------------------------------- references


def digest(obj):
    """Short sha256 of the canonical JSON form of ``obj``."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_refs(workload):
    path = REFS / f"{workload}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as e:
        raise BenchError(f"missing reference file {path}") from e


# --------------------------------------------------------------- operations


@dataclass
class Op:
    """One operation: ``run()`` returns the output, ``check(output)`` says
    whether it equals the frozen reference."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    """``ops`` make one pass.  A user request is one operation on ``cli``
    (one command) and one pass elsewhere (one gate run, one sweep over
    the scaling points)."""

    name: str
    ops: list
    clear_each_op: bool
    requests_are_ops: bool = False


def gate_ops(mods, refs):
    acceptance = mods["acceptance"]
    ops = []
    for num, _title, fn in acceptance.CRITERIA:
        name = f"criterion_{num}"
        ref = refs[name]
        fname = fn.__name__

        def run(fname=fname):
            return getattr(acceptance, fname)()

        def check(out, ref=ref):
            ok, detail = out
            return ok is True and detail == ref["detail"]

        ops.append(Op(name, run, check))
    return ops


def partitions(n, max_part=None):
    """Partitions of n, largest part first, in reverse-lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# Scaling points: (route, case, argument).  1^9 on the kernel route
# (about 13 s) and |lam| = 12 on the charge route stay out: one case
# must fit a run.
QPRIME_CASES = (
    ("charge", "m8", 8),
    ("charge", "m9", 9),
    ("charge", "m10", 10),
    ("kernel", "ones6", (1,) * 6),
    ("kernel", "ones7", (1,) * 7),
    ("kernel", "ones8", (1,) * 8),
    ("plane_partition", "p321_n3", ((3, 2, 1), 3)),
    ("plane_partition", "p332_n4", ((3, 3, 2), 4)),
    ("plane_partition", "p4321_n4", ((4, 3, 2, 1), 4)),
)


def qprime_call(mods, route, arg):
    """Run one scaling case."""
    if route == "charge":
        return [mods["hall_littlewood"].qprime_schur(p) for p in arg]
    if route == "kernel":
        return mods["symmetrize"].kernel_schur(arg)
    lam, n = arg
    return mods["hall_littlewood"].plane_partition_qprime(lam, n)


def qprime_json(route, out):
    """A scaling case's output in canonical JSON form."""
    if route == "charge":
        return [e.to_json() for e in out]
    if route == "kernel":
        return sorted([list(p), c.to_json()] for p, c in out.items())
    return out.to_json()


def qprime_inputs():
    """[(route, case, argument)] with the charge cases expanded to their
    partition lists."""
    out = []
    for route, case, arg in QPRIME_CASES:
        if route == "charge":
            arg = tuple(partitions(arg))
        out.append((route, case, arg))
    return out


def qprime_ops(mods, refs):
    ops = []
    for route, case, arg in qprime_inputs():
        name = f"{route}.{case}"
        ref = refs[name]

        def run(route=route, arg=arg):
            return qprime_call(mods, route, arg)

        def check(out, route=route, ref=ref):
            return digest(qprime_json(route, out)) == ref["sha256"]

        ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------- CLI mix


def _fmt(parts):
    return ",".join(str(p) for p in parts)


def _subpartitions(lam):
    return [
        mu
        for m in range(sum(lam) + 1)
        for mu in partitions(m)
        if len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam))
    ]


def _dominated(mu, lam):
    a = b = 0
    for i in range(max(len(mu), len(lam))):
        a += mu[i] if i < len(mu) else 0
        b += lam[i] if i < len(lam) else 0
        if a > b:
            return False
    return True


def _words(weight, count):
    """Up to ``count`` evenly spaced distinct words of the given weight."""
    letters = [i + 1 for i, m in enumerate(weight) for _ in range(m)]
    words = sorted(set(itertools.permutations(letters)))
    step = max(1, len(words) // count)
    return words[::step][:count]


def cli_catalog():
    """Every request the CLI mix draws from, as {group: [argv, ...]}.

    All requests are valid as a user must type them: a vector with a
    leading negative entry goes after ``--``; ``tableaux`` gets a
    ``--weight`` or a letter bound; ``verify factor`` takes ``--lambda``
    and ``-r``.  Sizes stay at |lambda| <= 6, so parsing, rendering and
    per-object costs weigh as much as the algorithms.  ``verify all`` is
    left to the ``gate`` workload, and ``--out`` is not used because it
    writes files.
    """
    small = [p for n in range(1, 7) for p in partitions(n)]
    upto4 = [p for n in range(1, 5) for p in partitions(n)]
    upto3 = [p for n in range(1, 4) for p in partitions(n)]
    cat = {}

    cat["qprime"] = [
        ["qprime", _fmt(p), *opts]
        for p in small
        for opts in ([], ["--basis", "Qp"], ["--json"])
    ]

    vectors = []
    for length in (2, 3):
        for v in itertools.product(range(-1, 4), repeat=length):
            is_partition = all(a >= b for a, b in zip(v, v[1:])) and min(v) >= 0
            if 0 < sum(v) <= 5 and not is_partition:
                vectors.append(v)
    cat["qprime-vector"] = []
    for i, v in enumerate(vectors):
        opts = ["--basis", "Qp"] if i % 2 else []
        text = _fmt(v)
        argv = ["qprime", *opts, "--", text] if v[0] < 0 else ["qprime", text, *opts]
        cat["qprime-vector"].append(argv)

    alphabets = (
        ["1-x1"],
        ["x1+x2"],
        ["t-x1"],
        ["x1*(1-t)"],
        ["(x1+x2)*(1-t)"],
        ["X", "-n", "2"],
        ["1-X", "-n", "2"],
        ["t^2-X", "-n", "2"],
        ["X", "-n", "3"],
    )
    cat["qprime-on"] = [
        ["qprime", _fmt(p), "--on", *alpha] for p in upto4 for alpha in alphabets
    ]

    cat["aleph"] = [
        ["aleph", _fmt(lam), _fmt(mu) or "empty"]
        for lam in small
        for mu in _subpartitions(lam)
    ]
    cat["addone"] = [["addone", _fmt(p)] for p in small]
    cat["subone"] = [["subone", _fmt(p)] for p in small]
    cat["pp-expand"] = [["pp-expand", _fmt(p), str(n)] for p in small for n in (1, 2, 3)]

    charge = []
    for weight in (p for n in range(2, 7) for p in partitions(n)):
        for i, w in enumerate(_words(weight, 4)):
            text = _fmt(w) if i % 2 else "".join(map(str, w))
            charge.append(["charge", text])
    cat["charge"] = charge

    tabs = [
        ["tableaux", _fmt(shape), "--weight", _fmt(mu)]
        for n in range(1, 7)
        for shape in partitions(n)
        for mu in partitions(n)
        if _dominated(mu, shape)
    ]
    # A letter bound works only where every filling has partition
    # weight: one column filled by 1..k, or one row of 1s.
    for k in range(1, 7):
        tabs.append(["tableaux", _fmt((1,) * k), "--nletters", str(k)])
        tabs.append(["tableaux", str(k), "--nletters", "1"])
    cat["tableaux"] = tabs

    cat["factor-check"] = [
        ["factor-check", _fmt(p), str(n), str(r)]
        for p in small
        for n in (1, 2, 3)
        for r in (0, 1, 2)
    ]

    scalar = []
    for n in range(1, 5):
        for lam in partitions(n):
            for mu in partitions(n):
                if max(len(lam), len(mu)) <= 3:
                    scalar.append(["scalar", _fmt(lam), _fmt(mu)])
                    scalar.append(["scalar", _fmt(lam), _fmt(mu), "-n", "3"])
    cat["scalar"] = scalar

    verify = []
    for what in ("warnaar", "sigmaxy"):
        for nx, ny, deg in itertools.product((1, 2), (1, 2), (2, 3, 4)):
            verify.append(
                ["verify", what, "--nx", str(nx), "--ny", str(ny), "--deg", str(deg)]
            )
    verify += [["verify", "prodx", "--deg", str(d)] for d in (2, 3, 4)]
    verify.append(["verify", "defq-note"])
    verify += [
        ["verify", "factor", "--lambda", _fmt(p), "-n", str(n), "-r", str(r)]
        for p in small
        if sum(p) <= 5
        for n in (1, 2)
        for r in (0, 1)
    ]
    verify += [
        ["verify", "theta-scalar", "--l", _fmt(lam), "--m", _fmt(mu), "-n", str(n)]
        for lam in upto3
        for mu in upto3
        for n in range(max(len(lam), len(mu)), 4)
    ]
    cat["verify"] = verify
    return cat


def cli_key(argv):
    return " ".join(argv)


def cli_mix(seed):
    """The seed's request list: the same number from every group, then
    shuffled.

    Within a group the draw is systematic: evenly spaced through the
    catalog (which runs from small to large operands) from a seeded
    offset.  Every seed so gets the same spread of sizes, and the work
    in a pass depends little on the seed.
    """
    rng = random.Random(seed)
    mix = []
    k = CLI_REQUESTS_PER_GROUP
    for _group, requests in sorted(cli_catalog().items()):
        offset = rng.random()
        mix += [requests[int((i + offset) * len(requests) / k)] for i in range(k)]
    rng.shuffle(mix)
    return mix


def cli_call(mods, argv):
    """One in-process CLI request; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods["cli"].main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def cli_ops(mods, refs, seed):
    ops = []
    for argv in cli_mix(seed):
        key = cli_key(argv)
        if key not in refs:
            raise BenchError(f"no reference for request {key!r}")
        ref = refs[key]

        def run(argv=argv):
            return cli_call(mods, argv)

        def check(out, ref=ref):
            code, stdout = out
            return code == ref["exit"] and digest(stdout) == ref["sha256"]

        ops.append(Op(key, run, check))
    return ops


def build(name, seed, mods):
    """The workload's operations for this seed, with references attached."""
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    refs = load_refs(name)
    if name == "gate":
        return Workload(name, gate_ops(mods, refs), clear_each_op=False)
    if name == "qprime":
        return Workload(name, qprime_ops(mods, refs), clear_each_op=True)
    return Workload(name, cli_ops(mods, refs, seed), clear_each_op=True,
                    requests_are_ops=True)
