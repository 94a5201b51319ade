"""Which functions of src/hlkit do the verbs, the gate and the worked
examples reach?

Run from anywhere, with the checkout's src on PYTHONPATH:

    PYTHONPATH=src python tests/reachability.py

A profile hook is set before hlkit is imported.  Then, in this process
and with their output discarded, the script runs every request of the
benchmark's CLI catalog (`perfbench/workloads.py::cli_catalog`), each
also with --json; `hlkit verify all`; --help on the top level, on every
verb and on every verify target; two refusals, of a span of powers of t
too wide to pack and of a flag that a verify target does not read; and
`scripts/worked_examples.py`.  None of them writes a file.  It prints
one JSON object: "uncalled", the qualified names (module.qualname) of
the functions defined in src/hlkit that no run called, and "failed",
the runs whose exit status was not the expected one.
"""

import contextlib
import io
import json
import runpy
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# id of each code object that ran -> the code object, which the dict
# keeps alive so that no other code object can take its id
_ran = {}


def _profile(frame, event, arg):
    if event == "call":
        _ran[id(frame.f_code)] = frame.f_code


sys.setprofile(_profile)

import hlkit  # noqa: E402
from hlkit import cli  # noqa: E402


def defined_functions(path, module):
    """{(file, first line, name): module.qualname} of every function
    that the source file defines, nested ones included; class bodies,
    lambdas and comprehensions are left out."""
    out = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if not hasattr(c, "co_consts"):
                continue
            if c.co_name.startswith("<"):
                walk(c, prefix)
            elif c.co_flags & CO_NEWLOCALS:  # a function
                out[c.co_filename, c.co_firstlineno, c.co_name] = (
                    f"{module}.{prefix}{c.co_name}"
                )
                walk(c, f"{prefix}{c.co_name}.<locals>.")
            else:  # a class body
                walk(c, f"{prefix}{c.co_name}.")

    walk(compile(path.read_text(), str(path), "exec"), "")
    return out


def requests():
    """(argv, expected exit status) of every run through `cli.main`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for group in workloads.cli_catalog().values():
        for argv in group:
            yield argv, 0
            # --json goes before a `--` that ends the options
            i = argv.index("--") if "--" in argv else len(argv)
            yield [*argv[:i], "--json", *argv[i:]], 0
    yield ["verify", "all"], 0
    yield ["--help"], 0
    for verb in cli.VERBS:
        yield [verb, "--help"], 0
    for target in cli.TARGETS:
        yield ["verify", target, "--help"], 0
    yield ["qprime", "2,1", "--on", "t^1000000000+x1+x2"], 2
    yield ["verify", "prodx", "-n", "3"], 2


def main():
    failed = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, want in requests():
            if cli.main(argv) != want:
                failed.append(" ".join(argv))
            sink.seek(0)
            sink.truncate()
        sys.argv = ["worked_examples.py"]
        try:
            runpy.run_path(str(ROOT / "scripts" / "worked_examples.py"), run_name="__main__")
        except SystemExit as e:
            if e.code:
                failed.append(f"worked_examples.py exits {e.code}")
    sys.setprofile(None)
    ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in _ran.values()}
    src = Path(hlkit.__file__).resolve().parent
    uncalled = []
    for path in sorted(src.glob("*.py")):
        # hlkit's modules are imported by their resolved file names
        module = f"hlkit.{path.stem}".removesuffix(".__init__")
        for key, name in defined_functions(path, module).items():
            if key not in ran:
                uncalled.append(name)
    print(json.dumps({"uncalled": sorted(uncalled), "failed": failed}))


if __name__ == "__main__":
    main()
