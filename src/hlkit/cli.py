"""Command-line front end.

Pure plumbing: every verb parses its arguments, calls one library
operation, and prints the result in canonical order (text by default,
lossless JSON with --json; --out FILE gets every JSON line too).  Exit
codes: 0 success / identity holds, 1 a verification found a
discrepancy, 2 usage error, 141 the reader of stdout went away.

The verbs are data: `VERBS` maps each one to its handler, its help
text and its arguments, and `build_parser` reads that table.  `verify`
holds a nested table of the same shape, `TARGETS`, in place of a
handler: each target is a subcommand with only the options it reads,
so argparse refuses any other.  A process parses one command line, and
building a subparser costs about as much as a small request, so `main`
builds only the parser of the entry that the first words name and
parses the words after them: `charge 21` builds `charge`'s parser
alone, and `verify prodx --deg 3` `prodx`'s, with `verb` and `target`
set as the full tree sets them.  A level that no word names (no
arguments, `--help`, an unknown verb or target, an option before the
name) gets every entry, so the help listings and argparse's messages
are the same either way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter

from .laurent import LaurentPoly
from .partitions import parse_ints, parse_partition, parse_parts
from .xpoly import _linear_combination
from .alphabets import parse_alphabet
from .tableaux import NonDominantWeightError, charge, charge_tableau, enumerate_ssyt
from .hall_littlewood import (
    add_one,
    aleph,
    factorization_sides,
    plane_partition_qprime,
    qprime_of_vector,
    qprime_on_alphabet,
    qprime_vector_schur,
    sub_one,
)
from .identities import (
    defq_note_holds,
    defq_note_parts,
    prodx_example_families,
    prodx_sides,
    q_monomial_pairing,
    sigmaxy_sides,
    theta_scalar_holds,
    theta_scalar_parts,
    warnaar_sides,
)
from . import acceptance


def _positive(text):
    """A count or a degree cap (at cap 0 both sides of an identity are 1)."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonempty(text):
    """A partition at which the sides of an identity are not both 1."""
    lam = parse_partition(text)
    if not lam:
        raise ValueError(f"expected a nonempty partition, got {text!r}")
    return lam


def _word(text):
    """A word: compact digits (`3412`) or an integer list (`3,4,1,2`)."""
    text = text.strip()
    return tuple(map(int, text)) if text.isdecimal() else parse_ints(text)


def _operand(parse):
    """An argparse type that reads one operand with `parse`; a bad
    operand becomes argparse's `argument <name>: ...` usage error."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


PARTITION, VECTOR, WEIGHT, WORD, POSITIVE, NONEMPTY = map(
    _operand, (parse_partition, parse_ints, parse_parts, _word, _positive, _nonempty)
)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors take the one-line `error:` path of
    `main` instead of printing the usage text."""

    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        # argparse's own write swallows OSError, which would hide a
        # closed stdout from `main` when unbuffered.
        (file or sys.stdout).write(self.format_help())


def _emit(args, text, payload):
    """Print text(), or with --json payload() as one JSON line; with
    --out, also write that JSON line to FILE, afresh for the first line
    of a request.  Each form is built only when it is asked for."""
    if args.json or args.out:
        line = json.dumps(payload(), sort_keys=True)
        if args.out:
            with open(args.out, args.out_mode) as fh:
                fh.write(line + "\n")
            args.out_mode = "a"
        if args.json:
            print(line)
            return
    print(text())


def _cmd_qprime(args):
    if args.on is not None:
        if args.basis is not None:
            raise ValueError("--basis names an expansion; --on prints a polynomial")
        A = parse_alphabet(args.on, nx=args.n, ny=args.n)
        acc = _linear_combination(
            (qprime_on_alphabet(mu, A), c)
            for mu, c in qprime_of_vector(args.index).coeffs.items()
        )
        _emit(args, acc.__str__, acc.to_json)
        return 0
    if args.n is not None:
        raise ValueError("-n sizes the X/Y atoms of --on and needs --on")
    expand = qprime_of_vector if args.basis == "Qp" else qprime_vector_schur
    exp = expand(args.index)
    _emit(args, exp.render, exp.to_json)
    return 0


def _cmd_aleph(args):
    val = aleph(args.outer, args.inner)
    _emit(args, val.__str__, val.to_json)
    return 0


def _cmd_shift(args):
    exp = (add_one if args.verb == "addone" else sub_one)(args.partition)
    _emit(args, exp.render, exp.to_json)
    return 0


def _cmd_pp_expand(args):
    f = plane_partition_qprime(args.partition, args.n)
    _emit(args, f.__str__, f.to_json)
    return 0


def _cmd_charge(args):
    c = charge(args.word)
    _emit(args, c.__str__, lambda: {"word": list(args.word), "charge": c})
    return 0


def _cmd_tableaux(args):
    tabs = list(enumerate_ssyt(args.shape, weight=args.weight, nletters=args.nletters))
    lines = [" / ".join(" ".join(str(x) for x in row) for row in tab) for tab in tabs]
    lines.append(f"count: {len(tabs)}")
    try:
        gen = LaurentPoly(Counter(map(charge_tableau, tabs)))
        lines.append(f"charge polynomial: {gen}")
    except NonDominantWeightError:
        gen = None
        lines.append(
            "charge polynomial: undefined (some fillings have non-partition weight)"
        )
    payload = lambda: {
        "tableaux": [[list(row) for row in tab] for tab in tabs],
        "count": len(tabs),
        "charge_polynomial": None if gen is None else gen.to_json(),
    }
    _emit(args, lambda: "\n".join(lines), payload)
    return 0


def _report(args, ok, text, name, failure):
    """The one verdict path: print `text` (or the JSON verdict) and
    return 0 when the identity holds, else print the `failure` payload
    as one JSON line and return 1."""
    if ok:
        _emit(args, lambda: text, lambda: {"identity": name, "holds": True})
        return 0
    payload = {
        k: v.to_json() if hasattr(v, "to_json") else v for k, v in failure.items()
    }
    _emit(args, lambda: json.dumps(payload, sort_keys=True), lambda: payload)
    return 1


def _sides_report(args, name, lhs, rhs):
    failure = {"identity": name, "holds": False, "lhs": lhs, "rhs": rhs}
    return _report(args, lhs == rhs, f"{name}: holds", name, failure)


def _cmd_factor(args):
    """`factor-check` and `verify factor`."""
    lam, r, n = args.partition, args.r, args.n
    lhs, rhs = factorization_sides(lam, r, n)
    return _sides_report(args, f"factorization lam={list(lam)} r={r} n={n}", lhs, rhs)


def _cmd_scalar(args):
    lam, mu = args.outer, args.inner
    n = args.n or max(len(lam), len(mu), 1)
    val = q_monomial_pairing(lam, mu, n)
    _emit(args, val.__str__, val.to_json)
    return 0


def _verify_sides(args):
    if args.nx == 0 and args.ny == 0:
        raise ValueError("--nx and --ny cannot both be 0 (both sides are 1)")
    if args.nx == 0 and args.target == "sigmaxy":
        raise ValueError("sigmaxy needs --nx >= 1 (X + XY(1-t) is empty when nx = 0)")
    sides = warnaar_sides if args.target == "warnaar" else sigmaxy_sides
    lhs, rhs = sides(args.nx, args.ny, args.deg)
    name = f"{args.target} nx={args.nx} ny={args.ny} deg={args.deg}"
    return _sides_report(args, name, lhs, rhs)


def _verify_prodx(args):
    code = 0
    for name, fam in prodx_example_families(args.deg).items():
        for n in (1, 2):
            lhs, rhs = prodx_sides(fam, n, args.deg)
            name_n = f"prodx [{name}] n={n} deg={args.deg}"
            code = max(code, _sides_report(args, name_n, lhs, rhs))
    return code


def _verify_theta_scalar(args):
    lam, mu = args.l, args.m
    n = args.n or max(len(lam), len(mu))
    parts = theta_scalar_parts(lam, mu, n)
    text = f"theta-scalar lam={list(lam)} mu={list(mu)} n={n}: holds"
    return _report(args, theta_scalar_holds(parts), text, "theta-scalar", parts)


def _verify_defq_note(args):
    parts = defq_note_parts()
    text = "operator boundary study: all four statements hold"
    return _report(args, defq_note_holds(parts), text, "defq-note", parts)


def _verify_all(args):
    all_ok = True
    for num, title, fn in acceptance.CRITERIA:
        ok, detail = fn()
        flag = "PASS" if ok else "FAIL"
        _emit(
            args,
            lambda: f"[{flag}] {num:2d} {title}: {detail}",
            lambda: {
                "criterion": num, "title": title, "holds": bool(ok), "detail": detail
            },
        )
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _arg(*flags, **options):
    """One `add_argument` call, kept as data."""
    return flags, options


_DEG = _arg("--deg", type=POSITIVE, default=6, help="degree cap")
_SIDES = (
    _arg("--nx", type=int, default=2, help="x variables"),
    _arg("--ny", type=int, default=2, help="y variables"),
    _DEG,
)

# The targets of `verify`, in the shape of `VERBS`: name -> (handler,
# help, arguments).
TARGETS = {
    "warnaar": (_verify_sides, "two-alphabet identity with theta weights", _SIDES),
    "sigmaxy": (_verify_sides, "identity at the alphabet X + XY(1-t)", _SIDES),
    "prodx": (_verify_prodx, "one-variable removal on three families", (_DEG,)),
    "theta-scalar": (
        _verify_theta_scalar,
        "scalar-product chain of two theta-weighted series",
        (
            _arg("--l", type=NONEMPTY, required=True, help="lambda"),
            _arg("--m", type=NONEMPTY, required=True, help="mu"),
            _arg("-n", type=POSITIVE, help="rank (default: longest)"),
        ),
    ),
    "defq-note": (_verify_defq_note, "two-variable operator boundary study", ()),
    "factor": (
        _cmd_factor,
        "width-split factorization of Q'_lambda(t^r - X)",
        (
            _arg("--lambda", dest="partition", type=NONEMPTY, required=True),
            _arg("-n", type=POSITIVE, default=2, help="variables"),
            _arg("-r", type=int, default=0, help="power of t"),
        ),
    ),
    "all": (_verify_all, "the acceptance gate, one line per criterion", ()),
}

# Every verb, in the order `hlkit --help` lists them: name -> (handler,
# help, arguments), where a table in place of the handler nests one more
# level of subcommands.  Each leaf also takes --json and --out.
VERBS = {
    "qprime": (
        _cmd_qprime,
        "expand Q' of an integer vector",
        (
            _arg("index", type=VECTOR, help="integer vector, e.g. 2,1 or 0,2 or 1^3"),
            _arg("--basis", choices=("S", "Qp"), help="default S; not with --on"),
            _arg("--on", help="evaluate on an alphabet literal instead"),
            _arg("-n", type=int, default=None, help="size binding for X/Y atoms"),
        ),
    ),
    "aleph": (
        _cmd_aleph,
        "one-letter skew value of outer/inner",
        (_arg("outer", type=PARTITION), _arg("inner", type=PARTITION)),
    ),
    "addone": (
        _cmd_shift,
        "Q' expansion at the argument X+1",
        (_arg("partition", type=PARTITION),),
    ),
    "subone": (
        _cmd_shift,
        "Q' expansion at the argument X-1",
        (_arg("partition", type=PARTITION),),
    ),
    "pp-expand": (
        _cmd_pp_expand,
        "plane-partition (layer chain) expansion on n variables",
        (_arg("partition", type=PARTITION), _arg("n", type=int)),
    ),
    "charge": (
        _cmd_charge,
        "charge of a word, e.g. 3412 or 3,4,1,2",
        (_arg("word", type=WORD),),
    ),
    "tableaux": (
        _cmd_tableaux,
        "enumerate semistandard tableaux",
        (
            _arg("shape", type=PARTITION),
            _arg("--weight", type=WEIGHT, default=None),
            _arg("--nletters", type=int, default=None),
        ),
    ),
    "factor-check": (
        _cmd_factor,
        "check the width-split factorization for one case",
        (
            _arg("partition", type=NONEMPTY),
            _arg("n", type=int),
            _arg("r", type=int),
        ),
    ),
    "scalar": (
        _cmd_scalar,
        "constant-term pairing of Q_outer with the inner monomial",
        (
            _arg("outer", type=PARTITION),
            _arg("inner", type=PARTITION),
            _arg("-n", type=POSITIVE, help="variables (default: longest)"),
        ),
    ),
    "verify": (TARGETS, "run an identity verification", ()),
}


def _fill(parser, entry, dests, formatter):
    """Give `parser` the arguments of `entry`, or for a table one
    subcommand per entry, whose name goes to dests[0]."""
    fn, _, arguments = entry
    if isinstance(fn, dict):
        sub = parser.add_subparsers(dest=dests[0], required=True)
        for name, child in fn.items():
            # no abbreviations: `verify factor` would read `--l` as `--lambda`
            sp = sub.add_parser(
                name, help=child[1], allow_abbrev=False, formatter_class=formatter
            )
            _fill(sp, child, dests[1:], formatter)
        return
    parser.add_argument("--json", action="store_true", help="JSON to stdout")
    parser.add_argument("--out", metavar="FILE", help="also write JSON to FILE")
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(fn=fn)


def build_parser(*path):
    """The parser of the entry that `path` names (a verb, then a `verify`
    target; `()` is the top level), which reads the words after `path`
    and gives the namespace, help and messages of the full tree."""
    width = shutil.get_terminal_size().columns - 2  # once, not per argument
    formatter = lambda prog: argparse.HelpFormatter(prog, width=width)
    entry, dests = (VERBS, None, ()), ("verb", "target")
    for name in path:
        entry = entry[0][name]
    p = _Parser(
        prog=" ".join(("hlkit", *path)),
        description=None if path else "Exact Hall-Littlewood computations: "
        "expansions, argument shifts, plane partitions, identity verification.",
        allow_abbrev=not path,  # off below the top, as for `_fill`'s subcommands
        formatter_class=formatter,
    )
    p.set_defaults(**dict(zip(dests, path)))
    _fill(p, entry, dests[len(path):], formatter)
    return p


def piped(fn, *args):
    """fn(*args) with stdout flushed before it returns.  When the reader
    of stdout has gone, as with | head, the result is the exit status
    141 and no traceback."""
    try:
        try:
            return fn(*args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes what is left.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _named(argv):
    """The first words of argv that name table entries (a verb, then a
    target of `verify`): the path to `build_parser`, which reads the rest."""
    path, table = [], VERBS
    for word in argv:
        if not isinstance(table, dict) or word not in table:
            break
        path.append(word)
        table = table[word][0]
    return path


def _run(path, argv):
    args = build_parser(*path).parse_args(argv[len(path):])
    args.out_mode = "w"  # the first JSON line starts FILE afresh
    return args.fn(args)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # This process parses one command line, so only the entry that it
    # names is built; help, no verb or an unknown one needs them all.
    try:
        return piped(_run, _named(argv), argv)
    except SystemExit:  # --help; usage errors raise ValueError
        return 0
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
