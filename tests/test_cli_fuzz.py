"""Fuzzing the command line: every argv exits 0 or 2, never raises, and
every exit 2 is exactly one `error:` line on stderr.

Operands come from the integer-list grammar (commas and/or spaces,
`a^m`, brackets, the empty-list words, negatives) with junk spliced in:
empty fields, stray brackets, bad repeats, non-integers.  Valid lists
stay small (at most 4 entries, absolute sum at most 6 after `^`
expansion), so no request hits a slow route.  An exit 1 would be an
identity that fails; it is reported, not filtered.  A `verify` target
draws its options from its own argument list in `cli.TARGETS` three
times in four, every required one among them, so that its handler
runs; otherwise it draws from the options of every target, so that an
option it does not read, or a missing one, is refused.  `verify all`
is left out (it is the whole acceptance gate) and so is `--out`.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from hlkit.cli import TARGETS, main

# Each piece makes any operand it touches invalid.
JUNK = [",", ",,", "[", "]", "(", "2^", "^2", "2^-1", "2^x", "x", "1.5", "[[1]]"]


@st.composite
def entries(draw):
    out, budget = [], 6
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(max(-1, -budget), budget))
        out.append(a)
        budget -= abs(a)
    return out


@st.composite
def rendered(draw, v):
    """One spelling of the list v in the grammar."""
    tokens, i = [], 0
    while i < len(v):
        j = i
        while j < len(v) and v[j] == v[i]:
            j += 1
        if j - i > 1 and draw(st.booleans()):
            tokens.append(f"{v[i]}^{j - i}")
            i = j
        else:
            tokens.append(str(v[i]))
            i += 1
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), "5^0")
    text = draw(st.sampled_from(["", "-", "empty"])) if not tokens else tokens[0]
    for tok in tokens[1:]:
        text += draw(st.sampled_from([",", " ", ", ", " ,"])) + tok
    left, right = draw(st.sampled_from([("", ""), ("[", "]"), ("(", ")")]))
    return left + text + right


@st.composite
def operand(draw):
    """A list operand; one in four has junk spliced in."""
    text = draw(entries().flatmap(rendered))
    if draw(st.integers(0, 3)):
        return text
    junk = draw(st.sampled_from(JUNK))
    return junk + text if draw(st.booleans()) else text + junk


@st.composite
def count(draw):
    """An integer option; one in five is not an integer."""
    if draw(st.integers(0, 4)):
        return str(draw(st.integers(-1, 3)))
    return draw(st.sampled_from(["x", "", "1.5"]))


# Compact words: the shuffles of 112213 have partition weight (3,2,1).
WORD = st.one_of(operand(), st.permutations("112213").map("".join))
COUNT = count()
DEG = st.integers(-1, 4).map(str)
TARGET = st.sampled_from(sorted(set(TARGETS) - {"all"}))
ALPHABET = st.sampled_from(
    ["1-x1", "x1+x2", "t-x1", "x1*(1-t)", "(x1+x2)*(1-t)", "X", "1-X", "t^2-X",
     "X*(1-t)", "Y", "t^-1-x1", "t^-1*x1*y1-x1*y1", "x1+", "x1++x2", "x1-", "-",
     "+", "", "z", "X*", "-x1", "t^-", "t^+1"]
)

# verb -> (positional operands, {option: value strategy}); a `verify`
# target follows its verb
VERBS = {
    "qprime": (
        [operand()],
        {"--basis": st.sampled_from(["S", "Qp", "P"]), "--on": ALPHABET, "-n": COUNT},
    ),
    "aleph": ([operand(), operand()], {}),
    "addone": ([operand()], {}),
    "subone": ([operand()], {}),
    "pp-expand": ([operand(), COUNT], {}),
    "charge": ([WORD], {}),
    "tableaux": ([operand()], {"--weight": operand(), "--nletters": COUNT}),
    "factor-check": ([operand(), COUNT, COUNT], {}),
    "scalar": ([operand(), operand()], {"-n": COUNT}),
    "verify": (
        [],
        {"--nx": COUNT, "--ny": COUNT, "--deg": DEG, "--l": operand(),
         "--m": operand(), "-n": COUNT, "--lambda": operand(), "-r": COUNT},
    ),
}


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    positionals, options = VERBS[verb]
    argv, required, optional, dashes = [verb], [], sorted(options), True
    if verb == "verify":
        target = draw(TARGET)
        argv.append(target)
        if draw(st.integers(0, 3)):
            # The target's own options, each required one always drawn,
            # and no `--`, since a target takes no operand.
            own = TARGETS[target][2]
            required = [f[0] for f, kw in own if kw.get("required")]
            optional = [f[0] for f, kw in own if not kw.get("required")]
            dashes = False
    flags = draw(st.permutations(optional))
    for flag in required + flags[: draw(st.integers(0, len(flags)))]:
        argv += [flag, draw(options[flag])]
    if draw(st.booleans()):
        argv.append("--json")
    if dashes and draw(st.booleans()):
        argv.append("--")
    return argv + [draw(s) for s in positionals]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_every_argv_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, out.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
