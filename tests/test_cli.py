"""Command-line surface: output text, JSON mode, exit codes."""

import argparse
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hlkit import cli
from hlkit.cli import TARGETS, VERBS, build_parser, main
from hlkit.alphabets import parse_alphabet
from hlkit.hall_littlewood import BasisExpansion, qprime_on_alphabet, qprime_schur
from hlkit.laurent import LaurentPoly, ONE as L_ONE, T
from hlkit.xpoly import XPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, *argv):
    """Exit 2 with a one-line error on stderr; returns stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    return captured.out


class TestExpansionVerbs:
    def test_qprime_schur_basis(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--basis", "S")
        assert code == 0
        assert out.strip() == "S[2,1] + t*S[3]"

    def test_qprime_vector_qp_basis(self, capsys):
        code, out = run(capsys, "qprime", "0,2", "--basis", "Qp")
        assert code == 0
        assert out.strip() == "(-1 + t)*Qp[1,1] + t*Qp[2]"

    def test_qprime_partition_index_qp_basis(self, capsys):
        # A partition index is its own Q' expansion: no back-substitution
        # through every partition of 13.
        code, out = run(capsys, "qprime", "1^13", "--basis", "Qp")
        assert code == 0
        assert out.strip() == "Qp[1,1,1,1,1,1,1,1,1,1,1,1,1]"

    def test_qprime_long_zero_vector(self, capsys):
        # A route that recurses once per entry overflows the stack here.
        code, out = run(capsys, "qprime", "0^1200")
        assert code == 0
        assert out.strip() == "S[]"

    def test_qprime_json_round_trip(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--basis", "S", "--json")
        assert code == 0
        assert BasisExpansion.from_json(json.loads(out)) == qprime_schur((2, 1))

    def test_qprime_on_alphabet(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--on", "1-x1")
        assert code == 0
        assert out.strip() == "x1^2 + (-1 - t)*x1 + t"

    @pytest.mark.parametrize("literal", ["t^-1-x1", "t^-1*x1*y1-x1*y1"])
    def test_qprime_on_negative_t_powers(self, capsys, literal):
        code, out = run(capsys, "qprime", "2", "--on", literal)
        assert code == 0
        want = qprime_on_alphabet((2,), parse_alphabet(literal))
        assert out.strip() == str(want)
        assert "t^-" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "expansion.json"
        code, out = run(capsys, "qprime", "2,1", "--out", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert BasisExpansion.from_json(data) == qprime_schur((2, 1))

    def test_aleph(self, capsys):
        code, out = run(capsys, "aleph", "2,2,1", "1")
        assert code == 0
        assert out.strip() == "t^2 + t^3 + t^4"

    def test_addone_terms(self, capsys):
        code, out = run(capsys, "addone", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == "Qp"
        assert {tuple(e["partition"]) for e in data["coeffs"]} == {(), (1,)}

    def test_subone_render(self, capsys):
        code, out = run(capsys, "subone", "1")
        assert code == 0
        assert out.strip() == "-Qp[] + Qp[1]"

    def test_pp_expand(self, capsys):
        from hlkit.hall_littlewood import plane_partition_qprime

        code, out = run(capsys, "pp-expand", "2,1", "2")
        assert code == 0
        assert out.strip() == str(plane_partition_qprime((2, 1), 2))


class TestOperandGrammar:
    """Every list operand reads the grammar of `partitions.parse_ints`."""

    @pytest.mark.parametrize(
        "spelling, same_as",
        [
            ("qprime 1^3", "qprime 1,1,1"),
            ("qprime [2,1]", "qprime 2,1"),
            ("qprime '(2 1)'", "qprime 2,1"),
            ("qprime -- -1^2", "qprime -- -1,-1"),
            ("qprime 0,2^2 --basis Qp", "qprime 0,2,2 --basis Qp"),
            ("charge 1^3", "charge 111"),
            ("charge '[3 4, 1 2]'", "charge 3412"),
            ("aleph 2^2,1 empty", "aleph 2,2,1 -"),
            ("tableaux [2,1] --weight 1^3", "tableaux 2,1 --weight 1,1,1"),
            ("verify factor --lambda 2^2 -r 1", "verify factor --lambda 2,2 -r 1"),
        ],
    )
    def test_spellings_agree(self, capsys, spelling, same_as):
        expected = run(capsys, *shlex.split(same_as))
        assert expected[0] == 0
        assert run(capsys, *shlex.split(spelling)) == expected


class TestCombinatoricsVerbs:
    def test_charge_digits(self, capsys):
        code, out = run(capsys, "charge", "3412")
        assert code == 0 and out.strip() == "4"

    def test_charge_commas(self, capsys):
        code, out = run(capsys, "charge", "3,4,1,2")
        assert code == 0 and out.strip() == "4"

    def test_tableaux(self, capsys):
        code, out = run(capsys, "tableaux", "2,1", "--weight", "1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "1 2 / 3",
            "1 3 / 2",
            "count: 2",
            "charge polynomial: t + t^2",
        ]

    def test_tableaux_long_column(self, capsys):
        code, out = run(capsys, "tableaux", "1^45", "--weight", "1^45")
        assert code == 0
        assert out.strip().splitlines()[-2:] == ["count: 1", "charge polynomial: 1"]

    def test_tableaux_nletters(self, capsys):
        code, out = run(capsys, "tableaux", "1,1", "--nletters", "2")
        assert code == 0
        assert "count: 1" in out

    def test_tableaux_non_partition_weight(self, capsys):
        code, out = run(capsys, "tableaux", "2,1", "--weight", "1,2")
        assert code == 0
        assert out.strip().splitlines() == [
            "1 2 / 2",
            "count: 1",
            "charge polynomial: undefined (some fillings have non-partition weight)",
        ]

    def test_tableaux_nletters_non_partition_weights(self, capsys):
        code, out = run(capsys, "tableaux", "3,2,1", "--nletters", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-2:] == [
            "count: 8",
            "charge polynomial: undefined (some fillings have non-partition weight)",
        ]
        code, out = run(capsys, "tableaux", "3,2,1", "--nletters", "3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 8 and data["charge_polynomial"] is None


class TestScalarAndFactor:
    def test_scalar_value(self, capsys):
        code, out = run(capsys, "scalar", "1,1", "1,1")
        assert code == 0
        assert out.strip() == "1 - t - t^2 + t^3"

    def test_scalar_orthogonal(self, capsys):
        code, out = run(capsys, "scalar", "2", "1,1", "-n", "2")
        assert code == 0 and out.strip() == "0"

    def test_scalar_rank_too_small(self, capsys):
        code, _ = run(capsys, "scalar", "1,1", "1,1", "-n", "1")
        assert code == 2

    def test_factor_check(self, capsys):
        code, out = run(capsys, "factor-check", "3,1", "2", "0")
        assert code == 0
        assert out.strip() == "factorization lam=[3, 1] r=0 n=2: holds"


class TestVerify:
    def test_warnaar(self, capsys):
        code, out = run(capsys, "verify", "warnaar", "--nx", "1", "--ny", "1", "--deg", "4")
        assert code == 0
        assert out.strip() == "warnaar nx=1 ny=1 deg=4: holds"

    def test_sigmaxy(self, capsys):
        code, out = run(capsys, "verify", "sigmaxy", "--nx", "1", "--ny", "1", "--deg", "4")
        assert code == 0
        assert "holds" in out

    def test_defq_note(self, capsys):
        code, out = run(capsys, "verify", "defq-note")
        assert code == 0

    def test_factor(self, capsys):
        code, out = run(capsys, "verify", "factor", "--lambda", "2,1", "-n", "2", "-r", "1")
        assert code == 0

    def test_theta_scalar(self, capsys):
        code, out = run(capsys, "verify", "theta-scalar", "--l", "2,1", "--m", "1,1", "-n", "2")
        assert code == 0

    def test_all_small(self, capsys):
        code, out = run(capsys, "verify", "all")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 13
        assert all(l.startswith("[PASS]") for l in lines)


X1 = XPoly.var("x1")
# The sides x1 and 2*x1, as the failure payloads print them.
UNEQUAL = (
    '"lhs": {"terms": [{"exps": [1], "poly": {"0": 1}}], "vars": ["x1"]}, '
    '"rhs": {"terms": [{"exps": [1], "poly": {"0": 2}}], "vars": ["x1"]}}'
)


def unequal_sides(*_args):
    return X1, X1 + X1


class TestVerifyFailures:
    """A check that finds a discrepancy exits 1 and prints it as JSON."""

    def fails(self, capsys, monkeypatch, name, fake, *argv):
        monkeypatch.setattr(cli, name, fake)
        code = main(list(argv))
        assert code == 1
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, argv, identity",
        [
            (
                "warnaar_sides",
                ("verify", "warnaar", "--nx", "1", "--ny", "1", "--deg", "2"),
                "warnaar nx=1 ny=1 deg=2",
            ),
            (
                "sigmaxy_sides",
                ("verify", "sigmaxy", "--nx", "1", "--ny", "2", "--deg", "3", "--json"),
                "sigmaxy nx=1 ny=2 deg=3",
            ),
            (
                "factorization_sides",
                ("verify", "factor", "--lambda", "2,1", "-n", "2", "-r", "1"),
                "factorization lam=[2, 1] r=1 n=2",
            ),
            (
                "factorization_sides",
                ("factor-check", "3,1", "2", "0"),
                "factorization lam=[3, 1] r=0 n=2",
            ),
        ],
    )
    def test_unequal_sides(self, capsys, monkeypatch, name, argv, identity):
        out = self.fails(capsys, monkeypatch, name, unequal_sides, *argv)
        assert out == f'{{"holds": false, "identity": "{identity}", {UNEQUAL}\n'

    def test_prodx_reports_each_case(self, capsys, monkeypatch):
        def sides(fam, n, deg):
            return (X1, X1) if n == 1 else (X1, T * X1)

        out = self.fails(
            capsys, monkeypatch, "prodx_sides", sides, "verify", "prodx", "--deg", "2"
        )
        expected = []
        for fam in (
            "delta at the empty partition",
            "Q over one extra variable",
            "fixed sparse family",
        ):
            expected.append(f"prodx [{fam}] n=1 deg=2: holds")
            expected.append(
                f'{{"holds": false, "identity": "prodx [{fam}] n=2 deg=2", '
                '"lhs": {"terms": [{"exps": [1], "poly": {"0": 1}}], "vars": ["x1"]}, '
                '"rhs": {"terms": [{"exps": [1], "poly": {"1": 1}}], "vars": ["x1"]}}'
            )
        assert out.splitlines() == expected

    def test_theta_scalar(self, capsys, monkeypatch):
        def parts(*_args):
            return {
                "pairing": T,
                "theta": L_ONE,
                "halfway": L_ONE,
                "signed_sum": L_ONE,
                "product_form": L_ONE,
            }

        out = self.fails(
            capsys, monkeypatch, "theta_scalar_parts", parts,
            "verify", "theta-scalar", "--l", "2,1", "--m", "1", "-n", "2",
        )
        assert out == (
            '{"halfway": {"0": 1}, "pairing": {"1": 1}, "product_form": {"0": 1}, '
            '"signed_sum": {"0": 1}, "theta": {"0": 1}}\n'
        )

    def test_defq_note(self, capsys, monkeypatch):
        real = cli.defq_note_parts
        out = self.fails(
            capsys, monkeypatch, "defq_note_parts",
            lambda: {**real(), "straightening_ok": False},
            "verify", "defq-note",
        )
        assert out == (
            '{"difference": {"terms": [{"exps": [1, 1], '
            '"poly": {"1": -1, "2": 1, "3": 1, "4": -1}}], "vars": ["x1", "x2"]}, '
            '"intermediate_ok": true, "kernel_relation": {"terms": [], "vars": []}, '
            '"proportional": false, "straightening_ok": false}\n'
        )


def argv_id(argv):
    """The test id of an argv: its words, a long one cut to its head
    and length."""
    return " ".join(a if len(a) <= 40 else f"{a[:8]}...({len(a)} chars)" for a in argv)


# Operands that argparse refuses, each with the argument its one-line
# error names.
NAMED_USAGE_ERRORS = [
    (("addone", "2^-1"), "argument partition:"),
    (("aleph", "2,,1", "1"), "argument outer:"),
    (("aleph", "[2,1", "1"), "argument outer:"),
    (("aleph", "2^", "1"), "argument outer:"),
    (("aleph", "2^x", "1"), "argument outer:"),
    (("aleph", "2", "1)"), "argument inner:"),
    (("charge", "1,,2"), "argument word:"),
    (("tableaux", "3", "--weight", "2,,1"), "argument --weight:"),
    (("verify", "theta-scalar", "--l", "2,1", "--m", "1,"), "argument --m:"),
    (("verify", "factor", "--lambda", "x"), "argument --lambda:"),
    (("verify", "warnaar", "--deg", "x"), "argument --deg:"),
    (("verify", "sigmaxy", "--deg", "x"), "argument --deg:"),
    (("verify", "prodx", "--deg", "x"), "argument --deg:"),
    (("scalar", "2,1", "2,1", "-n", "x"), "argument -n:"),
    (("verify", "frobnicate"), "argument target:"),
    (("pp-expand", "2,1", "x"), "argument n:"),
    (("qprime", "1^99999999999999999999"), "argument index:"),
    (("qprime", "1^1000000000"), "argument index:"),
    # past the 4300 digits that Python converts to an int
    (("qprime", "1^" + "9" * 5000), "argument index:"),
    (("qprime", "9" * 5000), "argument index:"),
    (("qprime",), "required: index"),
    (("frobnicate",), "argument verb:"),
]


# Requests that exit 2 with one `error:` line and print nothing.
MALFORMED_INPUT = [
    ("verify", "warnaar", "--nx", "-1"),
    ("verify", "sigmaxy", "--nx", "-1", "--deg", "2"),
    ("verify", "sigmaxy", "--ny", "-2", "--deg", "2"),
    ("qprime", "2,1", "--on", "X", "-n", "-1"),
    ("qprime", "2,1", "--on", "X"),
    ("qprime", "2,,1"),
    ("qprime", "2,1,"),
    ("qprime", "--", ",2,1"),
    ("tableaux", "2,1", "--nletters", "-1"),
    ("tableaux", "2,1", "--weight", "2,-1,2"),
    ("scalar", "3", "1,1,1,1", "-n", "2"),
    ("scalar", "1,1", "1,1", "-n", "1"),
    ("scalar", "2,1", "2,1", "-n", "0"),
    ("verify", "theta-scalar", "--l", "2,1", "--m", "1", "-n", "0"),
    ("verify", "factor", "--lambda", "2,1", "-n", "0"),
    ("verify", "warnaar", "--deg", "-1"),
    ("verify", "sigmaxy", "--deg", "-1"),
    ("verify", "prodx", "--deg", "-1"),
    # vacuous: at degree 0, or with no variables, both sides are 1
    ("verify", "warnaar", "--deg", "0"),
    ("verify", "sigmaxy", "--deg", "0"),
    ("verify", "prodx", "--deg", "0"),
    ("verify", "warnaar", "--nx", "0", "--ny", "0"),
    ("verify", "sigmaxy", "--nx", "0", "--ny", "0", "--deg", "2"),
    ("verify", "sigmaxy", "--nx", "0", "--ny", "1"),
    ("factor-check", "empty", "2", "0"),
    ("verify", "factor", "--lambda", "empty"),
    ("verify", "theta-scalar", "--l", "empty", "--m", "empty"),
    ("verify", "theta-scalar", "--l", "2,1", "--m", "empty"),
    # a target's required operands are missing
    ("verify", "factor"),
    ("verify", "theta-scalar"),
    # a verify flag that the target does not read
    ("verify", "prodx", "-n", "3"),
    ("verify", "warnaar", "-n", "5", "--l", "3,2", "-r", "4"),
    ("verify", "all", "--deg", "3", "--nx", "7"),
    ("verify", "factor", "--deg", "0"),
    ("verify", "--json", "prodx"),
    # an option that the rest of the request makes meaningless
    ("qprime", "2,1", "-n", "3"),
    ("qprime", "2,1", "--basis", "Qp", "--on", "x1"),
    ("tableaux", "2,1", "--weight", "1,1,1", "--nletters", "2"),
    ("pp-expand", "2,1", "-1"),
    ("aleph", "3,-1", "1"),
    ("charge", "122"),
    ("qprime", "1", "--on", "x1+"),
    ("qprime", "1", "--on", "x1++x2"),
    ("qprime", "1", "--on", "x1-"),
    ("qprime", "1", "--on", "-"),
    ("qprime", "1", "--on", "+"),
    # the walk would pack ints spanning 3 * 10^9 powers of t
    ("qprime", "2,1", "--on", "t^1000000000+x1+x2"),
    *(argv for argv, _ in NAMED_USAGE_ERRORS),
]


# The flags each `verify` target reads; it refuses the others.
VERIFY_READS = {
    "warnaar": {"--nx", "--ny", "--deg"},
    "sigmaxy": {"--nx", "--ny", "--deg"},
    "prodx": {"--deg"},
    "theta-scalar": {"--l", "--m", "-n"},
    "defq-note": set(),
    "factor": {"--lambda", "-n", "-r"},
    "all": set(),
}
# every `verify` flag, with a valid value
VERIFY_FLAGS = {
    "--nx": "1", "--ny": "1", "--deg": "2", "--l": "1", "--m": "1", "-n": "2",
    "--lambda": "2,1", "-r": "0",
}
# the operands a target requires
VERIFY_REQUIRED = {
    "theta-scalar": ("--l", "2,1", "--m", "1"), "factor": ("--lambda", "2,1")
}
UNREAD = [
    (target, flag)
    for target in VERIFY_READS
    for flag in VERIFY_FLAGS
    if flag not in VERIFY_READS[target]
]


class TestVerifyFlags:
    def test_thirteen_read_pairs(self):
        assert set(VERIFY_READS) == set(TARGETS)
        assert sum(map(len, VERIFY_READS.values())) == 13
        assert len(UNREAD) == 43

    @pytest.mark.parametrize("target, flag", UNREAD, ids=[" ".join(p) for p in UNREAD])
    def test_unread_flag_exits_2(self, capsys, target, flag):
        value = VERIFY_FLAGS[flag]
        argv = ["verify", target, *VERIFY_REQUIRED.get(target, ()), flag, value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {flag} {value}\n"


class TestErrorsAndDefaults:
    def test_missing_argument_exits_2(self, capsys):
        assert main(["qprime"]) == 2

    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_partition_exits_2(self, capsys):
        assert main(["aleph", "3,-1", "1"]) == 2

    def test_pp_expand_negative_count_exits_2(self, capsys):
        assert main(["pp-expand", "2,1", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_out_to_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        out = assert_usage_error(capsys, "qprime", "2,1", "--out", str(target))
        assert out == "" and not target.exists()

    @pytest.mark.parametrize("what", ["warnaar", "sigmaxy", "prodx"])
    def test_negative_degree_cap_exits_2(self, capsys, what):
        out = assert_usage_error(capsys, "verify", what, "--deg", "-1")
        assert "holds" not in out

    @pytest.mark.parametrize("what", ["warnaar", "sigmaxy", "prodx"])
    def test_zero_deg_env_exits_2(self, capsys, monkeypatch, what):
        # The cap once also came from HLKIT_DEG; now only --deg sets it,
        # and a cap of 0 is refused even where there are variables.
        monkeypatch.setenv("HLKIT_DEG", "6")
        letters = () if what == "prodx" else ("--nx", "1", "--ny", "1")
        out = assert_usage_error(capsys, "verify", what, *letters, "--deg", "0")
        assert "holds" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("scalar", "2,1", "2,1", "-n", "0"),
            ("verify", "theta-scalar", "--l", "2,1", "--m", "1", "-n", "0"),
            ("verify", "factor", "--lambda", "2,1", "-n", "0"),
        ],
    )
    def test_zero_count_exits_2(self, capsys, argv):
        assert_usage_error(capsys, *argv)

    @pytest.mark.parametrize("argv", MALFORMED_INPUT, ids=argv_id)
    def test_malformed_input_exits_2(self, capsys, argv):
        # One `error:` line on stderr leaves no room for a traceback.
        assert assert_usage_error(capsys, *argv) == ""

    @pytest.mark.parametrize(
        "argv, name",
        NAMED_USAGE_ERRORS,
        ids=[argv_id(argv) for argv, _ in NAMED_USAGE_ERRORS],
    )
    def test_usage_error_names_argument(self, capsys, argv, name):
        main(list(argv))
        assert name in capsys.readouterr().err

    def test_zero_variables_stay_valid(self, capsys):
        code, out = run(
            capsys, "verify", "warnaar", "--nx", "0", "--ny", "1", "--deg", "2"
        )
        assert code == 0
        assert out.strip() == "warnaar nx=0 ny=1 deg=2: holds"

    def test_deg_defaults_to_6(self, capsys, monkeypatch):
        monkeypatch.setenv("HLKIT_DEG", "2")  # no environment variable sets it
        code, out = run(capsys, "verify", "warnaar", "--nx", "1", "--ny", "1")
        assert code == 0
        assert out.strip() == "warnaar nx=1 ny=1 deg=6: holds"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hlkit", "charge", "21"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"

    @staticmethod
    def run_into_closed_pipe(argv, unbuffered):
        # The reader of the pipe is gone before hlkit writes, as with
        # `hlkit ... | head -0`; that is no usage error.  Buffered, the
        # write fails only when stdout is flushed.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "hlkit", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_141_silently(self, unbuffered):
        proc = self.run_into_closed_pipe(["verify", "prodx", "--deg", "3"], unbuffered)
        assert proc.returncode == 141
        assert proc.stderr == b""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["qprime", "--help"], ["verify", "--help"]],
        ids=["top", "qprime", "verify"],
    )
    def test_help_into_closed_stdout_exits_141_silently(self, argv, unbuffered):
        # argparse's own write would swallow the error when unbuffered
        proc = self.run_into_closed_pipe(argv, unbuffered)
        assert proc.returncode == 141
        assert proc.stderr == b""


# (argv, the class of the printed value, its text method)
ONE_FORM_CASES = [
    (("pp-expand", "1", "2"), XPoly, "__str__"),
    (("qprime", "1", "--on", "x1+x2"), XPoly, "__str__"),
    (("qprime", "2,1"), BasisExpansion, "render"),
    (("addone", "1"), BasisExpansion, "render"),
    (("aleph", "2,1", "1"), LaurentPoly, "__str__"),
    (("scalar", "1,1", "1,1"), LaurentPoly, "__str__"),
]


class TestOnlyTheAskedForm:
    """Text is built only without --json, the JSON payload only with
    --json or --out; the printed bytes are the same either way."""

    @staticmethod
    def refuse(monkeypatch, cls, name):
        def refused(self):
            raise AssertionError(f"{cls.__name__}.{name} was built")

        monkeypatch.setattr(cls, name, refused)

    @pytest.mark.parametrize(
        "argv, cls, text", ONE_FORM_CASES, ids=[argv_id(c[0]) for c in ONE_FORM_CASES]
    )
    def test_one_form_each(self, capsys, monkeypatch, tmp_path, argv, cls, text):
        _, want_text = run(capsys, *argv)
        _, want_json = run(capsys, *argv, "--json")
        with monkeypatch.context() as m:
            self.refuse(m, cls, "to_json")
            assert run(capsys, *argv) == (0, want_text)
        with monkeypatch.context() as m:
            self.refuse(m, cls, text)
            assert run(capsys, *argv, "--json") == (0, want_json)
        target = tmp_path / "out.jsonl"
        assert run(capsys, *argv, "--out", str(target)) == (0, want_text)
        assert target.read_text() == want_json


class TestOutFile:
    """--out FILE gets every JSON line that --json prints, in order."""

    def test_every_prodx_verdict(self, capsys, tmp_path):
        target = tmp_path / "verdicts.jsonl"
        code, out = run(capsys, "verify", "prodx", "--deg", "2", "--out", str(target))
        assert code == 0
        assert len(out.splitlines()) == 6 and all(
            line.endswith(" deg=2: holds") for line in out.splitlines()
        )
        code, json_out = run(capsys, "verify", "prodx", "--deg", "2", "--json")
        assert target.read_text() == json_out
        assert [json.loads(line)["holds"] for line in json_out.splitlines()] == [True] * 6

    def test_failures_too(self, capsys, monkeypatch, tmp_path):
        def sides(fam, n, deg):
            return (X1, X1) if n == 1 else (X1, T * X1)

        monkeypatch.setattr(cli, "prodx_sides", sides)
        target = tmp_path / "verdicts.jsonl"
        code = main(["verify", "prodx", "--deg", "2", "--json", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert target.read_text() == out
        assert [json.loads(line)["holds"] for line in out.splitlines()] == [
            True, False
        ] * 3

    def test_replaces_an_existing_file(self, capsys, tmp_path):
        target = tmp_path / "expansion.json"
        target.write_text("stale\n")
        code, out = run(capsys, "aleph", "2,2,1", "1", "--out", str(target))
        assert code == 0 and out == "t^2 + t^3 + t^4\n"
        assert target.read_text() == '{"2": 1, "3": 1, "4": 1}\n'

    def test_a_failed_request_keeps_an_existing_file(self, capsys, tmp_path):
        target = tmp_path / "expansion.json"
        target.write_text("keep\n")
        out = assert_usage_error(
            capsys, "qprime", "2,1", "--on", "bad!", "--out", str(target)
        )
        assert out == "" and target.read_text() == "keep\n"

    def test_verify_all(self, capsys, tmp_path):
        target = tmp_path / "gate.jsonl"
        code, out = run(capsys, "verify", "all", "--json", "--out", str(target))
        assert code == 0
        assert target.read_text() == out
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["criterion"] for row in rows] == list(range(1, 14))
        assert all(row["holds"] is True and row["title"] and row["detail"] for row in rows)


def bench_cli_catalog():
    """The benchmark's CLI requests by group (`perfbench/workloads.py`)."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.cli_catalog()


def parse_outcome(parser, argv, capsys):
    """What `parser` makes of argv: its namespace, usage error or help."""
    try:
        return vars(parser.parse_args(list(argv)))
    except ValueError as e:
        return f"error: {e}"
    except SystemExit:
        return capsys.readouterr().out


class TestVerbTable:
    """`main` builds only the parser of the verb and the `verify` target
    named first, and it reads the words after them; that parser must
    read every command line as the full one does."""

    def assert_same(self, argv, capsys):
        full = parse_outcome(build_parser(), argv, capsys)
        path = cli._named(argv)
        leaf = parse_outcome(build_parser(*path), argv[len(path):], capsys)
        assert leaf == full
        return full

    def test_catalog(self, capsys):
        requests = [argv for group in bench_cli_catalog().values() for argv in group]
        assert {argv[0] for argv in requests} == set(VERBS)
        full = build_parser()
        named = {}
        for argv in requests:
            namespace = parse_outcome(full, argv, capsys)
            assert isinstance(namespace, dict), argv
            path = tuple(cli._named(argv))
            assert path == tuple(argv[: 2 if argv[0] == "verify" else 1])
            one = named.setdefault(path, build_parser(*path))
            assert parse_outcome(one, argv[len(path):], capsys) == namespace, argv

    @pytest.mark.parametrize(
        "argv", [a for a in MALFORMED_INPUT if a[0] in VERBS], ids=argv_id
    )
    def test_malformed_input(self, capsys, argv):
        self.assert_same(argv, capsys)

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_help(self, capsys, verb):
        # `verify` takes its options after the target
        usage = "[-h]" if verb == "verify" else "[-h] [--json] [--out FILE]"
        assert self.assert_same((verb, "--help"), capsys).startswith(
            f"usage: hlkit {verb} {usage}"
        )

    @pytest.mark.parametrize("target", TARGETS)
    def test_target_help(self, capsys, target):
        text = self.assert_same(("verify", target, "--help"), capsys)
        usage = f"usage: hlkit verify {target} [-h] [--json] [--out FILE]"
        assert text.startswith(usage)
        options = text.split("options:\n", 1)[1].split()
        listed = {word.rstrip(",") for word in options if word.startswith("-")}
        assert listed == {"-h", "--help", "--json", "--out", *VERIFY_READS[target]}

    def test_help_at_every_width(self, capsys, monkeypatch):
        entries = [(), *((verb,) for verb in VERBS)]
        entries += [("verify", target) for target in TARGETS]
        texts = {}
        for columns in (40, 80, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            for entry in entries:
                argv = [*entry, "--help"]
                full = parse_outcome(build_parser(), argv, capsys)
                assert run(capsys, *argv) == (0, full), (columns, argv)
                texts.setdefault(entry, set()).add(full)
        # the width is read: the top level wraps its verb listing
        assert len(texts[()]) == 3

    def test_help_lists_every_verb(self, capsys):
        code, out = run(capsys, "--help")
        assert code == 0
        verbs = (
            "qprime,aleph,addone,subone,pp-expand,charge,tableaux,"
            "factor-check,scalar,verify"
        )
        assert f"{{{verbs}}}" in out
        assert tuple(VERBS) == tuple(verbs.split(","))

    def test_named_verb_builds_one_subparser(self, capsys, monkeypatch):
        built = []

        def spy(*path):
            built.append(path)
            return build_parser(*path)

        monkeypatch.setattr(cli, "build_parser", spy)
        for argv in (
            ["charge", "21"], ["--help"], ["q"], [], ["-h", "charge"],
            ["verify", "prodx", "--deg", "2"], ["verify", "--help"],
        ):
            main(argv)
        assert built == [
            ("charge",), (), (), (), (), ("verify", "prodx"), ("verify",)
        ]
        prodx = build_parser("verify", "prodx")
        full = parse_outcome(build_parser(), ["verify", "prodx", "--deg", "2"], capsys)
        assert parse_outcome(prodx, ["--deg", "2"], capsys) == full
        assert full["deg"] == 2 and full["target"] == "prodx"
        assert not any(
            isinstance(action, argparse._SubParsersAction) for action in prodx._actions
        )


def readme_cli_lines():
    """The `hlkit ...` lines of README's command-line block, as
    (argv, expected stdout or None): a comment holding `-> ` gives the
    exact output after it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition(" #")
        argv = shlex.split(command)
        assert argv[0] == "hlkit", line
        lines.append((argv[1:], comment.partition("-> ")[2] or None))
    return lines


def readme_tour():
    """README's "Library tour" block, as its import statement and the
    (expression, comment) pairs of the lines after it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imports, _, calls = block.strip().partition("\n\n")
    return imports, [tuple(s.strip() for s in line.split("#", 1)) for line in calls.splitlines()]


class TestReadme:
    def test_tour_comments(self):
        # guards the parsing of the tour's comments
        assert [comment for _, comment in readme_tour()[1]] == [
            "'S[2,1] + t*S[3]'",
            "'(-1 + t)*Qp[1,1] + t*Qp[2]'",
            "t^2 + t^3 + t^4",
            "the same value, directly",
            "t*x1^3 + (1 + t)*x1^2*x2 + ...",
            "4",
        ]

    def test_tour_block_runs(self):
        # A quoted comment is the repr of the value, "the same value" is
        # the line before's value, a trailing "..." elides the rest of
        # the str and any other comment is the whole str.
        imports, lines = readme_tour()
        names = {}
        exec(imports, names)
        previous = None
        for expr, comment in lines:
            value = eval(expr, names)
            if comment.startswith("'"):
                assert repr(value) == comment, expr
            elif comment == "the same value, directly":
                assert value == previous, expr
            elif comment.endswith("..."):
                assert str(value).startswith(comment[:-3]), expr
            else:
                assert str(value) == comment, expr
            previous = value

    def test_examples_have_outputs(self):
        # The five outputs the README states; guards the `-> ` parsing.
        assert [out for _, out in readme_cli_lines() if out] == [
            "S[2,1] + t*S[3]",
            "(-1 + t)*Qp[1,1] + t*Qp[2]",
            "-x1",
            "t^2 + t^3 + t^4",
            "4",
        ]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(argv, out, id=" ".join(argv))
            for argv, out in readme_cli_lines()
            if argv != ["verify", "all"]
        ],
    )
    def test_cli_block_runs(self, capsys, argv, expected):
        code, out = run(capsys, *argv)
        assert code == 0
        if expected is not None:
            assert out.strip() == expected
