"""Command-line surface: output text, JSON mode, exit codes."""

import json
import subprocess
import sys

import pytest

from hlkit.cli import main, _deg_default, DEFAULT_DEG
from hlkit.hall_littlewood import BasisExpansion, qprime_schur


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExpansionVerbs:
    def test_qprime_schur_basis(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--basis", "S")
        assert code == 0
        assert out.strip() == "S[2,1] + t*S[3]"

    def test_qprime_vector_qp_basis(self, capsys):
        code, out = run(capsys, "qprime", "0,2", "--basis", "Qp")
        assert code == 0
        assert out.strip() == "(-1 + t)*Qp[1,1] + t*Qp[2]"

    def test_qprime_json_round_trip(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--basis", "S", "--json")
        assert code == 0
        assert BasisExpansion.from_json(json.loads(out)) == qprime_schur((2, 1))

    def test_qprime_on_alphabet(self, capsys):
        code, out = run(capsys, "qprime", "2,1", "--on", "1-x1")
        assert code == 0
        assert out.strip() == "x1^2 + (-1 - t)*x1 + t"

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

    def test_tableaux_nletters(self, capsys):
        code, out = run(capsys, "tableaux", "1,1", "--nletters", "2")
        assert code == 0
        assert "count: 1" in out

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
        code, out = run(capsys, "verify", "all", "--small")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert len(lines) == 13
        assert all(l.startswith("[PASS]") for l in lines)


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

    def test_deg_default_env(self, monkeypatch):
        monkeypatch.delenv("HLKIT_DEG", raising=False)
        assert _deg_default() == DEFAULT_DEG
        monkeypatch.setenv("HLKIT_DEG", "4")
        assert _deg_default() == 4

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hlkit", "charge", "21"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"
