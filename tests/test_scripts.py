"""The scripts read their operands through hlkit's integer-list grammar,
and the gate script's JSON lines match `hlkit verify all --json`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def proc_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=proc_env(),
    )


def test_verify_all_refuses_unknown_criterion():
    # A number with no criterion used to run nothing and print "failures: 0".
    proc = run_script("verify_all.py", "--only", "99")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --only: criteria are numbered 1..13, got '99'" in proc.stderr


def test_verify_all_only_reads_the_grammar():
    proc = run_script("verify_all.py", "--only", "1^2")
    assert proc.returncode == 0
    assert [l[:10] for l in proc.stdout.splitlines() if l.startswith("[")] == [
        "[PASS]  1 "
    ]


def test_worked_examples_lam_is_a_partition():
    proc = run_script("worked_examples.py", "--lam", "1,2")
    assert proc.returncode == 0
    assert "Argument shifts of Q'_(2, 1)" in proc.stdout
    proc = run_script("worked_examples.py", "--lam", "2,,1")
    assert proc.returncode == 2 and "argument --lam: empty entry" in proc.stderr


def test_verify_all_json_lines():
    proc = run_script("verify_all.py", "--json", "--only", "1,3")
    assert proc.returncode == 0
    *verdicts, last = [json.loads(line) for line in proc.stdout.splitlines()]
    cli = subprocess.run(
        [sys.executable, "-m", "hlkit", "verify", "all", "--json"],
        capture_output=True,
        text=True,
        env=proc_env(),
    )
    by_num = {v["criterion"]: v for v in map(json.loads, cli.stdout.splitlines())}
    assert [v["criterion"] for v in verdicts] == [1, 3]
    for v in verdicts:
        seconds = v.pop("seconds")
        assert isinstance(seconds, float) and seconds >= 0
        assert v == by_num[v["criterion"]]
    assert set(last) == {"total", "failures"} and last["failures"] == 0
