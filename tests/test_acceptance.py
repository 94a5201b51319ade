"""Acceptance gate: every criterion runs and prints one line.

Run with -s (or read the -v output) to see the per-criterion lines;
each test fails loudly with the criterion's own detail string.
"""

import pytest

from hlkit import acceptance
from hlkit.acceptance import CRITERIA, run_all
from hlkit.laurent import T


@pytest.mark.parametrize(
    "num,title,fn", CRITERIA, ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA]
)
def test_criterion(num, title, fn):
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {title}: {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def test_run_all_aggregates():
    results = run_all()
    assert len(results) == 13
    assert all(ok for _, _, ok, _ in results)


def test_run_all_subset():
    results = run_all(numbers=[1, 13])
    assert [num for num, _, _, _ in results] == [1, 13]


def test_criterion_5_catches_a_wrong_aleph(monkeypatch):
    true_aleph = acceptance.aleph

    def perturbed(lam, mu):
        val = true_aleph(lam, mu)
        return val * T if (lam, mu) == ((3, 2, 1), (2, 1)) else val

    monkeypatch.setattr(acceptance, "aleph", perturbed)
    ok, detail = acceptance.criterion_5()
    assert ok is False, detail
