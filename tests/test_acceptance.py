"""Acceptance gate: every criterion runs and prints one line.

Run with -s (or read the -v output) to see the per-criterion lines;
each test fails loudly with the criterion's own detail string.
"""

import pytest

from hlkit import acceptance
from hlkit.acceptance import CRITERIA
from hlkit.laurent import T


@pytest.mark.parametrize(
    "num,title,fn", CRITERIA, ids=[f"criterion_{num:02d}" for num, _, _ in CRITERIA]
)
def test_criterion(num, title, fn):
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {title}: {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


def test_criterion_5_catches_a_wrong_aleph(monkeypatch):
    true_aleph = acceptance.aleph

    def perturbed(lam, mu):
        val = true_aleph(lam, mu)
        return val * T if (lam, mu) == ((3, 2, 1), (2, 1)) else val

    monkeypatch.setattr(acceptance, "aleph", perturbed)
    ok, detail = acceptance.criterion_5()
    assert ok is False, detail
