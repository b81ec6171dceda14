"""Every verdict and witness of the recorded cases is unchanged: a fresh run
digests to the table that tests/verdict_digests.py wrote."""

import json

import pytest

from verdict_digests import CASES, TABLE, case_key, digests

RECORDED = json.loads(TABLE.read_text())


def test_table_covers_every_case():
    assert sorted(RECORDED) == sorted(case_key(a1, a2, cap) for a1, a2, cap, _ in CASES)


@pytest.mark.parametrize("a1,a2,cap,checks", CASES, ids=[case_key(*c[:3]) for c in CASES])
def test_verdicts_match_recorded_digests(a1, a2, cap, checks):
    assert digests(a1, a2, cap, checks) == RECORDED[case_key(a1, a2, cap)]
