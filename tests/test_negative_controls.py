"""Negative controls: each test breaks one input of one check by monkeypatch
and runs every check at (3, 3), or at (2, 2) where the golden fixture runs.
The broken check must read `passed: false` without crashing, and every check
that does not read the broken input must keep the verdict of the unbroken run.
A break that makes a check raise instead names it with the start of its
`error` witness."""

import dataclasses

import pytest

from quivertilt import cluster, reps, tilting
from quivertilt.family import FamilyInstance, family_instance
from quivertilt.fpoly import IntPoly
from quivertilt.quiver import TypeLabel, r
from quivertilt.report import run_checks

A1, A2 = 3, 3


def verdicts(report):
    return {c.check_id: (c.passed, c.skipped) for c in report.checks}


@pytest.fixture(scope="module")
def baseline():
    return verdicts(run_checks(A1, A2))


@pytest.fixture(scope="module")
def baseline_22():
    return verdicts(run_checks(2, 2))


def assert_only_broken(baseline, broken, errors=None, instance=(A1, A2)):
    """`broken` read `passed: false`; each check in `errors` reads it with an
    `error` witness that starts with the given text; nothing else moves."""
    errors = errors or {}
    report = run_checks(*instance)
    got = verdicts(report)
    moved = set(broken) | set(errors)
    for check_id in moved:
        assert baseline[check_id] == (True, False), check_id
        assert got[check_id] == (False, False), check_id
    by_id = {c.check_id: c for c in report.checks}
    assert not any("error" in by_id[check_id].witness for check_id in broken)
    for check_id, text in errors.items():
        assert by_id[check_id].witness["error"].startswith(text), by_id[check_id].witness
    assert {k: v for k, v in got.items() if k not in moved} == {
        k: v for k, v in baseline.items() if k not in moved
    }


class PatchedReps:
    """One module's view of reps with some functions replaced, so that the
    break reaches that module (tilting or cluster) and nothing else."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(reps, name)


def is_summand(inst, m, x):
    """Summands have pairwise distinct supports, so the support names one."""
    return m.support() == inst.support_M(x)


def test_wrong_expected_hom_dim_fails_hom_table(monkeypatch, baseline):
    real = FamilyInstance.expected_hom_dim

    def wrong_once(self, x, y):
        return real(self, x, y) + ((x, y) == (r(0), r(1)))

    monkeypatch.setattr(FamilyInstance, "expected_hom_dim", wrong_once)
    assert_only_broken(baseline, {"hom-table"})


def test_one_nonzero_ext_fails_tilting(monkeypatch, baseline):
    inst = family_instance(A1, A2)
    real = reps.ext1_dim

    def wrong_once(m, n, hom_mn):
        return real(m, n, hom_mn) + (is_summand(inst, m, r(0)) and is_summand(inst, n, r(1)))

    monkeypatch.setattr(tilting, "reps", PatchedReps(ext1_dim=wrong_once))
    assert_only_broken(baseline, {"tilting"})


def test_one_wrong_pd_verdict_fails_pd_le1_and_tilting(monkeypatch, baseline):
    """T is tilting only if every summand has pd <= 1 (Theorem 5.8), so the
    tilting check reads the same verdicts and fails with pd-le-1."""
    inst = family_instance(A1, A2)
    real = reps.projective_dimension_le1

    def wrong_once(m):
        return real(m) != is_summand(inst, m, r(0))

    monkeypatch.setattr(tilting, "reps", PatchedReps(projective_dimension_le1=wrong_once))
    assert_only_broken(baseline, {"pd-le-1", "tilting"})


def test_wrong_expected_tau_fails_tau_closed_forms(monkeypatch, baseline):
    real = FamilyInstance.expected_tau

    def wrong_once(self, x):
        if x == r(0):
            assert not real(self, x).is_zero()
            return reps.zero_rep(self.algebra)
        return real(self, x)

    monkeypatch.setattr(FamilyInstance, "expected_tau", wrong_once)
    assert_only_broken(baseline, {"tau-closed-forms"})


def test_wrong_expected_type_fails_acyclic_type(monkeypatch, baseline):
    real = cluster.expected_type

    def wrong(a1, a2):
        assert real(a1, a2) == TypeLabel("AffineE", (7,))
        return TypeLabel("AffineE", (6,))

    monkeypatch.setattr(cluster, "expected_type", wrong)
    assert_only_broken(baseline, {"acyclic-type"})


def test_swapped_mu_t_letters_fail_discipline_palindrome_and_order_two(monkeypatch, baseline):
    """mu_T starting t2, t1 instead of t1, t2 mutates a vertex that is not a
    sink, and the word with the swap is neither a palindrome pair nor of
    order two.  mu_R and mu_S are untouched, so the type and the shift hold."""
    real = cluster.build_mu

    def swapped(a1, a2):
        word = real(a1, a2)
        mu_t = (word.mu_t[1], word.mu_t[0]) + word.mu_t[2:]
        assert mu_t != word.mu_t
        return dataclasses.replace(word, mu_t=mu_t)

    monkeypatch.setattr(cluster, "build_mu", swapped)
    assert_only_broken(baseline, {"source-sink-discipline", "palindrome", "order-two"})


def test_no_f_polynomial_returning_to_one_fails_order_two(monkeypatch, baseline):
    monkeypatch.setattr(IntPoly, "is_one", lambda self: False)
    assert_only_broken(baseline, {"order-two"})


def wrong_g_vector_of_r0(monkeypatch, inst):
    real = cluster.g_vector

    def wrong_once(m):
        got = real(m)
        if is_summand(inst, m, r(0)):
            return (got[0] + 1,) + got[1:]
        return got

    monkeypatch.setattr(cluster, "g_vector", wrong_once)


def test_wrong_g_vector_fails_t_to_shift(monkeypatch, baseline):
    """t-to-shift reads g°(M(r_{a2})) off the g-vector of M(r0)."""
    wrong_g_vector_of_r0(monkeypatch, family_instance(A1, A2))
    assert_only_broken(baseline, {"t-to-shift"})


def test_wrong_g_vector_fails_golden_fixture_and_t_to_shift(monkeypatch, baseline_22):
    """The golden fixture reads the slot pairing of the shift, which a wrong
    exponent leaves unmatched."""
    wrong_g_vector_of_r0(monkeypatch, family_instance(2, 2))
    assert_only_broken(baseline_22, {"golden-fixture", "t-to-shift"}, instance=(2, 2))


def test_wrong_opposite_isomorphism_fails_end_iso_and_errors_t_to_shift(monkeypatch, baseline):
    """sigma with the images of r0 and r_{a2} swapped carries no arrow of
    End(T) onto Q, and it fails the first step of the shift's certificate."""
    real = FamilyInstance.opposite_isomorphism

    def swapped(self):
        phi = real(self)
        phi[r(0)], phi[r(self.a2)] = phi[r(self.a2)], phi[r(0)]
        return phi

    monkeypatch.setattr(FamilyInstance, "opposite_isomorphism", swapped)
    assert_only_broken(
        baseline,
        {"end-iso"},
        errors={"t-to-shift": "SelfDualityViolation: certifying sigma on A^op"},
    )


def test_wrong_dual_errors_t_to_shift(monkeypatch, baseline):
    """A dual of M(r0) that is not carried onto M(r_{a2}) fails the second
    step of the shift's certificate; only the shift reads duals through
    cluster."""
    inst = family_instance(A1, A2)

    def wrong_dual(m):
        if is_summand(inst, m, r(0)):
            return reps.dual(reps.simple(m.algebra, r(1)))
        return reps.dual(m)

    monkeypatch.setattr(cluster, "reps", PatchedReps(dual=wrong_dual))
    assert_only_broken(
        baseline, set(), errors={"t-to-shift": "SelfDualityViolation: certifying sigma on D M(r0)"}
    )


def test_wrong_classified_counts_fail_submodule_counts(monkeypatch, baseline):
    real = FamilyInstance.expected_classified_counts

    def wrong_once(self, i):
        total, middle, top = real(self, i)
        return (total, middle, top + (i == 1))

    monkeypatch.setattr(FamilyInstance, "expected_classified_counts", wrong_once)
    assert_only_broken(baseline, {"submodule-counts"})


def test_wrong_identification_fails_projective_identifications(monkeypatch, baseline):
    """M(r_{a2}) is P(r0), not P(r1)."""
    real = FamilyInstance.identification_table

    def wrong(self):
        table = real(self)
        assert table[1] == ("M", r(self.a2), "P", r(0))
        table[1] = ("M", r(self.a2), "P", r(1))
        return table

    monkeypatch.setattr(FamilyInstance, "identification_table", wrong)
    assert_only_broken(baseline, {"projective-identifications"})


def test_seeds_never_equal_fails_palindrome_and_properties(monkeypatch, baseline):
    """The palindrome lemma compares seeds with `Seed.same_data`, and so does
    the property suite's check that mutating twice at one vertex is the
    identity; no other check compares seeds."""
    monkeypatch.setattr(cluster.Seed, "same_data", lambda self, other: False)
    assert_only_broken(baseline, {"palindrome", "properties"})
