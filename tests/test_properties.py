"""Randomized invariant suite (fixed seed, reproducible)."""

import random

from quivertilt import properties, reps
from quivertilt.family import family_instance
from quivertilt.properties import DEFAULT_CASES, DEFAULT_SEED, run_property_suite

import reference

PROPERTIES = (
    "mutation_involution",
    "seed_word_exactness",
    "seed_involution",
    "tropical_sanity",
    "ar_formula",
    "hom_additivity",
    "lattice_closure",
    "top_socle_duality",
)


def test_property_suite_passes():
    result = run_property_suite(cases=DEFAULT_CASES, seed=DEFAULT_SEED)
    assert result.passed, result.failures[:10]
    assert result.cases >= 200
    for name, count in result.checks_run.items():
        assert count >= 200, name


def test_property_suite_reproducible():
    a = run_property_suite(cases=25, seed=DEFAULT_SEED)
    b = run_property_suite(cases=25, seed=DEFAULT_SEED)
    assert a.to_json() == b.to_json()


def test_property_suite_records_seed():
    result = run_property_suite(cases=10, seed=123)
    data = result.to_json()
    assert data["seed"] == 123
    assert data["cases"] == 10


def test_random_draws_match_the_building_oracle():
    """With a table of built modules, each draw equals the oracle's (which
    builds every module anew), leaves the RNG in the oracle's state, and a
    repeated draw returns the object built the first time."""
    instances = [family_instance(a1, a2) for a1, a2 in properties._INSTANCE_PARAMS]
    repeats = 0
    for seed in range(1, 11):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        built = {}
        first = {}
        for i in range(100):
            inst = instances[i % len(instances)]
            m = properties.random_thin_module(rng, inst, built)
            want = reference.random_thin_module(oracle_rng, inst)
            assert (m.dims, m.maps) == (want.dims, want.maps)
            assert rng.getstate() == oracle_rng.getstate()
            content = (inst.a1, inst.a2, tuple(m.dims.items()), tuple(m.maps.items()))
            repeats += content in first
            assert first.setdefault(content, m) is m
    assert repeats > 100


def test_suite_reports_a_broken_ar_formula(monkeypatch):
    """A module table must not make a check vacuous: an off-by-one stable Hom
    fails the AR formula in every case, and every property still runs once
    per case."""
    stable_hom_dim = reps.stable_hom_dim
    monkeypatch.setattr(reps, "stable_hom_dim", lambda m, n: stable_hom_dim(m, n) + 1)
    result = run_property_suite(cases=DEFAULT_CASES, seed=DEFAULT_SEED)
    assert result.checks_run == {name: DEFAULT_CASES for name in PROPERTIES}
    assert len(result.failures) == DEFAULT_CASES
    assert all(f.startswith("ar_formula: ") for f in result.failures)


def test_suite_reports_broken_hom_additivity(monkeypatch):
    """hom_dim off by one on the suite's direct sums only: both additivity
    comparisons fail in every case, and nothing else does.  Only the sums
    that run_property_suite builds itself are recorded, through its own view
    of reps: the projective covers that reps builds inside stable_hom_dim are
    direct sums too."""
    sums = []
    direct_sum, hom_dim = reps.direct_sum, reps.hom_dim

    class SuiteReps:
        def __getattr__(self, name):
            return getattr(reps, name)

        def direct_sum(self, summands):
            out = direct_sum(summands)
            sums.append(out[0])
            return out

    def wrong_on_sums(m, n):
        return hom_dim(m, n) + any(m is s or n is s for s in sums)

    monkeypatch.setattr(properties, "reps", SuiteReps())
    monkeypatch.setattr(reps, "hom_dim", wrong_on_sums)
    result = run_property_suite(cases=DEFAULT_CASES, seed=DEFAULT_SEED)
    assert result.checks_run == {name: DEFAULT_CASES for name in PROPERTIES}
    assert len(result.failures) == 2 * DEFAULT_CASES
    assert all(f.startswith("hom_additivity: ") for f in result.failures)
