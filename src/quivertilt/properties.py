"""Randomized invariant suite, independent of any particular theorem.

One fixed RNG seed drives every run; the seed and case count are recorded in
the verification report so a run is reproducible bit for bit.

Each distinct random module is built once per run: a repeated draw returns
the module built the first time, so its presentation and tau (kept on the
module) are reused, and a support that violates a relation is rejected from
the same table.  The RNG stream and the modules drawn are the same as when
every draw built a new module.  Each instance's exchange matrix, initial seed
and pattern matrix are likewise built once per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import cluster, reps
from .errors import RelationViolation
from .family import FamilyInstance, family_instance
from .linalg import Matrix
from .quiver import mutate_matrix, to_exchange_matrix

DEFAULT_SEED = 20260809
DEFAULT_CASES = 220

_INSTANCE_PARAMS = [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)]


@dataclass
class PropertySuiteResult:
    seed: int
    cases: int
    checks_run: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "checks_run": dict(self.checks_run),
            "failures": list(self.failures),
            "passed": self.passed,
        }


ModuleTable = dict[tuple, Optional[reps.Representation]]


def random_thin_module(
    rng: random.Random, inst: FamilyInstance, built: Optional[ModuleTable] = None
) -> reps.Representation:
    """A random thin 0/1 module: random support (rejecting relation-violating
    ones), then a random subset of internal arrows zeroed out.

    `built` is a table of the modules built so far, keyed by the instance,
    the support and the zeroed arrows, with None for a rejected support.  A
    draw that hits the table returns the object built the first time; the RNG
    is consumed the same way either way."""
    built = {} if built is None else built
    verts = inst.vertices
    for _ in range(50):
        support = frozenset(v for v in verts if rng.random() < 0.55)
        if not support:
            continue
        key = (inst.a1, inst.a2, support, ())
        if key not in built:
            try:
                built[key] = reps.thin_from_support(inst.algebra, support)
            except RelationViolation:
                built[key] = None
        m = built[key]
        if m is None:
            continue
        if rng.random() < 0.3:
            zeroed = tuple(
                a for a, mat in m.maps.items() if not mat.is_zero() and rng.random() < 0.25
            )
            key = (inst.a1, inst.a2, support, zeroed)
            if key not in built:
                maps = dict(m.maps)
                for a in zeroed:
                    maps[a] = Matrix.zeros(1, 1)
                built[key] = reps.Representation(inst.algebra, dict(m.dims), maps)
            m = built[key]
        return m
    return reps.simple(inst.algebra, verts[0])


def run_property_suite(cases: int = DEFAULT_CASES, seed: int = DEFAULT_SEED) -> PropertySuiteResult:
    rng = random.Random(seed)
    result = PropertySuiteResult(seed=seed, cases=cases)
    instances = []
    for a1, a2 in _INSTANCE_PARAMS:
        inst = family_instance(a1, a2)
        quiver = inst.quiver
        instances.append(
            (inst, to_exchange_matrix(quiver), cluster.initial_seed(quiver), cluster.pattern_matrix(quiver))
        )
    built: ModuleTable = {}

    def bump(name: str) -> None:
        result.checks_run[name] = result.checks_run.get(name, 0) + 1

    def fail(name: str, detail: str) -> None:
        result.failures.append(f"{name}: {detail}")

    for case in range(cases):
        inst, b, seed0, pattern = instances[rng.randrange(len(instances))]
        m = random_thin_module(rng, inst, built)
        n = random_thin_module(rng, inst, built)

        # matrix mutation involution at a random vertex
        word = [inst.vertices[rng.randrange(len(inst.vertices))] for _ in range(rng.randrange(4))]
        for k in word:
            b = mutate_matrix(b, k)
        k = inst.vertices[rng.randrange(len(inst.vertices))]
        bump("mutation_involution")
        if mutate_matrix(mutate_matrix(b, k), k).entries != b.entries:
            fail("mutation_involution", f"{inst.algebra.name} word={word} k={k}")

        # seed mutation: involution, sign coherence and exact division
        # (coherence and exactness are asserted inside mutate_seed)
        word2 = [inst.vertices[rng.randrange(len(inst.vertices))] for _ in range(rng.randrange(1, 6))]
        bump("seed_word_exactness")
        try:
            s1 = cluster.apply_word(seed0, word2)
            s2 = cluster.mutate_seed(cluster.mutate_seed(s1, k), k)
        except Exception as exc:  # pragma: no cover - indicates a convention bug
            fail("seed_word_exactness", f"{inst.algebra.name} word={word2}: {exc}")
            continue
        bump("seed_involution")
        if not s2.same_data(s1):
            fail("seed_involution", f"{inst.algebra.name} word={word2} k={k}")

        # tropical sanity: G column = x-exponent of the unique y-free monomial
        slot = rng.randrange(len(inst.vertices))
        variable = cluster.seed_variable(s1, slot, pattern)
        y_free = [mono for mono in variable.terms if all(e == 0 for e in mono[s1.n :])]
        bump("tropical_sanity")
        if len(y_free) != 1 or y_free[0][: s1.n] != s1.g[slot]:
            fail("tropical_sanity", f"{inst.algebra.name} word={word2} slot={slot}")

        # AR formula
        bump("ar_formula")
        hom_mn = reps.hom_dim(m, n)
        lhs = reps.ext1_dim(m, n, hom_mn)
        rhs = reps.stable_hom_dim(n, reps.tau(m))
        if lhs != rhs:
            fail("ar_formula", f"{inst.algebra.name} {m} {n}: ext={lhs} stable={rhs}")

        # Hom additivity over direct sums in both arguments
        bump("hom_additivity")
        mm, _ = reps.direct_sum([m, n])
        if reps.hom_dim(mm, n) != hom_mn + reps.hom_dim(n, n):
            fail("hom_additivity", f"{inst.algebra.name} first argument")
        if reps.hom_dim(m, mm) != reps.hom_dim(m, m) + hom_mn:
            fail("hom_additivity", f"{inst.algebra.name} second argument")

        # submodule lattice closure
        bump("lattice_closure")
        lattice = reps.submodules_thin(m)
        if not lattice.is_lattice():
            fail("lattice_closure", f"{inst.algebra.name} {m}")
        if frozenset() not in lattice.subsets or m.support() not in lattice.subsets:
            fail("lattice_closure", f"{inst.algebra.name} missing 0 or full in {m}")

        # top/socle duality across the opposite algebra
        bump("top_socle_duality")
        top = reps.top_dims(m)
        soc_dual = reps.socle_dims(reps.dual(m))
        if any(top[v] != soc_dual[v] for v in inst.vertices):
            fail("top_socle_duality", f"{inst.algebra.name} {m}")

    return result
