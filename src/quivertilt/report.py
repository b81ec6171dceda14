"""Structured verification reports: every check carries the tag of the
statement it certifies, its verdict, witness data, and wall time."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import cluster, properties, reps
from .errors import UnsupportedParameters
from .family import family_instance
from .quiver import r, s, t
from .tilting import verify_tilting

ENGINE_VERSION = "0.1.0"
SCHEMA = "quivertilt-report/1"
DEFAULT_LAURENT_CAP = 12

NOTES = [
    "Ground field: exact rationals. Every verdict is a dimension count or an "
    "integer identity, so it is independent of the algebraically closed base "
    "field the statements are phrased over.",
    "Knot-theoretic term counts enter only through the submodule counts and "
    "F-polynomial monomial counts (a1*a2+1); no knot polynomial is computed.",
]


@dataclass
class CheckResult:
    check_id: str
    statement: str
    passed: bool
    skipped: bool = False
    skip_reason: str = ""
    witness: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.skipped or self.passed

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "statement": self.statement,
            "passed": self.passed,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "witness": self.witness,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class VerificationReport:
    a1: int
    a2: int
    checks: list[CheckResult]
    laurent_cap: int

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "engine_version": ENGINE_VERSION,
            "arithmetic": "exact-rational",
            "parameters": {"a1": self.a1, "a2": self.a2},
            "laurent_cap": self.laurent_cap,
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
            "notes": NOTES,
        }


CHECK_ALIASES = {
    "type": "acyclic-type",
    "tau": "tau-closed-forms",
    "submodules": "submodule-counts",
    "shift": "t-to-shift",
}


class Skip(Exception):
    """Raised by a check that cannot run on this instance; the message is the
    reason the report gives."""


def run_checks(
    a1: int,
    a2: int,
    checks: Optional[list[str]] = None,
    laurent_cap: int = DEFAULT_LAURENT_CAP,
    property_cases: int = properties.DEFAULT_CASES,
    property_seed: int = properties.DEFAULT_SEED,
) -> VerificationReport:
    if a1 < 1 or a2 < 2:
        raise UnsupportedParameters(f"need a1 >= 1 and a2 >= 2, got ({a1}, {a2})")
    if property_cases < 0:
        raise UnsupportedParameters(f"property_cases must be >= 0, got {property_cases}")
    if laurent_cap < 0:
        raise UnsupportedParameters(f"laurent_cap must be >= 0, got {laurent_cap}")
    selected = [CHECK_ALIASES.get(c, c) for c in checks] if checks is not None else list(ALL_CHECKS)
    if not selected:
        raise UnsupportedParameters("no check selected")
    unknown = set(selected) - set(ALL_CHECKS)
    if unknown:
        raise UnsupportedParameters(f"unknown checks: {sorted(unknown)}")

    ctx: dict = {
        "instance": family_instance(a1, a2),
        "laurent_cap": laurent_cap,
        "property_cases": property_cases,
        "property_seed": property_seed,
    }
    results = []
    for check_id, (statement, runner) in CHECKS.items():
        if check_id not in selected:
            continue
        res = CheckResult(check_id, statement, False)
        start = time.perf_counter()
        try:
            res.passed, res.witness = runner(ctx)
        except Skip as why:
            res.skipped, res.skip_reason = True, str(why)
        except Exception as exc:
            # a crashing check fails on its own; the remaining checks still run
            res.witness = {"error": f"{type(exc).__name__}: {exc}"}
        res.seconds = time.perf_counter() - start
        results.append(res)
    return VerificationReport(a1, a2, results, laurent_cap)


def _shared(ctx: dict, build: Callable):
    """`build(ctx)`, built once per run and kept in `ctx` keyed by `build`;
    a build that raised is kept too and raised again for every reader."""
    if build not in ctx:
        try:
            ctx[build] = build(ctx)
        except Exception as exc:
            ctx[build] = exc
    if isinstance(ctx[build], Exception):
        raise ctx[build]
    return ctx[build]


def _tilting(ctx):
    return verify_tilting(ctx["instance"])


def _replay(ctx):
    inst = ctx["instance"]
    return cluster.replay_mu(inst.a1, inst.a2, inst.quiver.n <= ctx["laurent_cap"])


def _shift(ctx):
    return cluster.verify_T_maps_to_shift(ctx["instance"], _shared(ctx, _replay))


def _laurent_level(checked: bool) -> str:
    return "checked" if checked else "skipped (cost cap)"


def _check_submodule_counts(ctx):
    inst = ctx["instance"]
    expected_total = inst.a1 * inst.a2 + 1
    counts = {}
    ok = True
    for i in range(inst.a2 + 1):
        lattice = reps.submodules_thin(inst.module_M(r(i)))
        classified = reps.classify_submodule_counts(lattice, r(inst.a2), r(0))
        counts[f"r{i}"] = {"total": lattice.count, "classified": list(classified)}
        if lattice.count != expected_total or classified != inst.expected_classified_counts(i):
            ok = False
    return ok, {"expected_total": expected_total, "modules": counts}


def _check_golden_fixture(ctx):
    inst = ctx["instance"]
    if (inst.a1, inst.a2) != (2, 2):
        raise Skip("fixture is specific to (a1, a2) = (2, 2)")
    if inst.quiver.n > ctx["laurent_cap"]:
        raise Skip("needs Laurent-level tracking (cap too low)")
    labels = {s(1): 1, r(2): 2, r(0): 3, t(1): 4, r(1): 5}
    expected_supports = {1: {3, 5}, 2: {3, 4, 5}, 3: {1, 2, 5}, 4: {5, 2}, 5: {1, 2, 3, 4}}
    ok = all(
        {labels[v] for v in inst.module_M(x).support()} == expected_supports[num]
        for x, num in labels.items()
    )
    lattice = reps.submodules_thin(inst.module_M(r(2)))
    subs = {frozenset(labels[v] for v in sub) for sub in lattice.subsets}
    if subs != {frozenset(), frozenset({4}), frozenset({5}), frozenset({4, 5}), frozenset({3, 4, 5})}:
        ok = False
    word_nums = [labels[v] for v in cluster.build_mu(2, 2).mu]
    if word_nums != [5, 1, 2, 1, 4, 3, 4, 5]:
        ok = False
    pairing = _shared(ctx, _shift).pairing or {}
    pairing_nums = {labels[x]: labels[y] for x, y in pairing.items()}
    if pairing_nums != {1: 4, 2: 3, 3: 2, 4: 1, 5: 5}:
        ok = False
    return ok, {"mu": word_nums, "pairing": pairing_nums}


def _check_tau(ctx):
    inst = ctx["instance"]
    ok = True
    zeros = []
    for x in inst.vertices:
        got = reps.tau(inst.module_M(x))
        if not reps.is_isomorphic_reps(got, inst.expected_tau(x)):
            ok = False
        if got.is_zero():
            zeros.append(x.label)
    if sorted(zeros) != sorted(v.label for v in inst.projective_summand_vertices()):
        ok = False
    return ok, {"tau_zero_at": sorted(zeros)}


def _check_identifications(ctx):
    return _shared(ctx, _tilting).identifications_hold, {}


def _check_pd(ctx):
    pd_le1 = _shared(ctx, _tilting).pd_le1
    return all(pd_le1.values()), {"pd_le1": {v.label: b for v, b in pd_le1.items()}}


def _check_tilting(ctx):
    report = _shared(ctx, _tilting)
    verdicts = report.all_verdicts
    ok = (
        verdicts["rigid"]
        and verdicts["tau_rigid"]
        and verdicts["tilting"]
        and verdicts["tau_tilting"]
        and verdicts["cluster_tilting_inducing"]
    )
    witness = {
        "summand_count": report.summand_count,
        "vertex_count": report.vertex_count,
        "verdicts": verdicts,
    }
    return ok, witness


def _check_hom_table(ctx):
    report = _shared(ctx, _tilting)
    ok = report.hom_table_matches_oracle and report.zero_path_property_holds
    return ok, {"hom_table": report.hom_table}


def _check_end_iso(ctx):
    report = _shared(ctx, _tilting)
    ok = report.end_iso_holds and report.end_relations_hold
    return ok, {"end_quiver": report.end_quiver.to_json()}


def _check_type(ctx):
    tc = cluster.verify_acyclic_type(_shared(ctx, _replay))
    witness = {
        "label": str(tc.label),
        "expected": str(tc.expected),
        "mu_r_acyclic": tc.mu_r_acyclic,
        "branch_data": list(tc.branch_data) if tc.branch_data else None,
    }
    return tc.ok, witness


def _check_discipline(ctx):
    return _shared(ctx, _replay).discipline_holds, {}


def _check_palindrome(ctx):
    replay = _shared(ctx, _replay)
    witness = {"laurent_level": _laurent_level(replay.base.f is not None)}
    return cluster.verify_palindrome_lemma(replay), witness


def _check_order_two(ctx):
    replay = _shared(ctx, _replay)
    res = cluster.verify_order_two(replay)
    witness = {"laurent_level": _laurent_level(replay.base.f is not None)}
    if res.permutation is not None:
        witness["slot_permutation"] = {a.label: b.label for a, b in res.permutation.items()}
    return res.holds, witness


def _check_shift(ctx):
    res = _shared(ctx, _shift)
    witness = {
        "g_multiset": res.g_multiset_ok,
        "laurent_level": _laurent_level(res.laurent_checked),
    }
    if res.pairing is not None:
        witness["pairing"] = {x.label: y.label for x, y in res.pairing.items()}
    return res.holds, witness


def _check_properties(ctx):
    result = properties.run_property_suite(ctx["property_cases"], ctx["property_seed"])
    return result.passed, result.to_json()


# check id -> (statement it certifies, runner), in run order; a runner takes
# the run's context and returns (passed, witness) or raises Skip
CHECKS: dict[str, tuple[str, Callable]] = {
    "submodule-counts": ("Prop 3.4 + Lemmas 3.1-3.3", _check_submodule_counts),
    "golden-fixture": ("Section 8 example", _check_golden_fixture),
    "tau-closed-forms": ("Lemmas 4.2-4.4", _check_tau),
    "projective-identifications": ("Remark 4.1", _check_identifications),
    "pd-le-1": ("Prop 4.5", _check_pd),
    "tilting": ("Theorem 5.8 (+ Theorem 5.9 criterion)", _check_tilting),
    "hom-table": ("Lemmas 6.1-6.8", _check_hom_table),
    "end-iso": ("Theorem 6.9", _check_end_iso),
    "acyclic-type": ("Theorem 7.2 + Remark 7.3", _check_type),
    "source-sink-discipline": ("Theorem 7.6 proof", _check_discipline),
    "palindrome": ("Lemma 7.4", _check_palindrome),
    "order-two": ("Corollary 7.5", _check_order_two),
    "t-to-shift": ("Theorem 7.6", _check_shift),
    "properties": ("invariant suite (randomized)", _check_properties),
}

ALL_CHECKS = tuple(CHECKS)
