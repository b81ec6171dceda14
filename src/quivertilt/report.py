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


CHECK_STATEMENTS = {
    "submodule-counts": "Prop 3.4 + Lemmas 3.1-3.3",
    "golden-fixture": "Section 8 example",
    "tau-closed-forms": "Lemmas 4.2-4.4",
    "projective-identifications": "Remark 4.1",
    "pd-le-1": "Prop 4.5",
    "tilting": "Theorem 5.8 (+ Theorem 5.9 criterion)",
    "hom-table": "Lemmas 6.1-6.8",
    "end-iso": "Theorem 6.9",
    "acyclic-type": "Theorem 7.2 + Remark 7.3",
    "source-sink-discipline": "Theorem 7.6 proof",
    "palindrome": "Lemma 7.4",
    "order-two": "Corollary 7.5",
    "t-to-shift": "Theorem 7.6",
    "properties": "invariant suite (randomized)",
}

ALL_CHECKS = tuple(CHECK_STATEMENTS)

CHECK_ALIASES = {
    "type": "acyclic-type",
    "tau": "tau-closed-forms",
    "submodules": "submodule-counts",
    "shift": "t-to-shift",
}


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

    instance = family_instance(a1, a2)
    ctx: dict = {"instance": instance, "laurent_cap": laurent_cap}
    results = []
    for check_id in ALL_CHECKS:
        if check_id not in selected:
            continue
        runner = _RUNNERS[check_id]
        start = time.perf_counter()
        try:
            res = runner(ctx, property_cases, property_seed)
        except Exception as exc:
            # a crashing check fails on its own; the remaining checks still run
            res = CheckResult(
                check_id,
                CHECK_STATEMENTS[check_id],
                False,
                witness={"error": f"{type(exc).__name__}: {exc}"},
            )
        res.seconds = time.perf_counter() - start
        results.append(res)
    return VerificationReport(a1, a2, results, laurent_cap)


def _tilting_report(ctx):
    """The instance's tilting report, built once; a build that raised is kept
    too and raised again for every check that reads the report."""
    if "tilting_report" not in ctx:
        try:
            ctx["tilting_report"] = verify_tilting(ctx["instance"])
        except Exception as exc:
            ctx["tilting_report"] = exc
    if isinstance(ctx["tilting_report"], Exception):
        raise ctx["tilting_report"]
    return ctx["tilting_report"]


def _mu_replay(ctx):
    if "mu_replay" not in ctx:
        inst = ctx["instance"]
        track_f = inst.quiver.n <= ctx["laurent_cap"]
        ctx["mu_replay"] = cluster.replay_mu(inst.a1, inst.a2, track_f)
    return ctx["mu_replay"]


def _shift(ctx):
    if "shift" not in ctx:
        ctx["shift"] = cluster.verify_T_maps_to_shift(ctx["instance"], _mu_replay(ctx))
    return ctx["shift"]


def _check_submodule_counts(ctx, _cases, _seed) -> CheckResult:
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
    return CheckResult(
        "submodule-counts",
        CHECK_STATEMENTS["submodule-counts"],
        ok,
        witness={"expected_total": expected_total, "modules": counts},
    )


def _check_golden_fixture(ctx, _cases, _seed) -> CheckResult:
    inst = ctx["instance"]
    if (inst.a1, inst.a2) != (2, 2):
        return CheckResult(
            "golden-fixture",
            CHECK_STATEMENTS["golden-fixture"],
            False,
            skipped=True,
            skip_reason="fixture is specific to (a1, a2) = (2, 2)",
        )
    if inst.quiver.n > ctx["laurent_cap"]:
        return CheckResult(
            "golden-fixture",
            CHECK_STATEMENTS["golden-fixture"],
            False,
            skipped=True,
            skip_reason="needs Laurent-level tracking (cap too low)",
        )
    labels = {s(1): 1, r(2): 2, r(0): 3, t(1): 4, r(1): 5}
    expected_supports = {1: {3, 5}, 2: {3, 4, 5}, 3: {1, 2, 5}, 4: {5, 2}, 5: {1, 2, 3, 4}}
    ok = True
    for x, num in labels.items():
        got = {labels[v] for v in inst.module_M(x).support()}
        if got != expected_supports[num]:
            ok = False
    lattice = reps.submodules_thin(inst.module_M(r(2)))
    subs = {frozenset(labels[v] for v in sub) for sub in lattice.subsets}
    if subs != {frozenset(), frozenset({4}), frozenset({5}), frozenset({4, 5}), frozenset({3, 4, 5})}:
        ok = False
    word = cluster.build_mu(2, 2).mu
    word_nums = [labels[v] for v in word]
    if word_nums != [5, 1, 2, 1, 4, 3, 4, 5]:
        ok = False
    shift = _shift(ctx)
    pairing_nums = {}
    if shift.pairing:
        pairing_nums = {labels[x]: labels[y] for x, y in shift.pairing.items()}
    if pairing_nums != {1: 4, 2: 3, 3: 2, 4: 1, 5: 5}:
        ok = False
    return CheckResult(
        "golden-fixture",
        CHECK_STATEMENTS["golden-fixture"],
        ok,
        witness={"mu": word_nums, "pairing": pairing_nums},
    )


def _check_tau(ctx, _cases, _seed) -> CheckResult:
    inst = ctx["instance"]
    ok = True
    zeros = []
    for x in inst.vertices:
        got = reps.tau(inst.module_M(x))
        exp = inst.expected_tau(x)
        if not reps.is_isomorphic_reps(got, exp):
            ok = False
        if got.is_zero():
            zeros.append(x.label)
    expected_zeros = sorted(v.label for v in inst.projective_summand_vertices())
    if sorted(zeros) != expected_zeros:
        ok = False
    return CheckResult(
        "tau-closed-forms",
        CHECK_STATEMENTS["tau-closed-forms"],
        ok,
        witness={"tau_zero_at": sorted(zeros)},
    )


def _check_identifications(ctx, _cases, _seed) -> CheckResult:
    report = _tilting_report(ctx)
    return CheckResult(
        "projective-identifications",
        CHECK_STATEMENTS["projective-identifications"],
        report.identifications_hold,
    )


def _check_pd(ctx, _cases, _seed) -> CheckResult:
    report = _tilting_report(ctx)
    ok = all(report.pd_le1.values())
    return CheckResult(
        "pd-le-1",
        CHECK_STATEMENTS["pd-le-1"],
        ok,
        witness={"pd_le1": {v.label: b for v, b in report.pd_le1.items()}},
    )


def _check_tilting(ctx, _cases, _seed) -> CheckResult:
    report = _tilting_report(ctx)
    verdicts = report.all_verdicts
    ok = (
        verdicts["rigid"]
        and verdicts["tau_rigid"]
        and verdicts["tilting"]
        and verdicts["tau_tilting"]
        and verdicts["cluster_tilting_inducing"]
    )
    return CheckResult(
        "tilting",
        CHECK_STATEMENTS["tilting"],
        ok,
        witness={
            "summand_count": report.summand_count,
            "vertex_count": report.vertex_count,
            "verdicts": verdicts,
        },
    )


def _check_hom_table(ctx, _cases, _seed) -> CheckResult:
    report = _tilting_report(ctx)
    ok = report.hom_table_matches_oracle and report.zero_path_property_holds
    return CheckResult(
        "hom-table",
        CHECK_STATEMENTS["hom-table"],
        ok,
        witness={"hom_table": report.hom_table},
    )


def _check_end_iso(ctx, _cases, _seed) -> CheckResult:
    report = _tilting_report(ctx)
    ok = report.end_iso_holds and report.end_relations_hold
    return CheckResult(
        "end-iso",
        CHECK_STATEMENTS["end-iso"],
        ok,
        witness={"end_quiver": report.end_quiver.to_json()},
    )


def _check_type(ctx, _cases, _seed) -> CheckResult:
    inst = ctx["instance"]
    tc = cluster.verify_acyclic_type(inst.a1, inst.a2)
    return CheckResult(
        "acyclic-type",
        CHECK_STATEMENTS["acyclic-type"],
        tc.ok,
        witness={
            "label": str(tc.label),
            "expected": str(tc.expected),
            "mu_r_acyclic": tc.mu_r_acyclic,
            "branch_data": list(tc.branch_data) if tc.branch_data else None,
        },
    )


def _check_discipline(ctx, _cases, _seed) -> CheckResult:
    inst = ctx["instance"]
    ok = cluster.verify_source_sink_discipline(inst.a1, inst.a2)
    return CheckResult(
        "source-sink-discipline", CHECK_STATEMENTS["source-sink-discipline"], ok
    )


def _check_palindrome(ctx, _cases, _seed) -> CheckResult:
    replay = _mu_replay(ctx)
    track_f = replay.base.f is not None
    return CheckResult(
        "palindrome",
        CHECK_STATEMENTS["palindrome"],
        cluster.verify_palindrome_lemma(replay),
        witness={"laurent_level": "checked" if track_f else "skipped (cost cap)"},
    )


def _check_order_two(ctx, _cases, _seed) -> CheckResult:
    replay = _mu_replay(ctx)
    track_f = replay.base.f is not None
    res = cluster.verify_order_two(replay)
    witness = {"laurent_level": "checked" if track_f else "skipped (cost cap)"}
    if res.permutation is not None:
        witness["slot_permutation"] = {
            a.label: b.label for a, b in res.permutation.items()
        }
    return CheckResult("order-two", CHECK_STATEMENTS["order-two"], res.holds, witness=witness)


def _check_shift(ctx, _cases, _seed) -> CheckResult:
    res = _shift(ctx)
    witness = {
        "g_multiset": res.g_multiset_ok,
        "laurent_level": "checked" if res.laurent_checked else "skipped (cost cap)",
    }
    if res.pairing is not None:
        witness["pairing"] = {x.label: y.label for x, y in res.pairing.items()}
    return CheckResult("t-to-shift", CHECK_STATEMENTS["t-to-shift"], res.holds, witness=witness)


def _check_properties(ctx, cases, seed) -> CheckResult:
    result = properties.run_property_suite(cases, seed)
    return CheckResult(
        "properties",
        CHECK_STATEMENTS["properties"],
        result.passed,
        witness=result.to_json(),
    )


_RUNNERS: dict[str, Callable] = {
    "submodule-counts": _check_submodule_counts,
    "golden-fixture": _check_golden_fixture,
    "tau-closed-forms": _check_tau,
    "projective-identifications": _check_identifications,
    "pd-le-1": _check_pd,
    "tilting": _check_tilting,
    "hom-table": _check_hom_table,
    "end-iso": _check_end_iso,
    "acyclic-type": _check_type,
    "source-sink-discipline": _check_discipline,
    "palindrome": _check_palindrome,
    "order-two": _check_order_two,
    "t-to-shift": _check_shift,
    "properties": _check_properties,
}
