"""Acceptance suite: one test per criterion, one printed verdict line each.

Default sweep: a1 in 1..4, a2 in 2..5 (16 instances); Laurent-level checks run
wherever the vertex count is within the cap of 12, which covers the whole
default sweep.  Every tolerance is exact: all quantities are integers.
"""

import itertools

from quivertilt.family import family_instance
from quivertilt.quiver import TypeLabel, opposite, r, s, t
from quivertilt.tilting import verify_tilting
from quivertilt import cluster, reps
from quivertilt.properties import DEFAULT_SEED, run_property_suite

import reference

A1_RANGE = (1, 2, 3, 4)
A2_RANGE = (2, 3, 4, 5)
SWEEP = tuple(itertools.product(A1_RANGE, A2_RANGE))
LAURENT_CAP = 12

_instances = {}
_tilting = {}


def instance(a1, a2):
    if (a1, a2) not in _instances:
        _instances[(a1, a2)] = family_instance(a1, a2)
    return _instances[(a1, a2)]


def tilting_report(a1, a2):
    if (a1, a2) not in _tilting:
        _tilting[(a1, a2)] = verify_tilting(instance(a1, a2))
    return _tilting[(a1, a2)]


def verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_submodule_counts():
    ok = True
    for (a1, a2) in SWEEP:
        inst = instance(a1, a2)
        for i in range(a2 + 1):
            lattice = reps.submodules_thin(inst.module_M(r(i)))
            if lattice.count != a1 * a2 + 1:
                ok = False
            classified = reps.classify_submodule_counts(lattice, r(a2), r(0))
            if classified != inst.expected_classified_counts(i):
                ok = False
    verdict(1, "submodule counts", ok)


def test_criterion_2_golden_fixture():
    inst = instance(2, 2)
    lab = {s(1): 1, r(2): 2, r(0): 3, t(1): 4, r(1): 5}
    expected_supports = {1: {3, 5}, 2: {3, 4, 5}, 3: {1, 2, 5}, 4: {5, 2}, 5: {1, 2, 3, 4}}
    ok = all(
        {lab[v] for v in inst.module_M(x).support()} == expected_supports[num]
        for x, num in lab.items()
    )
    lattice = reps.submodules_thin(inst.module_M(r(2)))
    got_subs = {frozenset(lab[v] for v in sub) for sub in lattice.subsets}
    ok &= got_subs == {
        frozenset(),
        frozenset({4}),
        frozenset({5}),
        frozenset({4, 5}),
        frozenset({3, 4, 5}),
    }
    ok &= [lab[v] for v in cluster.build_mu(2, 2).mu] == [5, 1, 2, 1, 4, 3, 4, 5]
    shift = cluster.verify_T_maps_to_shift(inst, cluster.replay_mu(2, 2))
    pairing = {lab[x]: lab[y] for x, y in (shift.pairing or {}).items()}
    ok &= pairing == {1: 4, 2: 3, 3: 2, 4: 1, 5: 5}
    verdict(2, "golden fixture", ok)


def test_criterion_3_tau_oracle():
    ok = True
    for (a1, a2) in SWEEP:
        inst = instance(a1, a2)
        zero_at = set()
        for x in inst.vertices:
            got = reps.tau(inst.module_M(x))
            if not reps.is_isomorphic_reps(got, inst.expected_tau(x)):
                ok = False
            if got.is_zero():
                zero_at.add(x)
        if zero_at != set(inst.projective_summand_vertices()):
            ok = False
    verdict(3, "tau closed forms", ok)


def test_criterion_4_tilting():
    ok = True
    for (a1, a2) in SWEEP:
        rep = tilting_report(a1, a2)
        if not (rep.rigid and rep.tau_rigid and rep.tilting and rep.tau_tilting):
            ok = False
        if not all(rep.pd_le1.values()):
            ok = False
        if rep.summand_count != rep.vertex_count != a2 + 2 * a1 - 1:
            ok = False
    verdict(4, "tilting and tau-tilting", ok)


def test_criterion_5_hom_table_and_end_iso():
    ok = True
    for (a1, a2) in SWEEP:
        rep = tilting_report(a1, a2)
        if not rep.hom_table_matches_oracle:
            ok = False
        if sorted(rep.end_quiver.arrows) != sorted(opposite(instance(a1, a2).quiver).arrows):
            ok = False
        if not (rep.end_iso_holds and rep.end_relations_hold):
            ok = False
        if not rep.zero_path_property_holds:
            ok = False
    verdict(5, "hom table and End(T) quiver", ok)


def test_criterion_6_type_classification():
    expected = {}
    for (a1, a2) in SWEEP:
        if a2 == 2:
            expected[(a1, a2)] = TypeLabel("A", (2 * a1 + 1,))
        elif a1 == 1:
            expected[(a1, a2)] = TypeLabel("D", (a2 + 1,))
        elif (a1, a2) == (2, 3):
            expected[(a1, a2)] = TypeLabel("E", (6,))
        elif (a1, a2) == (3, 3):
            expected[(a1, a2)] = TypeLabel("AffineE", (7,))
        elif (a1, a2) == (2, 4):
            expected[(a1, a2)] = TypeLabel("AffineE", (6,))
        else:
            expected[(a1, a2)] = TypeLabel(
                "TreeWild", tuple(sorted((a1 + 1, a1 + 1, a2 - 1)))
            )
    ok = True
    for (a1, a2) in SWEEP:
        replay = cluster.replay_mu(a1, a2, track_f=False)
        tc = cluster.verify_acyclic_type(replay)
        if not tc.mu_r_acyclic or tc.label != expected[(a1, a2)]:
            ok = False
        if a2 == 2:
            if tc.branch_data is not None:
                ok = False
        elif tc.branch_data != tuple(sorted((a1 + 1, a1 + 1, a2 - 1))):
            ok = False
        if not replay.discipline_holds:
            ok = False
    verdict(6, "acyclic type classification", ok)


def test_criterion_7_order_two_and_palindrome():
    ok = True
    for (a1, a2) in SWEEP:
        n = a2 + 2 * a1 - 1
        track_f = n <= LAURENT_CAP
        replay = cluster.replay_mu(a1, a2, track_f=track_f)
        if not cluster.verify_palindrome_lemma(replay):
            ok = False
        res = cluster.verify_order_two(replay)
        if not res.holds:
            ok = False
        # integer level must hold on the full sweep regardless of the cap
        if not cluster.verify_order_two(cluster.replay_mu(a1, a2, track_f=False)).holds:
            ok = False
    verdict(7, "order two and palindrome", ok)


def test_criterion_8_T_maps_to_shift():
    def pi(v, a1, a2):
        if v.role == "r":
            return r(a2 - v.index)
        return t(a1 - v.index) if v.role == "s" else s(a1 - v.index)

    ok = True
    for (a1, a2) in SWEEP:
        inst = instance(a1, a2)
        replay = cluster.replay_mu(a1, a2, track_f=inst.quiver.n <= LAURENT_CAP)
        res = cluster.verify_T_maps_to_shift(inst, replay)
        if not res.g_multiset_ok:
            ok = False
        if inst.quiver.n <= LAURENT_CAP and res.pairing is None:
            ok = False
        # the G-column exponents are the [P0]-[P1] g-vectors transported
        # through the self-duality relabeling pi
        order = {v: i for i, v in enumerate(inst.vertices)}
        for x in inst.vertices:
            lhs = reference.cc_exponent(inst.module_M(x))
            rhs = tuple(
                -cluster.g_vector(inst.module_M(pi(x, a1, a2)))[order[pi(v, a1, a2)]]
                for v in inst.vertices
            )
            if lhs != rhs:
                ok = False
    verdict(8, "mu T = A[1] (characters and g-data)", ok)


def test_criterion_9_property_suite():
    result = run_property_suite(cases=220, seed=DEFAULT_SEED)
    ok = result.passed and result.cases >= 200 and result.seed == DEFAULT_SEED
    print(f"  property suite: seed={result.seed} cases={result.cases} "
          f"checks={sorted(result.checks_run)}")
    verdict(9, "randomized invariant suite", ok)
