"""Command-line driver: verify, sweep, show."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import cluster, properties, report, reps
from .errors import QuivertiltError, UnsupportedParameters, VertexError
from .family import FamilyInstance, family_instance, radical_layers
from .quiver import Vertex, parse_vertex, to_exchange_matrix, mutate_matrix

ENV_CAP = "QUIVERTILT_LAURENT_CAP"


def _default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return report.DEFAULT_LAURENT_CAP
    try:
        return int(raw)
    except ValueError:
        raise UnsupportedParameters(f"{ENV_CAP} must be an integer, got {raw!r}") from None


def _parse_word(raw: str, inst: FamilyInstance) -> list[Vertex]:
    word = cluster.build_mu(inst.a1, inst.a2)
    expanded: list[Vertex] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "mu":
            expanded.extend(word.mu)
        elif token == "mu_r":
            expanded.extend(word.mu_r)
        elif token == "mu_s":
            expanded.extend(word.mu_s)
        elif token == "mu_t":
            expanded.extend(word.mu_t)
        else:
            vertex = parse_vertex(token)
            if vertex not in inst.vertices:
                raise VertexError(f"{token} is not a vertex of Q[{inst.a1},{inst.a2}]")
            expanded.append(vertex)
    return expanded


def _print_matrix(name: str, rows, labels) -> None:
    print(f"{name} (order: {', '.join(v.label for v in labels)})")
    width = max(len(str(x)) for row in rows for x in row)
    for row in rows:
        print("  [" + " ".join(str(x).rjust(width) for x in row) + "]")


def cmd_verify(args) -> int:
    checks = None
    if args.checks is not None:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    rep = report.run_checks(
        args.a1,
        args.a2,
        checks=checks,
        laurent_cap=args.laurent_cap,
        property_cases=args.property_cases,
        property_seed=args.property_seed,
    )
    if args.json:
        print(json.dumps(rep.to_json(), indent=2))
    else:
        print(f"Q[{args.a1},{args.a2}]  (laurent cap {args.laurent_cap})")
        for c in rep.checks:
            if c.skipped:
                status = "SKIP"
            else:
                status = "pass" if c.passed else "FAIL"
            extra = f"  [{c.skip_reason}]" if c.skipped else ""
            print(f"  {status:4s}  {c.check_id:28s} {c.statement}{extra}")
        print(f"overall: {'pass' if rep.overall else 'FAIL'}")
    return 0 if rep.overall else 1


def cmd_sweep(args) -> int:
    if args.a1_max < 1 or args.a2_max < 2:
        raise UnsupportedParameters("need --a1-max >= 1 and --a2-max >= 2")
    grid = [
        (a1, a2)
        for a1 in range(1, args.a1_max + 1)
        for a2 in range(2, args.a2_max + 1)
    ]
    instances = []
    failed = []
    ran_properties = False
    for (a1, a2) in grid:
        checks = list(report.ALL_CHECKS)
        if ran_properties:
            checks.remove("properties")
        rep = report.run_checks(
            a1,
            a2,
            checks=checks,
            laurent_cap=args.laurent_cap,
            property_cases=args.property_cases,
            property_seed=args.property_seed,
        )
        ran_properties = True
        instances.append(rep)
        if not rep.overall:
            failed.append((a1, a2))
        if not args.json:
            type_check = next(c for c in rep.checks if c.check_id == "acyclic-type")
            laurent = next(c for c in rep.checks if c.check_id == "t-to-shift")
            level = laurent.witness.get("laurent_level", "?")
            print(
                f"({a1},{a2})  n={a2 + 2 * a1 - 1:2d}  "
                f"{'pass' if rep.overall else 'FAIL'}  "
                f"type={type_check.witness.get('label', '?'):14s}  laurent={level}"
            )
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "quivertilt-sweep/1",
                    "laurent_cap": args.laurent_cap,
                    "instances": [r.to_json() for r in instances],
                    "overall": not failed,
                },
                indent=2,
            )
        )
    else:
        if failed:
            print(f"FAILED instances: {failed}")
        else:
            print(f"all {len(grid)} instances pass")
    return 0 if not failed else 1


def cmd_show(args) -> int:
    inst = family_instance(args.a1, args.a2)
    if args.what == "module":
        if not args.vertex:
            raise UnsupportedParameters("show module needs --vertex")
        x = parse_vertex(args.vertex)
        m = inst.module_M(x)
        layers = radical_layers(m)
        if args.json:
            print(json.dumps({"vertex": x.label, "module": m.to_json(),
                              "layers": [[v.label for v in layer] for layer in layers]}, indent=2))
        else:
            print(f"M({x.label}) over A[{args.a1},{args.a2}]:")
            print("  " + " / ".join(" ".join(v.label for v in layer) for layer in layers))
            print(f"  support: {', '.join(v.label for v in sorted(m.support()))}")
            print(f"  submodules: {reps.submodules_thin(m).count}")
    elif args.what == "quiver":
        b = to_exchange_matrix(inst.quiver)
        word = _parse_word(args.word, inst) if args.word else []
        for k in word:
            b = mutate_matrix(b, k)
        q = b.to_quiver() if word else inst.quiver
        if args.json:
            print(json.dumps(q.to_json(), indent=2))
        else:
            arrows = ", ".join(f"{a.label}->{b_.label}" for (a, b_) in q.arrows)
            print(f"Q[{args.a1},{args.a2}]" + (f" after {args.word}" if args.word else ""))
            print(f"  vertices: {', '.join(v.label for v in q.vertices)}")
            print(f"  arrows: {arrows}")
    elif args.what == "seed":
        seed = cluster.initial_seed(inst.quiver, track_f=inst.quiver.n <= args.laurent_cap)
        word = _parse_word(args.word, inst) if args.word else []
        seed = cluster.apply_word(seed, word)
        variables = None
        if args.variables and seed.f is not None:
            b0 = cluster.pattern_matrix(inst.quiver)
            variables = [cluster.seed_variable(seed, k, b0).to_sorted_list() for k in range(seed.n)]
        skipped = args.variables and seed.f is None
        data = seed.to_json()
        if args.json:
            if variables is not None:
                data["variables"] = variables
            if skipped:
                data["variables_skipped"] = "n > laurent cap"
            print(json.dumps(data, indent=2))
        else:
            for name in ("B", "C", "G"):
                _print_matrix(name, data[name], seed.labels)
            for label, var in zip(seed.labels, variables or []):
                print(f"x[{label.label}] = {var}")
            if skipped:
                print(f"variables skipped: n = {seed.n} > laurent cap {args.laurent_cap}")
    elif args.what == "homtable":
        table = [
            [reps.hom_dim(inst.module_M(x), inst.module_M(y)) for y in inst.vertices]
            for x in inst.vertices
        ]
        if args.json:
            print(json.dumps({"order": [v.label for v in inst.vertices], "hom": table}, indent=2))
        else:
            _print_matrix("Hom dims (row = source)", table, inst.vertices)
    elif args.what == "algebra":
        data = inst.algebra.to_json()
        if args.json:
            print(json.dumps(data, indent=2))
        else:
            print(f"A[{args.a1},{args.a2}]: dim = {data['dim']}")
            for pair, paths in data["basis"].items():
                print(f"  {pair}: {', '.join(paths)}")
    else:
        raise UnsupportedParameters(f"unknown show target {args.what!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivertilt",
        description="Exact verification of the tilting and cluster-mutation "
        "structure of the cyclic quiver family Q[a1,a2].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the checks for one (a1, a2)")
    p_verify.add_argument("--a1", type=int, required=True)
    p_verify.add_argument("--a2", type=int, required=True)
    p_verify.add_argument("--checks", help="comma-separated check ids (default: all)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--laurent-cap", type=int, default=None)
    p_verify.add_argument("--property-cases", type=int, default=properties.DEFAULT_CASES)
    p_verify.add_argument("--property-seed", type=int, default=properties.DEFAULT_SEED)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run the checks over a parameter grid")
    p_sweep.add_argument("--a1-max", type=int, required=True)
    p_sweep.add_argument("--a2-max", type=int, required=True)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--laurent-cap", type=int, default=None)
    p_sweep.add_argument("--property-cases", type=int, default=properties.DEFAULT_CASES)
    p_sweep.add_argument("--property-seed", type=int, default=properties.DEFAULT_SEED)
    p_sweep.set_defaults(func=cmd_sweep)

    p_show = sub.add_parser("show", help="print modules, quivers, seeds, tables")
    p_show.add_argument("what", choices=["module", "quiver", "seed", "homtable", "algebra"])
    p_show.add_argument("--a1", type=int, required=True)
    p_show.add_argument("--a2", type=int, required=True)
    p_show.add_argument("--vertex", help="vertex label, e.g. r1")
    p_show.add_argument("--word", help="comma-separated mutation word; mu, mu_r, mu_s, mu_t expand")
    p_show.add_argument("--variables", action="store_true", help="print cluster variables")
    p_show.add_argument("--json", action="store_true")
    p_show.add_argument("--laurent-cap", type=int, default=None)
    p_show.set_defaults(func=cmd_show)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.laurent_cap is None:
            args.laurent_cap = _default_cap()
        if args.laurent_cap < 0:
            raise UnsupportedParameters(f"laurent_cap must be >= 0, got {args.laurent_cap}")
        return args.func(args)
    except (UnsupportedParameters, VertexError) as exc:
        # bad parameters or selectors are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuivertiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
