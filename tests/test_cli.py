import json

import pytest

from quivertilt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "2", "--property-cases", "20"
    )
    assert code == 0
    assert "overall: pass" in out


def test_verify_bad_parameters_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--a1", "1", "--a2", "1")
    assert code == 2
    assert "a2 >= 2" in err


def test_verify_unknown_check_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--a1", "2", "--a2", "2", "--checks", "bogus")
    assert code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--a1",
        "2",
        "--a2",
        "3",
        "--json",
        "--checks",
        "acyclic-type,order-two",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "quivertilt-report/1"
    assert data["arithmetic"] == "exact-rational"
    assert data["parameters"] == {"a1": 2, "a2": 3}
    ids = [c["id"] for c in data["checks"]]
    assert ids == ["acyclic-type", "order-two"]
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["acyclic-type"]["statement"].startswith("Theorem 7.2")
    assert by_id["acyclic-type"]["witness"]["label"] == "E6"
    assert data["overall"] is True


def test_verify_filtered_checks_only(capsys):
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "3", "--checks", "acyclic-type"
    )
    assert code == 0
    assert "acyclic-type" in out
    assert "submodule-counts" not in out


def test_golden_fixture_skipped_away_from_22(capsys):
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "3", "--json", "--checks", "golden-fixture"
    )
    assert code == 0
    data = json.loads(out)
    check = data["checks"][0]
    assert check["skipped"] is True
    assert "2, 2" in check["skip_reason"] or "(2, 2)" in check["skip_reason"]


def test_laurent_cap_reported_as_skipped(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--a1",
        "2",
        "--a2",
        "2",
        "--json",
        "--laurent-cap",
        "3",
        "--checks",
        "t-to-shift,order-two",
    )
    assert code == 0
    data = json.loads(out)
    by_id = {c["id"]: c for c in data["checks"]}
    assert by_id["t-to-shift"]["witness"]["laurent_level"] == "skipped (cost cap)"
    assert by_id["order-two"]["witness"]["laurent_level"] == "skipped (cost cap)"


def test_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("QUIVERTILT_LAURENT_CAP", "3")
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "2", "--json", "--checks", "t-to-shift"
    )
    assert code == 0
    data = json.loads(out)
    assert data["laurent_cap"] == 3
    assert data["checks"][0]["witness"]["laurent_level"] == "skipped (cost cap)"


def test_sweep_small(capsys):
    code, out, _ = run(
        capsys, "sweep", "--a1-max", "1", "--a2-max", "3", "--property-cases", "10"
    )
    assert code == 0
    assert "(1,2)" in out and "(1,3)" in out
    assert "all 2 instances pass" in out


def test_sweep_runs_properties_once(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--a1-max",
        "1",
        "--a2-max",
        "3",
        "--json",
        "--property-cases",
        "10",
    )
    assert code == 0
    data = json.loads(out)
    first, second = data["instances"]
    assert any(c["id"] == "properties" for c in first["checks"])
    assert not any(c["id"] == "properties" for c in second["checks"])


def test_show_module(capsys):
    code, out, _ = run(capsys, "show", "module", "--a1", "2", "--a2", "2", "--vertex", "r1")
    assert code == 0
    assert "s1 / r2 / r0 / t1" in out
    assert "submodules: 5" in out


def test_show_module_needs_vertex(capsys):
    code, _, err = run(capsys, "show", "module", "--a1", "2", "--a2", "2")
    assert code == 2


def test_show_quiver_after_mu_r(capsys):
    code, out, _ = run(
        capsys, "show", "quiver", "--a1", "2", "--a2", "3", "--word", "mu_r", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert ["r1", "r2"] in data["arrows"]
    assert ["s1", "r3"] in data["arrows"]


def test_show_seed_word(capsys):
    code, out, _ = run(
        capsys,
        "show",
        "seed",
        "--a1",
        "2",
        "--a2",
        "2",
        "--word",
        "r1,r1",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["history"] == ["r1", "r1"]
    assert data["C"] == [[1 if i == j else 0 for j in range(5)] for i in range(5)]


# `show seed` at (2,3): B, C and G by rows.  C and G are not symmetric here, so
# printing a column of either as a row changes the output.
SEED_23_TEXT = {
    "r1": (
        "B (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 0 -1  1 -1  0  1]\n"
        "  [ 1  0 -1  0  0  0]\n"
        "  [-1  1  0  1  0  0]\n"
        "  [ 1  0 -1  0 -1  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [-1  0  0  0  0  0]\n"
        "C (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 1  0  0  0  0  0]\n"
        "  [ 1 -1  0  0  0  0]\n"
        "  [ 0  0  1  0  0  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [ 0  0  0  0  1  0]\n"
        "  [ 0  0  0  0  0  1]\n"
        "G (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 1  1  0  0  0  0]\n"
        "  [ 0 -1  0  0  0  0]\n"
        "  [ 0  0  1  0  0  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [ 0  0  0  0  1  0]\n"
        "  [ 0  0  0  0  0  1]\n"
    ),
    "mu_r": (
        "B (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 0  0 -1  0  0  1]\n"
        "  [ 0  0  1  0  0  0]\n"
        "  [ 1 -1  0 -1  0  0]\n"
        "  [ 0  0  1  0 -1  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [-1  0  0  0  0  0]\n"
        "C (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 1  0  0  0  0  0]\n"
        "  [ 1 -1  0  0  0  0]\n"
        "  [ 1  0 -1  0  0  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [ 0  0  0  0  1  0]\n"
        "  [ 0  0  0  0  0  1]\n"
        "G (order: r0, r1, r2, r3, s1, t1)\n"
        "  [ 1  1  1  0  0  0]\n"
        "  [ 0 -1  0  0  0  0]\n"
        "  [ 0  0 -1  0  0  0]\n"
        "  [ 0  0  0  1  0  0]\n"
        "  [ 0  0  0  0  1  0]\n"
        "  [ 0  0  0  0  0  1]\n"
    ),
}

def _matrices(text):
    """The B, C and G rows of a `show seed` text output."""
    out = {}
    for line in text.splitlines():
        if line.startswith("  ["):
            out[name].append([int(x) for x in line.strip(" []").split()])
        else:
            name = line[0]
            out[name] = []
    return out


@pytest.mark.parametrize("word", ["r1", "mu_r"])
def test_show_seed_prints_b_c_g_by_rows(capsys, word):
    argv = ["show", "seed", "--a1", "2", "--a2", "3", "--word", word]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == SEED_23_TEXT[word]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert {k: data[k] for k in "BCG"} == _matrices(SEED_23_TEXT[word])


def test_show_seed_variables(capsys):
    code, out, _ = run(
        capsys,
        "show",
        "seed",
        "--a1",
        "2",
        "--a2",
        "2",
        "--word",
        "mu",
        "--variables",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["variables"]) == 5
    for var in data["variables"]:
        assert all(coeff > 0 for _, coeff in var)


def test_show_homtable(capsys):
    code, out, _ = run(capsys, "show", "homtable", "--a1", "2", "--a2", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == ["r0", "r1", "r2", "s1", "t1"]
    assert data["hom"][0][1] == 0  # Hom(M(r0), M(r1)) = 0
    assert data["hom"][0][0] == 1


def test_show_algebra(capsys):
    code, out, _ = run(capsys, "show", "algebra", "--a1", "2", "--a2", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 13


def test_checks_alias(capsys):
    code, out, _ = run(capsys, "verify", "--a1", "2", "--a2", "3", "--json", "--checks", "type")
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["id"] == "acyclic-type"
    assert data["checks"][0]["witness"]["label"] == "E6"


def test_show_unknown_vertex_exit_two(capsys):
    code, _, err = run(capsys, "show", "module", "--a1", "2", "--a2", "2", "--vertex", "r9")
    assert code == 2
    code, _, err = run(capsys, "show", "module", "--a1", "2", "--a2", "2", "--vertex", "zebra")
    assert code == 2


def test_verify_exit_one_on_check_failure(capsys, monkeypatch):
    # break the frozen seed-sign convention: the shift pairing must fail and
    # the driver must exit 1, naming the check as failed
    from quivertilt import cluster

    monkeypatch.setattr(cluster, "SEED_B_SIGN", -cluster.SEED_B_SIGN)
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "2", "--checks", "t-to-shift"
    )
    assert code == 1
    assert "FAIL" in out


def test_show_seed_unknown_word_vertex_exit_two(capsys):
    code, _, err = run(capsys, "show", "seed", "--a1", "2", "--a2", "2", "--word", "r99")
    assert code == 2
    assert "r99" in err


def test_show_quiver_unknown_word_vertex_exit_two(capsys):
    code, _, err = run(capsys, "show", "quiver", "--a1", "2", "--a2", "2", "--word", "r99")
    assert code == 2
    assert "r99" in err


def test_verify_negative_property_cases_exit_two(capsys):
    code, out, err = run(
        capsys,
        "verify",
        "--a1",
        "2",
        "--a2",
        "2",
        "--checks",
        "properties",
        "--property-cases",
        "-3",
    )
    assert code == 2
    assert "property_cases" in err
    assert "pass" not in out


@pytest.mark.parametrize("checks", [",", ""])
def test_verify_empty_checks_exit_two(capsys, checks):
    code, out, err = run(capsys, "verify", "--a1", "2", "--a2", "2", "--checks", checks)
    assert code == 2
    assert "no check" in err
    assert "pass" not in out


def test_verify_negative_laurent_cap_exit_two(capsys):
    code, out, err = run(
        capsys, "verify", "--a1", "2", "--a2", "2", "--checks", "type", "--laurent-cap", "-1"
    )
    assert code == 2
    assert "laurent_cap" in err
    assert "pass" not in out


def test_verify_negative_laurent_cap_env_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("QUIVERTILT_LAURENT_CAP", "-5")
    code, out, err = run(capsys, "verify", "--a1", "2", "--a2", "2", "--checks", "type")
    assert code == 2
    assert "laurent_cap" in err
    assert "pass" not in out


def test_show_seed_variables_skipped_above_cap(capsys):
    argv = ["show", "seed", "--a1", "2", "--a2", "2", "--variables", "--laurent-cap", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "variables skipped: n = 5 > laurent cap 3" in out
    assert "x[" not in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["variables_skipped"] == "n > laurent cap"
    assert "variables" not in data


def test_show_seed_negative_laurent_cap_exit_two(capsys):
    code, out, err = run(
        capsys, "show", "seed", "--a1", "2", "--a2", "2", "--variables", "--laurent-cap", "-1"
    )
    assert code == 2
    assert "laurent_cap" in err
    assert "variables skipped" not in out


def test_show_seed_negative_laurent_cap_env_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("QUIVERTILT_LAURENT_CAP", "-3")
    code, out, err = run(capsys, "show", "seed", "--a1", "2", "--a2", "2", "--variables")
    assert code == 2
    assert "laurent_cap" in err
    assert out == ""


def test_raising_check_is_reported_and_the_rest_still_run(capsys, monkeypatch):
    from quivertilt import report

    def boom(ctx):
        raise AssertionError("hom table broke")

    monkeypatch.setitem(report.CHECKS, "hom-table", (report.CHECKS["hom-table"][0], boom))
    code, out, _ = run(
        capsys, "verify", "--a1", "2", "--a2", "2", "--json", "--checks", "tilting,hom-table,type"
    )
    assert code == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert list(by_id) == ["tilting", "hom-table", "acyclic-type"]
    assert by_id["hom-table"]["passed"] is False
    assert by_id["hom-table"]["skipped"] is False
    assert by_id["hom-table"]["witness"] == {"error": "AssertionError: hom table broke"}
    assert by_id["tilting"]["passed"] and by_id["acyclic-type"]["passed"]


def test_raising_tilting_report_is_built_once(monkeypatch):
    from quivertilt import report

    calls = []

    def boom(instance):
        calls.append(instance)
        raise ArithmeticError("tilting report broke")

    monkeypatch.setattr(report, "verify_tilting", boom)
    readers = ["projective-identifications", "pd-le-1", "tilting", "hom-table", "end-iso"]
    res = report.run_checks(2, 2, checks=readers)
    assert len(calls) == 1
    assert sorted(c.check_id for c in res.checks) == sorted(readers)
    for c in res.checks:
        assert not c.passed
        assert c.witness == {"error": "ArithmeticError: tilting report broke"}


@pytest.mark.parametrize(
    "name,readers",
    [
        (
            "replay_mu",
            [
                "golden-fixture",
                "acyclic-type",
                "source-sink-discipline",
                "palindrome",
                "order-two",
                "t-to-shift",
            ],
        ),
        ("verify_T_maps_to_shift", ["golden-fixture", "t-to-shift"]),
    ],
)
def test_raising_mutation_data_is_built_once(monkeypatch, name, readers):
    from quivertilt import cluster, report

    calls = []

    def boom(*args):
        calls.append(args)
        raise ArithmeticError(f"{name} broke")

    monkeypatch.setattr(cluster, name, boom)
    res = report.run_checks(2, 2, checks=readers)
    assert len(calls) == 1
    assert [c.check_id for c in res.checks] == readers
    for c in res.checks:
        assert not c.passed and not c.skipped
        assert c.witness == {"error": f"ArithmeticError: {name} broke"}
