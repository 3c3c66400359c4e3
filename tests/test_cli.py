import json

import pytest

from cycvin import cli, formulas


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--set", "[1~3,2,4]", "--n", "1..8",
                       "--format", "csv", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,elapsed_ms"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == [1, 1, 2, 5, 14, 42, 132, 429]


def test_count_alternating_doubleton(capsys):
    code, out, _ = run(capsys, "count", "--set", "[1~2~3] [3~2~1]", "--n", "6", "--jobs", "1")
    assert code == 0
    assert "count=16" in out


def test_count_single_bond_pair_is_unavoidable(capsys):
    code, out, _ = run(capsys, "count", "--set", "[1~2]", "--n", "5", "--jobs", "1")
    assert code == 0
    assert "count=0" in out


def test_count_json_deterministic(capsys):
    args = ("count", "--set", "[1~3,2,4]", "--n", "1..6", "--format", "json", "--jobs", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = json.loads(out1)
    assert rows[-1]["count"] == "42"


def test_count_jobs_equivalence(capsys):
    _, out1, _ = run(capsys, "count", "--set", "[2~3,4,1]", "--n", "7",
                     "--format", "json", "--jobs", "1")
    _, out2, _ = run(capsys, "count", "--set", "[2~3,4,1]", "--n", "7",
                     "--format", "json", "--jobs", "2")
    assert out1 == out2
    refined = [run(capsys, "count", "--set", "[1~4,2,3]", "--n", "4..7", "--format", "json",
                   "--stat", "predecessor_of_n", "--jobs", jobs)[1] for jobs in ("1", "2")]
    assert refined[0] == refined[1]
    assert json.loads(refined[0])[-1]["refinement"]["stat"] == "predecessor_of_n"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--set", "[1,bad", "--n", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("count", "--set", "[1~3,2,4]", "--n", "9", "--jobs", "1"),
    ("enumerate", "--set", "[1~3,2,4]", "--n", "9"),
    ("table", "--table", "1", "--n-max", "7", "--jobs", "1"),
], ids=["count", "enumerate", "table"])
def test_budget_exit_code(capsys, argv):
    code, _, err = run(capsys, *argv, "--budget-nodes", "100")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ("count", "--set", "[1~3,2,4]", "--n", "5", "--jobs", "1"),
    ("enumerate", "--set", "[1~3,2,4]", "--n", "5"),
    ("unavoidable", "--k", "3", "--horizon", "5"),
], ids=["count", "enumerate", "unavoidable"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_bad_budget_exit_code(capsys, argv, budget):
    # a budget below 1 is bad input, not an exhausted budget
    code, out, err = run(capsys, *argv, "--budget-nodes", budget)
    assert code == 2 and out == "" and "budget-nodes" in err


@pytest.mark.parametrize("max_subsets", ["0", "-1"])
def test_bad_max_subsets_exit_code(capsys, max_subsets):
    # a scan of no subsets would report a classification backed by no search
    code, out, err = run(capsys, "unavoidable", "--k", "3", "--horizon", "5",
                         "--max-subsets", max_subsets)
    assert code == 2 and out == "" and "max_subsets" in err
    code, out, _ = run(capsys, "unavoidable", "--k", "3", "--horizon", "5", "--max-subsets", "1")
    assert code == 0 and json.loads(out)["subsets_checked"] == 1


def test_bad_jobs_exit_code(capsys):
    code, _, err = run(capsys, "count", "--set", "[1~3,2,4]", "--n", "6", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "[1~2,3]", "--n", "5")
    assert code == 0
    assert out.strip() == "[1,5,4,3,2]"


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--set", "[1~3,2,4]", "--n", "6", "--limit", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_enumerate_limit_below_one(capsys, limit):
    code, out, err = run(capsys, "enumerate", "--set", "[1~3,2,4]", "--n", "6",
                         "--limit", limit)
    assert code == 2
    assert out == "" and "--limit" in err


def test_enumerate_takes_no_jobs(capsys):
    # enumeration runs in one process, so the flag is refused, not ignored
    with pytest.raises(SystemExit) as info:
        cli.main(["enumerate", "--set", "[1~2,3]", "--n", "5", "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_refined_count(capsys):
    code, out, _ = run(capsys, "count", "--set", "[1~4,2,3]", "--n", "5",
                       "--stat", "predecessor_of_n", "--jobs", "1")
    assert code == 0
    assert "1:1 2:3 3:5 4:5" in out


def test_refined_count_from_n_1(capsys):
    # a refined range may start at n = 1, which the fold answers like any n
    code, out, _ = run(capsys, "count", "--set", "[1~4,2,3]", "--n", "1..5",
                       "--stat", "predecessor_of_n")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["n=1", "n=2", "n=3", "n=4", "n=5"]
    assert rows[0].endswith("predecessor_of_n: 1:1") and rows[1].endswith("predecessor_of_n: 1:1")


def test_formula(capsys):
    assert run(capsys, "formula", "catalan", "--n", "5")[1].strip() == "42"
    assert run(capsys, "formula", "catalan-triangle", "--n", "3", "--k", "2")[1].strip() == "5"
    assert run(capsys, "formula", "dyck-uudd", "--n", "6")[1].strip() == "13"
    out = run(capsys, "formula", "consec-123-closed", "--n", "4")[1]
    assert "float approximation" in out


def test_formula_dyck_uudd_large_n(capsys):
    code, out, _ = run(capsys, "formula", "dyck-uudd", "--n", "900")
    assert code == 0
    assert int(out) == formulas.dyck_uudd_explicit(900)


def test_formula_domain_error(capsys):
    code, _, err = run(capsys, "formula", "bond12-34", "--n", "1")
    assert code == 2 and "error" in err


def test_formula_missing_k(capsys):
    code, _, err = run(capsys, "formula", "catalan-triangle", "--n", "5")
    assert code == 2 and "--k" in err


def test_table_pass(capsys):
    code, out, _ = run(capsys, "table", "--table", "1", "--n-max", "7", "--jobs", "1")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 21


def test_table_fail_exit(capsys, monkeypatch):
    from cycvin import tables

    bad = tables.expected_counts(1)
    label = next(iter(bad))
    bad[label][3] += 1
    monkeypatch.setattr(cli, "check_table",
                        lambda t, n, jobs, budget: tables.TableCheck(
                            table=t,
                            n_max=n,
                            cells=[tables.TableCell(label, 3, bad[label][3], 0)],
                        ))
    code, out, err = run(capsys, "table", "--table", "1", "--n-max", "3")
    assert code == 1
    assert "FAIL" in out and "mismatch" in err


def test_bijection_check(capsys):
    code, out, _ = run(capsys, "bijection-check", "--map", "max-chain", "--n", "6")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("bijection, n", [("max-pred", "0"), ("max-pred", "3"),
                                          ("max-chain", "3"), ("cyclic-order", "1"),
                                          ("cyclic-order", "2")])
def test_bijection_check_below_its_smallest_size(capsys, bijection, n):
    # the suite's loops start at n = 4 (m = 3 for cyclic-order), so nothing
    # would be checked: no PASS
    code, out, err = run(capsys, "bijection-check", "--map", bijection, "--n", n)
    assert code == 2
    assert out == "" and "--n" in err


@pytest.mark.parametrize("bijection, n", [("max-pred", "4"), ("cyclic-order", "3")])
def test_bijection_check_at_its_smallest_size(capsys, bijection, n):
    code, out, _ = run(capsys, "bijection-check", "--map", bijection, "--n", n)
    assert code == 0 and out.startswith("PASS")


def test_unavoidable_classification(capsys):
    code, out, _ = run(capsys, "unavoidable", "--k", "3", "--horizon", "8")
    assert code == 0
    data = json.loads(out)
    assert len(data["minimal_sets"]) == 6
    assert data["smallest_size"] == 2
    assert data["min_size_conjecture_consistent"] is True
    assert data["horizon_relative"] is True


@pytest.mark.parametrize("argv", [("--k", "3"), ("--set", "[1~2~3] [1~3~2]")])
def test_unavoidable_horizon_below_k(capsys, argv):
    code, out, err = run(capsys, "unavoidable", *argv, "--horizon", "2")
    assert code == 2 and out == "" and "horizon" in err


def test_unavoidable_classification_horizon_at_k(capsys):
    # no set can be recorded at horizon k, so there is no report to print
    code, out, err = run(capsys, "unavoidable", "--k", "3", "--horizon", "3")
    assert code == 2 and out == "" and "horizon" in err
    code, out, _ = run(capsys, "unavoidable", "--set", "[1~2~3] [1~3~2]", "--horizon", "3")
    assert code == 0 and json.loads(out)["horizon"] == 3


@pytest.mark.parametrize("argv", [("--k", "3"), ("--set", "[1~2~3] [2~3~1]")])
def test_unavoidable_budget_exit_code(capsys, argv):
    code, out, err = run(capsys, "unavoidable", *argv, "--horizon", "8", "--budget-nodes", "10")
    assert code == 3 and out == "" and "budget" in err
    code, out, _ = run(capsys, "unavoidable", *argv, "--horizon", "8")
    assert code == 0 and json.loads(out)["horizon"] == 8


def test_unavoidable_set_report(capsys):
    code, out, _ = run(capsys, "unavoidable", "--set", "[1~2~3] [1~3~2]", "--horizon", "7")
    assert code == 0
    data = json.loads(out)
    assert data["empty_suffix_start"] == 3


def test_witness_minus_one(capsys):
    code, out, _ = run(capsys, "witness", "--kind", "minus-one", "--i", "1",
                       "--k", "3", "--excluded", "[1~2~3]", "--n", "6")
    assert code == 0
    assert out.splitlines()[0] == "[1,5,6,4,3,2]"
    assert "verified" in out


def test_witness_blowup(capsys):
    code, out, _ = run(capsys, "witness", "--kind", "blowup", "--pattern", "1,2", "--m", "3")
    assert code == 0
    assert out.splitlines()[0] == "[1,4,2,5,3,6]"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "pruning", "--n-max", "6")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_verify_n_max_below_one(capsys, n_max):
    code, out, err = run(capsys, "verify", "pruning", "--n-max", n_max)
    assert code == 2
    assert out == "" and "--n-max" in err


# (command, its size flag, the suite table, suite, smallest size, largest n
# checked)
SUITE_BOUNDS = [("verify", "--n-max", "SUITES", name, low, cap) for name, low, cap in (
    ("symmetry", 1, 7), ("pruning", 1, 8), ("formulas", 1, None), ("bijections", 4, 9),
    ("wilf", 1, 9))] + [("bijection-check", "--n", "BIJECTIONS", name, low, cap)
                        for name, low, cap in (("cyclic-order", 3, 9), ("max-pred", 4, None),
                                               ("max-chain", 4, None))]


def _args(command, flag, name, n):
    return ((command, name) if command == "verify" else (command, "--map", name)) + (flag, str(n))


@pytest.mark.parametrize("command, flag, table, name, low, cap", SUITE_BOUNDS)
def test_suites_report_the_range_they_checked(capsys, monkeypatch, command, flag, table, name,
                                              low, cap):
    # the report names the sizes the suite ran, never a requested size above
    # its cap, and a size below its smallest is refused
    from cycvin import verify

    suites, ran = getattr(verify, table), []
    monkeypatch.setitem(suites, name, suites[name]._replace(run=lambda h: ran.append(h) or []))
    what = "suite" if command == "verify" else "map"
    code, out, _ = run(capsys, *_args(command, flag, name, 12))
    top = 12 if cap is None else cap
    assert (code, ran, out) == (0, [top], f"PASS: {what} {name!r} checked n={low}..{top}\n")
    ran.clear()
    code, out, err = run(capsys, *_args(command, flag, name, low - 1))
    assert (code, ran, out) == (2, [], "") and f"{flag} >= {low}" in err


@pytest.mark.parametrize("command, flag, table, name, low, cap", SUITE_BOUNDS)
def test_suites_pass_at_their_smallest_size(capsys, command, flag, table, name, low, cap):
    what = "suite" if command == "verify" else "map"
    code, out, _ = run(capsys, *_args(command, flag, name, low))
    assert (code, out) == (0, f"PASS: {what} {name!r} checked n={low}\n")


def test_verify_avoidability_reports_its_fixed_sizes(capsys, monkeypatch):
    # the avoidability suite checks fixed sizes, so --n-max does not change
    # what it runs or what it reports
    from cycvin import verify

    monkeypatch.setitem(verify.SUITES, "avoidability",
                        verify.SUITES["avoidability"]._replace(run=lambda h: []))
    for n_max in ("1", "12"):
        code, out, _ = run(capsys, "verify", "avoidability", "--n-max", n_max)
        assert code == 0
        assert out == ("PASS: suite 'avoidability' checked fixed sizes: searches up to n=9, "
                       "witnesses up to n=50\n")


def test_verify_all_reports_every_suite(capsys, monkeypatch):
    from cycvin import verify

    for name, suite in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, suite._replace(run=lambda h: []))
    code, out, _ = run(capsys, "verify", "all", "--n-max", "8")
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()] == [f"{name!r}" for name in verify.SUITES]
    assert "'symmetry' checked n=1..7" in out and "'wilf' checked n=1..8" in out
    code, _, err = run(capsys, "verify", "all", "--n-max", "3")
    assert code == 2 and "'bijections'" in err
