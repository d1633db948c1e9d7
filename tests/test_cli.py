import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import upkeep.cli
from upkeep import check_feasible
from upkeep.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    RhoGrid,
    ValidationError,
    main,
    parse_mechanism_table,
    parse_types,
)

EX1 = "id,u,c,mass\nL,3,3,1\nM,4,2,1\nH,10,1.25,1\n"
EX2 = "id,u,c,mass\nH,5,1,0.333333333333333\nM,1,1,0.333333333333333\nL,0.1,1,0.333333333333333\n"


def test_parse_types_table():
    d = parse_types(EX1)
    assert d.ids == ("L", "M", "H")
    assert d.by_id("H").u == 10.0
    assert d.by_id("H").c == 1.25
    assert d.total_mass == pytest.approx(3.0)


def test_parse_types_comments_and_blanks():
    text = "# economy\n\nid,u,c,mass\n# a comment\nA,1,2,0.5\n"
    d = parse_types(text)
    assert d.ids == ("A",)


def test_parse_types_header_only():
    with pytest.raises(ValidationError):
        parse_types("id,u,c,mass\n")


def test_parse_types_bad_cost():
    with pytest.raises(ValidationError) as err:
        parse_types("id,u,c,mass\nA,1,0,1\n")
    assert "c" in str(err.value)


def test_parse_types_bad_header_and_cells():
    with pytest.raises(ParseError):
        parse_types("id,u,c\nA,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_types("id,u,c,mass\nA,1,oops,1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_types("id,u,c,mass\nA,1,1\n")


def test_parse_types_duplicate_ids():
    with pytest.raises(ValidationError):
        parse_types("id,u,c,mass\nA,1,1,1\nA,2,1,1\n")


def test_rho_grid_values():
    assert RhoGrid(1.0, 8.0, 4).values() == pytest.approx([1.0, 10.0 / 3, 17.0 / 3, 8.0])
    logs = RhoGrid(1.0, 8.0, 4, log=True).values()
    assert logs == pytest.approx([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValidationError):
        RhoGrid(1.0, 8.0, 1)


# Grid ends: equal, descending, ratios of 1e+-300, a linear step that
# rounds to 0 (count 3 and up) or is subnormal (count 2), and seeded draws.
_DRAWN_ENDS = 10.0 ** np.random.default_rng(36).uniform(-150.0, 150.0, (40, 2))
GRID_ENDS = [
    (3.3, 3.3), (8.0, 1.0), (1e-150, 1e150), (1e150, 1e-150), (5e-324, 1e-323),
    (1e-310, 2e-310), (0.7, 0.7 * (1 + 2**-52)),
] + [tuple(ends) for ends in _DRAWN_ENDS.tolist()]


@pytest.mark.parametrize("count", [2, 3, 16, 1000])
def test_rho_grid_keeps_numpys_bits(count):
    for start, stop in GRID_ENDS:
        for log, numpy_grid in ((True, np.geomspace), (False, np.linspace)):
            got = RhoGrid(start, stop, count, log=log).values()
            want = numpy_grid(start, stop, count).tolist()
            assert [x.hex() for x in got] == [x.hex() for x in want], (start, stop, log)


def test_run_config_validation(tmp_path, capsys):
    for args, message in (
        (["--mode", "fb", "--rho", "-1"], "rho must be a positive finite real"),
        (["--mode", "sweep"], "sweep mode requires --rho-grid"),
        (["--mode", "simulate", "--rho", "1", "--horizon", "10"],
         "simulate mode requires a --seed >= 0"),
    ):
        assert run_cli(tmp_path, EX1, args) == (EXIT_VALIDATION, "")
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_rho_and_grid_are_validation_errors(tmp_path, value):
    with pytest.raises(ValidationError):
        RhoGrid(1.0, float(value), 4)
    with pytest.raises(ValidationError):
        RhoGrid(float(value), 8.0, 4)
    for args in (
        ["--mode", "part", "--rho", value],
        ["--mode", "sweep", "--rho-grid", f"1:{value}:4"],
    ):
        code, out = run_cli(tmp_path, EX1, args)
        assert code == EXIT_VALIDATION
        assert out == ""


def run_cli(tmp_path, text, args):
    inp = tmp_path / "types.csv"
    inp.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    code = main(args + ["--input", str(inp), "--output", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def test_part_mode_summary(tmp_path):
    code, out = run_cli(tmp_path, EX1, ["--mode", "part", "--rho", "5.5"])
    assert code == EXIT_OK
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("Q=0.285714285714, y=3.21428571429,")


def test_fb_mode_summary(tmp_path):
    code, out = run_cli(tmp_path, EX1, ["--mode", "fb", "--rho", "5.5"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "id,u,c,mass,nu,R,P,utility,class"
    assert lines[1].split(",")[0] == "L"
    assert "Q=0.266666666667, y=2.7," in lines[-1]


def test_empty_mass_file_is_validation_error(tmp_path):
    code, _ = run_cli(tmp_path, "id,u,c,mass\n", ["--mode", "fb", "--rho", "1"])
    assert code == EXIT_VALIDATION


def test_missing_file_is_parse_error(tmp_path):
    code = main(
        ["--mode", "fb", "--rho", "1", "--input", str(tmp_path / "none.csv")]
    )
    assert code == EXIT_PARSE


def test_sweep_monotone_columns(tmp_path):
    code, out = run_cli(
        tmp_path, EX1, ["--mode", "sweep", "--rho-grid", "1:8:4:log"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "rho,y_fb,Q_fb,W_fb,y_star,Q_star,W_star"
    rows = [line.split(",") for line in lines[1:]]
    q_fb = [float(r[2]) for r in rows]
    q_star = [float(r[5]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(q_fb, q_fb[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(q_star, q_star[1:]))


def test_sweep_with_ic_columns(tmp_path):
    code, out = run_cli(
        tmp_path, EX2, ["--mode", "sweep", "--rho-grid", "0.5:2:2", "--ic"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].endswith(",y_ic,Q_ic,W_ic")
    assert len(lines[1].split(",")) == 10


def test_byte_identical_reruns(tmp_path):
    _, first = run_cli(tmp_path, EX1, ["--mode", "part", "--rho", "5.5"])
    _, second = run_cli(tmp_path, EX1, ["--mode", "part", "--rho", "5.5"])
    assert first == second
    _, s1 = run_cli(
        tmp_path, EX2, ["--mode", "sweep", "--rho-grid", "1:4:3", "--ic"]
    )
    _, s2 = run_cli(
        tmp_path, EX2, ["--mode", "sweep", "--rho-grid", "1:4:3", "--ic"]
    )
    assert s1 == s2


def test_mechanism_round_trip(tmp_path):
    code, out = run_cli(tmp_path, EX2, ["--mode", "ic", "--rho", "1"])
    assert code == EXIT_OK
    d, mech = parse_mechanism_table(out)
    rep = check_feasible(mech, d, rho=1.0, tol=1e-9)
    assert rep.ok, rep.passed


def test_simulate_mode_reads_mechanism_table(tmp_path):
    code, out = run_cli(tmp_path, EX2, ["--mode", "ic", "--rho", "1"])
    assert code == EXIT_OK
    mech_file = tmp_path / "mech.csv"
    mech_file.write_text(out, encoding="utf-8")
    out2 = tmp_path / "sim.csv"
    code = main(
        [
            "--mode",
            "simulate",
            "--input",
            str(mech_file),
            "--rho",
            "1",
            "--seed",
            "5",
            "--horizon",
            "20000",
            "--output",
            str(out2),
        ]
    )
    assert code == EXIT_OK
    lines = out2.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "metric,estimate,ci_radius"
    metrics = {line.split(",")[0]: line for line in lines[1:]}
    q_est = float(metrics["poisson_Q"].split(",")[1])
    ci = float(metrics["poisson_Q"].split(",")[2])
    assert abs(q_est - 0.3) <= 5.0 * ci
    assert "fluid_Q" in metrics


def test_oracle_check_mode(tmp_path):
    code, out = run_cli(tmp_path, EX2, ["--mode", "oracle-check", "--rho", "1"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "W_solver,W_oracle,delta"
    assert len(lines) == 4
    for line in lines[1:]:
        assert abs(float(line.split(",")[2])) <= 2e-3


def test_oracle_check_screening_row_is_exact(tmp_path):
    # the screening oracle is an exact LP, so on the README table it
    # agrees with the solver to rounding (the uptime grid it replaced
    # printed a delta of 4.83e-06 here)
    code, out = run_cli(tmp_path, EX1, ["--mode", "oracle-check", "--rho", "5.5"])
    assert code == EXIT_OK
    w_solver, w_oracle, delta = map(float, out.strip().splitlines()[3].split(","))
    assert abs(delta) <= 1e-9 and abs(w_solver - w_oracle) <= 1e-9


# oracle-check's exit code and stdout on both tables at four rho values
ORACLE_CHECK_BYTES = {
    ("EX1", "0.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "13.6785714286,13.6785714286,-1.7763568394e-15\n"
        "13.6785714286,13.6785714286,-1.95399252334e-14\n"
        "13.6785714286,13.6785714286,3.5527136788e-15\n",
    ),
    ("EX1", "1"): (
        0,
        "W_solver,W_oracle,delta\n"
        "11.1875,11.1875,0\n"
        "11.1875,11.1875,-1.7763568394e-14\n"
        "11.1875,11.1875,0\n",
    ),
    ("EX1", "2.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "6.43181818182,6.43181818182,0\n"
        "6.43181818182,6.43181818182,-1.33226762955e-14\n"
        "6.43181818182,6.43181818182,-8.881784197e-16\n",
    ),
    ("EX1", "5.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "2.15,2.15,-8.881784197e-16\n"
        "1.96428571429,1.96428571429,-1.70974345792e-14\n"
        "0.977272727273,0.977272727273,-2.22044604925e-16\n",
    ),
    ("EX2", "0.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "1.02222222222,1.02222222222,-2.22044604925e-16\n"
        "0.901960784314,0.901960784314,-2.55351295664e-15\n"
        "0.870056497175,0.870056497175,-3.33066907388e-16\n",
    ),
    ("EX2", "1"): (
        0,
        "W_solver,W_oracle,delta\n"
        "0.516666666667,0.516666666667,1.11022302463e-16\n"
        "0.35632183908,0.35632183908,-2.22044604925e-15\n"
        "0.266666666667,0.266666666667,2.22044604925e-16\n",
    ),
    ("EX2", "2.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "0,0,0\n"
        "0,0,0\n"
        "0,0,0\n",
    ),
    ("EX2", "5.5"): (
        0,
        "W_solver,W_oracle,delta\n"
        "0,0,0\n"
        "0,0,0\n"
        "0,0,0\n",
    ),
}


@pytest.mark.parametrize("table, rho", list(ORACLE_CHECK_BYTES))
def test_oracle_check_bytes_are_pinned(tmp_path, capsys, table, rho):
    inp = tmp_path / "types.csv"
    inp.write_text({"EX1": EX1, "EX2": EX2}[table], encoding="utf-8")
    code = main(["--mode", "oracle-check", "--rho", rho, "--input", str(inp)])
    assert (code, capsys.readouterr().out) == ORACLE_CHECK_BYTES[table, rho]


# sha256 of "<exit code>\n<stdout>" for the README commands on the README
# table (EX1): the solver modes and oracle-check at rho 5.5, both sweeps,
# and simulate of the ic table at rho 5.5, seed 1, horizon 1e4
README_BYTES = {
    "fb": "1da1e0e296aa17673f343d92990e91ca6ba4d3816067fb4aa3b7bd6965603d04",
    "part": "8a2c3c399c83bcc1b5203401b7fa2e70d43519c82fda095131383d84813b3950",
    "ic": "2ef669de21df769fcd5e1abc3fa310254fd4f57f11fcf4458f690f7674f75224",
    "oracle-check": "b1878a25534d52c2ea8fb1b71e0bf8db15b0d0f96047f4e390e35a85fe942173",
    "sweep 1:8:16:log --ic": "063bb92a90e63fcd5b036079b081ab02f89295c6fb8a76cad1f7ff36fb7c87ea",
    "sweep 1:8:5": "7cf323cb0229b5b0bb904bef362d3e493151ff407c1856ffc4d7a9f971813baf",
    "simulate": "dd137b4b888a5585ae1fdce2b5c9c8a9b0b172f19f4a6c06d28ebfcb03f7f37d",
}


def test_readme_commands_print_pinned_bytes(tmp_path, capsys):
    inp = tmp_path / "types.csv"
    inp.write_text(EX1, encoding="utf-8")
    mech = tmp_path / "mech.csv"
    rho = ["--rho", "5.5"]
    argvs = {mode: ["--mode", mode, "--input", str(inp), *rho]
             for mode in ("fb", "part", "ic", "oracle-check")}
    argvs["sweep 1:8:16:log --ic"] = [
        "--mode", "sweep", "--input", str(inp), "--rho-grid", "1:8:16:log", "--ic"
    ]
    argvs["sweep 1:8:5"] = ["--mode", "sweep", "--input", str(inp), "--rho-grid", "1:8:5"]
    argvs["simulate"] = [
        "--mode", "simulate", "--input", str(mech), *rho, "--seed", "1", "--horizon", "1e4"
    ]
    digests = {}
    for name, argv in argvs.items():
        code = main(argv)
        out = capsys.readouterr().out
        if name == "ic":
            mech.write_text(out, encoding="utf-8")
        digests[name] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digests == README_BYTES


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_give_the_same_bytes(tmp_path, capsys, end):
    # The input is read as bytes and split by str.splitlines, so a type
    # table and a mechanism table with \r\n or lone \r line ends give
    # what they give with \n, on stdout and in an error's line number.
    types = "# README table\n\n" + EX1
    assert main(["--mode", "ic", "--input", _written(tmp_path / "t.csv", types), "--rho", "5.5"]) == 0
    mech = capsys.readouterr().out
    bad = EX1.replace("M,4,2,1", "M,4,oops,1")

    def outputs(ending):
        paths = [_written(tmp_path / f"{name}.csv", text.replace("\n", ending))
                 for name, text in (("types", types), ("mech", mech), ("bad", bad))]
        sweep = ["--mode", "sweep", "--ic", "--input", paths[0], "--rho-grid", "1:8:16:log"]
        simulate = ["--mode", "simulate", "--input", paths[1], "--rho", "5.5",
                    "--seed", "1", "--horizon", "1e4"]
        parse = ["--mode", "part", "--input", paths[2], "--rho", "5.5"]
        got = []
        for argv in (sweep, simulate, parse):
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    expected = outputs("\n")
    assert [code for code, _, _ in expected] == [EXIT_OK, EXIT_OK, EXIT_PARSE]
    assert "line 3" in expected[2][2]
    assert outputs(end) == expected


def _written(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_simulate_rejects_a_mechanism_that_does_not_balance_at_rho(tmp_path, capsys):
    # The README's ic table, solved at rho 5.5, balances there (residual
    # about -1e-12) but not at rho 1, where it would simulate an uptime of
    # 0.55 against its own Q of 0.18.
    code, out = run_cli(tmp_path, EX1, ["--mode", "ic", "--rho", "5.5"])
    assert code == EXIT_OK
    mech_file = tmp_path / "mech.csv"
    mech_file.write_text(out, encoding="utf-8")
    capsys.readouterr()
    args = ["--mode", "simulate", "--input", str(mech_file), "--seed", "1", "--horizon", "100"]
    assert main([*args, "--rho", "5.5"]) == EXIT_OK
    capsys.readouterr()
    assert main([*args, "--rho", "1"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: mechanism is infeasible at rho=1: "
        "balance residual -0.818181818182, tolerance 3e-09\n"
    )


def test_simulate_names_the_type_that_breaks_the_simplex(tmp_path, capsys):
    # A balances at rho 1 (P = 0.5 = rho * Q) but holds R = 0.9 > Q = 0.5.
    mech_file = tmp_path / "mech.csv"
    mech_file.write_text(
        "id,u,c,mass,nu,R,P,utility,class\n"
        "A,1,1,1,1,0.9,0.5,0.4,TIER1\n"
        "B,2,1,1,2,0,0,0,OUT\n"
        "Q=0.5, y=0, W=0, balance_residual=0\n",
        encoding="utf-8",
    )
    args = ["--mode", "simulate", "--input", str(mech_file), "--seed", "1", "--horizon", "10"]
    # At rho 2 it breaks balance as well, and both families are named.
    for rho, balance in (("1", ""), ("2", "balance residual 0.5, ")):
        assert main([*args, "--rho", rho]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", (
            f"error: mechanism is infeasible at rho={rho}: {balance}"
            "simplex violation 0.4 at type A, tolerance 2e-09\n"
        ))


def test_oracle_check_passes_where_first_best_welfare_is_zero(tmp_path, capsys):
    # Nobody contributes at this rho, so first-best welfare is 0; written
    # as u_bar - rho * y_fb it rounded to 7.5e-9 and failed the check.
    inp = tmp_path / "types.csv"
    inp.write_text(
        "id,u,c,mass\n"
        "T0,47.14591043780509,6.545506848830684,132615.1427425927\n"
        "T1,35.23975454752297,4.892514591402649,1130225.69032588\n",
        encoding="utf-8",
    )
    code = main(["--mode", "oracle-check", "--rho", "684545301.1098939", "--input", str(inp)])
    assert (code, capsys.readouterr().out) == (
        EXIT_OK,
        "W_solver,W_oracle,delta\n0,0,0\n0,0,0\n0,0,0\n",
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_horizon_is_validation_error(tmp_path, capsys, value):
    code, out = run_cli(tmp_path, EX2, ["--mode", "ic", "--rho", "1"])
    assert code == EXIT_OK
    mech_file = tmp_path / "mech.csv"
    mech_file.write_text(out, encoding="utf-8")
    capsys.readouterr()
    args = ["--mode", "simulate", "--input", str(mech_file), "--rho", "1", "--seed", "1"]
    assert main(args + ["--horizon", value]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "horizon" in captured.err


def test_oracle_check_on_more_than_eight_types_is_validation_error(tmp_path, capsys):
    # The LP oracle is capped at 8 types; the cap is a validation error
    # with a one-line message, not a traceback.
    rows = "".join(f"T{i},{1 + 0.7 * i},{1 + 0.3 * (i % 5)},1\n" for i in range(12))
    code, out = run_cli(
        tmp_path, "id,u,c,mass\n" + rows, ["--mode", "oracle-check", "--rho", "5.5"]
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "8 types" in err
    assert err.count("\n") == 1


def test_infinite_threshold_rendered_as_inf(tmp_path):
    text = "id,u,c,mass\nA,1,1,1\n"
    code, out = run_cli(tmp_path, text, ["--mode", "part", "--rho", "3"])
    assert code == EXIT_OK
    assert "y=inf" in out.strip().splitlines()[-1]


def test_negative_seed_is_validation_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, EX1, ["--mode", "ic", "--rho", "5.5"])
    assert code == EXIT_OK
    mech_file = tmp_path / "mech.csv"
    mech_file.write_text(out, encoding="utf-8")
    capsys.readouterr()
    args = ["--mode", "simulate", "--input", str(mech_file), "--rho", "5.5"]
    assert main(args + ["--seed", "-1", "--horizon", "100"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", ["fb", "part", "ic"])
def test_masses_summing_past_the_float_range_are_validation_errors(tmp_path, capsys, mode):
    # each mass is finite but their sum overflows; solving it would give
    # Q=0, y=inf, W=0
    text = "id,u,c,mass\nA,1,1,1e308\nB,2,1,1e308\n"
    code, out = run_cli(tmp_path, text, ["--mode", mode, "--rho", "5.5"])
    assert code == EXIT_VALIDATION
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "total_mass must be finite" in err
    assert err.count("\n") == 1


def test_massless_table_is_validation_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, "id,u,c,mass\nA,1,1,0\nB,2,1,0\n", ["--mode", "fb", "--rho", "1"])
    assert (code, out) == (EXIT_VALIDATION, "")
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mass > 0" in err
    assert err.count("\n") == 1


def test_simulate_accepts_a_level_just_below_zero(tmp_path, capsys):
    # The mechanism table's R = -1e-10 is inside Mechanism's box slack;
    # the policy clamps it to a usage probability of 0.
    table = (
        "id,u,c,mass,nu,R,P,utility,class\n"
        "A,1,1,1,1,-1e-10,0.5,-0.5,FULL\n"
        "Q=0.5, y=1, W=-0.5, balance_residual=0\n"
    )
    code, out = run_cli(
        tmp_path, table, ["--mode", "simulate", "--rho", "1", "--seed", "1", "--horizon", "100"]
    )
    assert code == EXIT_OK
    assert out.startswith("metric,estimate,ci_radius\npoisson_Q,")
    assert capsys.readouterr().err == ""


_MECH_ROW = "A,1,1,1,1,0.5,0.5,0,FULL\n"
_MECH_HEADER = "id,u,c,mass,nu,R,P,utility,class\n"
_MECH_SUMMARY = "Q=0.5, y=1, W=0, balance_residual=0\n"
_SIMULATE = ["--mode", "simulate", "--rho", "1", "--seed", "1", "--horizon", "100"]


@pytest.mark.parametrize(
    "text, args, code, message",
    [
        ("id,u,cost,mass\nA,1,1,1\n", ["--mode", "fb", "--rho", "1"], EXIT_PARSE,
         "line 1: expected header 'id,u,c,mass'"),
        ("# comments only\n\n", ["--mode", "fb", "--rho", "1"], EXIT_PARSE,
         "line 1: missing header 'id,u,c,mass'"),
        ("id,u,c,mass\nA,1,1\n", ["--mode", "part", "--rho", "1"], EXIT_PARSE,
         "line 2: expected 4 comma-separated values, got 3"),
        ("id,u,c,mass\nA,x,1,1\n", ["--mode", "ic", "--rho", "1"], EXIT_PARSE,
         "line 2: could not convert string to float: 'x'"),
        (EX1, ["--mode", "sweep", "--rho-grid", "1:8"], EXIT_VALIDATION,
         "--rho-grid expects start:stop:count[:log]"),
        (EX1, ["--mode", "sweep", "--rho-grid", "1:8:4:lin"], EXIT_VALIDATION,
         "the fourth grid field must be 'log'"),
        (_MECH_HEADER + _MECH_ROW, _SIMULATE, EXIT_VALIDATION,
         "mechanism table has no summary line with Q="),
        ("id,u,c,mass,nu,R,P,utility\n" + _MECH_ROW, _SIMULATE, EXIT_PARSE,
         "line 1: expected header 'id,u,c,mass,nu,R,P,utility,class'"),
        (_MECH_HEADER + "A,1,1,1,1,0.5,0.5,0\n", _SIMULATE, EXIT_PARSE,
         "line 2: expected 9 comma-separated values, got 8"),
        (_MECH_HEADER + _MECH_ROW + "Q=abc, y=1, W=1, balance_residual=0\n", _SIMULATE,
         EXIT_PARSE, "line 3: could not convert string to float: 'abc'"),
        (_MECH_HEADER + _MECH_ROW + "Q=, y=1\n", _SIMULATE, EXIT_PARSE,
         "line 3: could not convert string to float: ''"),
        (_MECH_HEADER + _MECH_ROW + _MECH_SUMMARY + _MECH_SUMMARY, _SIMULATE, EXIT_PARSE,
         "line 3: expected 9 comma-separated values, got 4"),
        (_MECH_SUMMARY + _MECH_HEADER + _MECH_ROW + _MECH_SUMMARY, _SIMULATE, EXIT_PARSE,
         "line 1: expected header 'id,u,c,mass,nu,R,P,utility,class'"),
        (_MECH_HEADER + "A,x,1,1,1,0.5,0.5,0,FULL\n" + _MECH_SUMMARY, _SIMULATE, EXIT_PARSE,
         "line 2: could not convert string to float: 'x'"),
        (_MECH_HEADER + "A,1,1,1,1,abc,0.5,0,FULL\n" + _MECH_SUMMARY, _SIMULATE, EXIT_PARSE,
         "line 2: could not convert string to float: 'abc'"),
        (_MECH_HEADER + _MECH_ROW + "Q=1.5, y=1, W=0, balance_residual=0\n", _SIMULATE,
         EXIT_VALIDATION, "Q must lie in [0, 1]"),
        (_MECH_HEADER + "A,1,1,1,1,1.5,0.5,0,FULL\n" + _MECH_SUMMARY, _SIMULATE,
         EXIT_VALIDATION, "R['A'] must lie in [0, 1]"),
        (_MECH_HEADER + "A,1,1,1,1,0.5,-0.5,0,FULL\n" + _MECH_SUMMARY, _SIMULATE,
         EXIT_VALIDATION, "P['A'] must lie in [0, 1]"),
    ],
    ids=[
        "bad-header", "no-header", "three-cells", "non-numeric-u", "grid-two-fields",
        "grid-not-log", "no-Q-line", "bad-mechanism-header", "eight-columns",
        "Q-not-a-number", "Q-empty", "two-Q-lines", "Q-above-header",
        "mechanism-non-numeric-u", "mechanism-non-numeric-R", "Q-above-1", "R-above-1",
        "P-below-0",
    ],
)
def test_input_errors_exit_with_one_line(tmp_path, capsys, text, args, code, message):
    # Bad tables and grids end with an exit code and one line on stderr,
    # never a traceback, and write nothing.
    assert run_cli(tmp_path, text, args) == (code, "")
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_unreadable_input_is_parse_error(tmp_path, capsys):
    inp = tmp_path / "types.csv"
    inp.write_bytes(b"id,u,c,mass\nA\xff,1,1,1\n")
    assert main(["--mode", "fb", "--rho", "1", "--input", str(inp)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read input: ")
    assert captured.err.count("\n") == 1


def test_unwritable_output_is_parse_error(tmp_path, capsys):
    inp = tmp_path / "types.csv"
    inp.write_text(EX1, encoding="utf-8")
    out = tmp_path / "missing" / "out.csv"
    argv = ["--mode", "fb", "--rho", "1", "--input", str(inp), "--output", str(out)]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_tol_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli(tmp_path, EX1, ["--mode", "ic", "--rho", "5.5", "--tol", "1e-9"])
    assert exit_.value.code == EXIT_PARSE
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(args, **env):
    # A new interpreter with this checkout's package first on its path.
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_main_never_builds_a_parser(tmp_path, monkeypatch):
    # The parser is built once, when upkeep.cli is imported; main only
    # parses.
    def forbidden():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(upkeep.cli, "build_parser", forbidden)
    for grid in ("1:4:3", "0.5:2:4:log"):
        code, out = run_cli(tmp_path, EX2, ["--mode", "sweep", "--rho-grid", grid, "--ic"])
        assert code == EXIT_OK
        assert len(out.splitlines()) == int(grid.split(":")[2]) + 1


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # Usage errors after a successful run read as in a fresh interpreter,
    # and the run after them prints the same bytes.  COLUMNS fixes the
    # usage line's wrapping on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    inp = tmp_path / "types.csv"
    inp.write_text(EX2, encoding="utf-8")
    sweep = ["--mode", "sweep", "--ic", "--input", str(inp), "--rho-grid", "1:4:3"]
    assert main(sweep) == EXIT_OK
    first = capsys.readouterr().out
    for bad in (
        ["--input", str(inp), "--rho", "1"],
        ["--mode", "bogus", "--input", str(inp), "--rho", "1"],
        ["--mode", "ic", "--input", str(inp), "--rho", "abc"],
    ):
        with pytest.raises(SystemExit) as exit_:
            main(bad)
        assert exit_.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        fresh = _fresh(["-m", "upkeep", *bad], COLUMNS="80")
        assert (fresh.returncode, fresh.stdout) == (EXIT_PARSE, "")
        assert err == fresh.stderr and err.startswith("usage: upkeep")
    assert main(sweep) == EXIT_OK
    assert capsys.readouterr().out == first


def test_library_import_leaves_the_cli_out():
    # The CLI's parser is built at its module's import, which the
    # library import does not pay for.
    out = _fresh(["-c", "import sys, upkeep; print('upkeep.cli' in sys.modules)"])
    assert (out.returncode, out.stdout) == (0, "False\n")
