import pytest

from upkeep import check_feasible
from upkeep.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    RhoGrid,
    RunConfig,
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


def test_run_config_validation(tmp_path):
    with pytest.raises(ValidationError):
        RunConfig(mode="nope", input="x")
    with pytest.raises(ValidationError):
        RunConfig(mode="fb", input="x", rho=-1.0)
    with pytest.raises(ValidationError):
        RunConfig(mode="sweep", input="x")
    with pytest.raises(ValidationError):
        RunConfig(mode="simulate", input="x", rho=1.0, horizon=10.0)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_rho_tol_and_grid_are_validation_errors(tmp_path, value):
    with pytest.raises(ValidationError):
        RunConfig(mode="part", input="x", rho=float(value))
    with pytest.raises(ValidationError):
        RunConfig(mode="ic", input="x", rho=1.0, tol=float(value))
    with pytest.raises(ValidationError):
        RhoGrid(1.0, float(value), 4)
    with pytest.raises(ValidationError):
        RhoGrid(float(value), 8.0, 4)
    for args in (
        ["--mode", "part", "--rho", value],
        ["--mode", "ic", "--rho", "5.5", "--tol", value],
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_horizon_is_validation_error(tmp_path, capsys, value):
    with pytest.raises(ValidationError):
        RunConfig(mode="simulate", input="x", rho=1.0, seed=1, horizon=float(value))
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
    with pytest.raises(ValidationError):
        RunConfig(mode="simulate", input="x", rho=1.0, seed=-1, horizon=100.0)
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
