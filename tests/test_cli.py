import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import skewsaw
from skewsaw.cli import main, parse_angle, parse_rule


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_angle_forms():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("2*pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("1.5707963") == pytest.approx(1.5707963)
    with pytest.raises(Exception):
        parse_angle("tau/3")


def test_parse_rule():
    assert parse_rule("1,2,2").as_tuple() == (1, 2, 2)
    with pytest.raises(Exception):
        parse_rule("1,2")


def test_weights_subcommand_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "weights",
                        "--theta", "pi/2", "--family", "sigma",
                        "--sigma", "0.625")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["version"]
    row = payload["rows"][0]
    assert row["inv_u1"] == pytest.approx(2.4486341829921927)
    assert row["max_local_residual"] < 1e-12


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("argv,code,nulls", [
    (("weights", "--family", "sigma-one", "--u1", "0"), 0, 1),
    (("strip", "--T", "1", "--L", "2", "--x-over-xc", "1e200"), 1, 8),
], ids=["weights", "strip"])
def test_json_output_writes_nonfinite_values_as_null(capsys, argv, code, nulls):
    got, out = run_cli(capsys, "--format", "json", *argv)
    assert got == code
    json.loads(out, parse_constant=_refuse_constant)
    assert out.count(": null") == nulls
    # CSV keeps its inf and nan
    _, csv_out = run_cli(capsys, *argv)
    assert "inf" in csv_out


@pytest.mark.parametrize("family", ["critical", "sigma", "sigma-one", "on"])
def test_weights_prints_the_positivity_margins(capsys, family):
    code, out = run_cli(capsys, "--format", "json", "weights",
                        "--theta", "1.2", "--family", family)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["margin_u1sq_w1"] == row["u1"] ** 2 - row["w1"]
    assert row["margin_u2sq_w2"] == row["u2"] ** 2 - row["w2"]


def test_weights_margins_leave_the_exit_code_alone(capsys):
    # at pi/4 the sigma = 5/8 family has u1^2 < w1: criterion 4's window
    code, out = run_cli(capsys, "--format", "json", "weights", "--theta",
                        "pi/4", "--family", "sigma", "--sigma", "0.625")
    assert code == 0
    row = json.loads(out)["rows"][0]
    margins = (row["margin_u1sq_w1"], row["margin_u2sq_w2"])
    assert sum(m < 0 for m in margins) == 1


def _help_lines(capsys, name):
    with pytest.raises(SystemExit):
        main([name, "--help"])
    return capsys.readouterr().out.splitlines()


def test_weights_help_lists_the_margins(capsys):
    assert _help_lines(capsys, "weights")[-1].endswith(
        ",max_local_residual,margin_u1sq_w1,margin_u2sq_w2")


def test_help_ends_with_the_csv_header_unwrapped(capsys, monkeypatch):
    from skewsaw.cli import COLUMNS

    # narrower than every header: argparse would wrap a formatted epilog
    monkeypatch.setenv("COLUMNS", "60")
    for name, columns in COLUMNS.items():
        assert (_help_lines(capsys, name)[-1]
                == "CSV columns: " + ",".join(columns)), name


def test_parallelogram_subcommand_passes(capsys):
    code, out = run_cli(capsys, "parallelogram", "--theta", "pi/3",
                        "--T", "2", "--L", "1")
    assert code == 0
    assert "residual13" in out


def test_parallelogram_fails_off_critical(capsys):
    code, _ = run_cli(capsys, "parallelogram", "--theta", "pi/2",
                      "--T", "2", "--L", "1", "--x-over-xc", "0.9")
    assert code == 1


def test_zero_tolerance_asks_for_an_exact_zero(capsys):
    # the 1 x 0 identity at pi/2 comes out exactly 1; the weights' local
    # residuals are of the order of 1e-16
    code, out = run_cli(capsys, "--tol", "0", "parallelogram", "--theta",
                        "pi/2", "--T", "1", "--L", "0")
    assert code == 0
    assert out.splitlines()[1].endswith(",0.0")
    code, _ = run_cli(capsys, "--tol", "0", "weights")
    assert code == 1


@pytest.mark.parametrize("theta", ["0", "-2", "pi", "1e308"])
@pytest.mark.parametrize("family", ["critical", "sigma", "sigma-one", "on",
                                    "solve-system"])
def test_weights_theta_outside_zero_pi_is_named(capsys, family, theta):
    # solve-system refuses through the check every weights family makes
    command = (["solve-system"] if family == "solve-system"
               else ["weights", "--family", family])
    with pytest.raises(SystemExit) as exc:
        main([*command, "--theta", theta])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--theta" in captured.err


def test_config_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--theta", "pi/4"])  # out of range
    assert exc.value.code == 2
    capsys.readouterr()


def test_series_trivial_row(capsys):
    code, out = run_cli(capsys, "series", "--theta", "1.5707963",
                        "--n-max", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + c_0 row
    assert lines[1].startswith("0,1.0")


def test_byte_identical_output(capsys):
    args = ("verify-cr", "--theta", "pi/2", "--T", "2", "--L", "1")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    # with a stamp the header line differs in intent (still one row)
    code, out3 = run_cli(capsys, "--stamp", *args)
    assert code == 0
    assert out3.startswith("# generated")


def test_enumerate_dump_roundtrip(capsys):
    from skewsaw.walks import walk_from_dump

    code, out = run_cli(capsys, "enumerate", "--n-max", "2")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert lines
    import csv as _csv
    import io as _io

    for row in _csv.reader(_io.StringIO("\n".join(lines))):
        walk = walk_from_dump(row[0])
        assert walk.length() <= 2


@pytest.mark.parametrize("orient", ["H", "V"])
def test_enumerate_refuses_an_orientation_in_a_domain(capsys, orient):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--T", "1", "--L", "0", "--orient", orient])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --orient sets the free-lattice start; "
                            "domain walks start at the origin V(0, 0)\n")

    def starts(*argv):
        _, out = run_cli(capsys, "--format", "json", "enumerate", *argv)
        return {row["walk"].split(";")[0] for row in json.loads(out)["rows"]}

    # without --orient a domain dump starts at the origin, and a free one
    # at H(0, 0) unless told otherwise
    assert starts("--T", "1", "--L", "0") == {"0,0,V"}
    assert starts("--n-max", "1", "--orient", orient) == {f"0,0,{orient}"}
    assert starts("--n-max", "1") == {"0,0,H"}


def test_yangbaxter_subcommand(capsys):
    code, out = run_cli(capsys, "yangbaxter", "--alpha", "0.8", "--s", "0.5")
    assert code == 0
    assert "max_residual" in out


def test_solve_system_subcommand(capsys):
    code, out = run_cli(capsys, "--format", "json", "solve-system",
                        "--theta", "pi/2")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_sigma = {round(r["sigma"], 6): r for r in rows}
    assert by_sigma[round(5 / 8, 6)]["rank"] == 5
    assert by_sigma[1.0]["rank_deficiency"] == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "--output", str(target), "weights")
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("theta,")


@pytest.mark.parametrize("where", ["missing/rows.csv", "."])
def test_unwritable_output_is_a_config_error_before_the_run(
        tmp_path, monkeypatch, capsys, where):
    import skewsaw.cli as cli

    ran = []
    monkeypatch.setattr(cli, "cmd_series", lambda args: ran.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["--output", str(tmp_path / where), "series", "--n-max", "2"])
    assert exc.value.code == 2
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_honeycomb_subcommand(capsys):
    code, out = run_cli(capsys, "honeycomb", "--n-max", "4")
    assert code == 0
    assert out.splitlines()[0] == "n,weighted_sum,oracle_count,expected_sum"


@pytest.mark.parametrize("argv,tol", [
    (["honeycomb"], 1e-12),
    (["--tol", "1e-10", "honeycomb"], 1e-10),
    (["--tol", "1e-10", "weights"], 1e-10),
    (["weights"], 1e-10),
])
def test_tol_default_per_subcommand_and_explicit_value_kept(monkeypatch,
                                                           argv, tol):
    import skewsaw.cli as cli

    seen = []

    def record(args):
        seen.append(args.tol)
        return [], {}, True

    monkeypatch.setattr(cli, "cmd_honeycomb", record)
    monkeypatch.setattr(cli, "cmd_weights", record)
    assert main(argv) == 0
    assert seen == [tol]


def test_strip_subcommand(capsys):
    code, out = run_cli(capsys, "--format", "json", "strip",
                        "--T", "2", "--L", "3")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert all(m > 0 for m in meta["floor_margins"])


def test_strip_exit_code_ignores_the_finite_width_floor(capsys):
    # B_{T,L} - min(B_{1,L}, c)/T is a strip-limit bound: at L = 0 (and
    # L = 1 for T = 5..8) it goes negative on correct code
    negative_floor = 0
    for theta in ("pi/3", "pi/2", "2pi/3"):
        for T in range(1, 25):
            for L in range(0, 12):
                if (2 * L + 1) * T > 24:
                    continue
                code, out = run_cli(capsys, "--format", "json", "strip",
                                    "--theta", theta, "--T", str(T),
                                    "--L", str(L))
                assert code == 0, (theta, T, L)
                meta = json.loads(out)["meta"]
                negative_floor += min(meta["floor_margins"]) < -1e-12
    assert negative_floor == 81


def test_strip_fails_on_a_negative_growth_margin(capsys, monkeypatch):
    import skewsaw.cli as cli

    real = cli.strip_limits

    def worse(*args):
        rep = real(*args)
        return dataclasses.replace(
            rep, growth_margins=(-1.0,) + tuple(rep.growth_margins[1:]))

    monkeypatch.setattr(cli, "strip_limits", worse)
    code, _ = run_cli(capsys, "strip", "--T", "2", "--L", "3")
    assert code == 1


def test_threads_flag_matches_sequential(capsys):
    code1, out1 = run_cli(capsys, "series", "--n-max", "5")
    code2, out2 = run_cli(capsys, "--threads", "2", "series", "--n-max", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    # byte for byte: the float sums run over one key order; every rule,
    # the unit rule included, runs the pool on two workers
    for argv in (["honeycomb", "--n-max", "10"], ["series", "--n-max", "9"],
                 ["series", "--rule", "1,2,1", "--n-max", "9"]):
        code1, out1 = run_cli(capsys, "--threads", "1", *argv)
        code2, out2 = run_cli(capsys, "--threads", "2", *argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv


def test_parallel_budget_is_refused_before_the_pool(monkeypatch, capsys):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "honeycomb", "--n-max", "41"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the cap 40" in captured.err


@pytest.mark.parametrize("value", ["-1", "x"])
@pytest.mark.parametrize("command", ["series", "honeycomb", "enumerate"])
def test_a_negative_length_budget_names_its_flag(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n-max", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --n-max: expected an integer >= 0, got {value!r}"
            in captured.err)


def test_solve_system_runs_with_numpy_blocked():
    # a None entry in sys.modules makes every import of numpy fail
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewsaw.__file__)))
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from skewsaw.cli import main\n"
              "code = main(['solve-system'])\n"
              "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
              "assert loaded == ['numpy'] and sys.modules['numpy'] is None\n"
              "raise SystemExit(code)\n")
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.startswith("sigma,theta,residual,rank")
    assert len(rows) == 16


def test_parallelogram_budget_above_the_domain_budget_fails_fast():
    # refused before the (T, L) scan, which would list 10^12 pairs first
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewsaw.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "skewsaw", "parallelogram",
         "--budget", "1000000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=10)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == ("error: --budget must be between 1 and the domain "
                          "budget 24, got 1000000\n")


@pytest.mark.parametrize("argv", [
    ["yangbaxter"],
    ["enumerate", "--n-max", "4"],
    ["verify-cr"],
    ["--threads", "2", "honeycomb", "--n-max", "10"],
], ids=["yangbaxter", "enumerate", "verify-cr", "honeycomb-pool"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # `python -m skewsaw` in fresh interpreters under two hash seeds: an
    # order that followed str hashes would show in the bytes written
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewsaw.__file__)))
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "skewsaw", *argv],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["--threads", "0"],
    ["--threads", "-3"],
    ["--threads", "abc"],
], ids=["zero", "negative", "not-a-number"])
def test_bad_worker_count_is_a_config_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "weights"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["parallelogram", "--T", "0"],
    ["enumerate", "--T", "0"],
    ["parallelogram", "--budget", "0"],
    ["parallelogram", "--budget", "-3"],
    ["parallelogram", "--budget", "25"],
    ["verify-local", "--grid", "0"],
    ["verify-local", "--grid", "-3"],
    ["parallelogram", "--x-over-xc", "nan"],
    ["parallelogram", "--x-over-xc", "inf"],
    ["parallelogram", "--x-over-xc", "-1"],
    ["strip", "--x-over-xc", "nan"],
    ["verify-cr", "--sigma", "nan"],
    ["verify-cr", "--sigma", "-inf"],
    ["weights", "--family", "sigma", "--sigma", "inf"],
    ["verify-local", "--sigma", "nan"],
    ["weights", "--family", "sigma-one", "--u1", "nan"],
    ["yangbaxter", "--alpha", "0.8", "--s", "nan"],
    ["yangbaxter", "--alpha", "0", "--s", "0.5"],
    ["--tol", "nan", "weights"],
    ["--tol", "-1", "weights"],
    ["weights", "--theta", "2pi/0"],
    ["weights", "--family", "sigma", "--theta", "nan"],
    ["weights", "--family", "on", "--theta", "1e308"],
    ["weights", "--family", "sigma", "--theta", "1e308"],
    ["weights", "--family", "sigma-one", "--theta", "1e308"],
    ["solve-system", "--theta", "inf"],
    ["yangbaxter", "--alpha", "nan"],
], ids=" ".join)
def test_input_that_checks_nothing_is_a_config_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    "solve-system --sigma 1e308 --theta 2",
    "verify-cr --sigma 1e308",
    "weights --family on --s 1e308",
    "yangbaxter --s 1e308",
    "weights --family sigma --sigma 1e308",
    "verify-local --sigma 1e308 --grid 2",
    "weights --family sigma-one --u1 1e308",
])
def test_finite_input_that_overflows_is_named(capsys, argv):
    # finite, so it passes the parser, but too large for the float arithmetic
    argv = argv.split()
    flag = argv[argv.index("1e308") - 1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{flag} 1e+308" in captured.err


def test_oversized_verify_local_grid_is_refused_up_front(capsys, monkeypatch):
    import time

    import skewsaw.cli as cli

    grids = []

    def record(n):
        grids.append(n)
        return []

    monkeypatch.setattr(cli, "theta_grid", record)
    start = time.perf_counter()
    for n in (1_000_000_000, cli.VERIFY_LOCAL_GRID_MAX + 1):
        with pytest.raises(SystemExit) as exc:
            main(["verify-local", "--grid", str(n)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--grid" in captured.err
    assert time.perf_counter() - start < 5
    assert grids == []
    # the cap itself is accepted
    assert main(["verify-local", "--grid", str(cli.VERIFY_LOCAL_GRID_MAX)]) == 0
    assert grids == [cli.VERIFY_LOCAL_GRID_MAX]


def test_yangbaxter_at_a_vanishing_weight_is_a_config_error(capsys):
    # s = 0 makes the loop weights divide by sin(pi*s/3)
    with pytest.raises(SystemExit) as exc:
        main(["yangbaxter", "--s", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:")
    assert "sin(pi*s/3) vanishes" in captured.err


@pytest.mark.parametrize("argv", [
    ["parallelogram", "--T", "5", "--L", "2"],
    ["verify-cr", "--T", "25", "--L", "0"],
    ["strip", "--T", "1", "--L", "12"],
], ids=" ".join)
def test_domain_over_the_rhombus_budget_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: domain of 25 rhombi exceeds the "
                            "enumeration budget of 24\n")

def test_zero_fugacity_is_accepted(capsys):
    code, out = run_cli(capsys, "parallelogram", "--T", "2", "--L", "1",
                        "--x-over-xc", "0")
    assert code == 1  # the identity holds at x_c only
    assert out.splitlines()[1].startswith("2,1,")


def test_parser_is_built_once_and_reads_the_worker_count_per_call(monkeypatch):
    import skewsaw.cli as cli

    seen = []

    def record(args):
        seen.append(args.threads)
        return [], {}, True

    monkeypatch.setattr(cli, "cmd_weights", record)
    for threads in ("2", "3", "4"):
        assert main(["--threads", threads, "weights"]) == 0
    assert main(["weights"]) == 0
    assert seen == [2, 3, 4, 1]
    assert cli._parser() is cli._parser()
