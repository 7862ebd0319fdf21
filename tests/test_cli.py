import json
import math

import pytest

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


def test_parallelogram_subcommand_passes(capsys):
    code, out = run_cli(capsys, "parallelogram", "--theta", "pi/3",
                        "--T", "2", "--L", "1")
    assert code == 0
    assert "residual13" in out


def test_parallelogram_fails_off_critical(capsys):
    code, _ = run_cli(capsys, "parallelogram", "--theta", "pi/2",
                      "--T", "2", "--L", "1", "--x-over-xc", "0.9")
    assert code == 1


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
        return [], [], {"command": args.command}, True

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


def test_threads_flag_matches_sequential(capsys):
    code1, out1 = run_cli(capsys, "series", "--n-max", "5")
    code2, out2 = run_cli(capsys, "--threads", "2", "series", "--n-max", "5")
    assert code1 == code2 == 0
    assert out1 == out2
