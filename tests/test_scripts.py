import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_scripts_run_to_completion():
    # the scripts call the library's re-weights directly; run each small
    for argv in (["identity_checks.py", "--budget", "6"],
                 ["growth_series.py", "--n-max", "6"],
                 ["theta_scan.py", "--points", "5"]):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, (argv, out.stderr)


def test_growth_series_worker_count():
    # a worker count below 1 is refused as the CLI refuses it
    for argv, code in ((["--workers", "2", "--n-max", "6"], 0),
                       (["--workers", "0"], 2), (["--workers", "-1"], 2)):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "growth_series.py"),
             *argv],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
            capture_output=True, text=True, timeout=120)
        assert out.returncode == code, (argv, out.stderr)
