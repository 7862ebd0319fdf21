"""Command-line interface.

Every subcommand computes a table, optionally writes it as CSV or JSON,
and exits 0 on success, 1 when a verification tolerance is violated and
2 on configuration errors (argparse's own convention).  Output is
deterministic for a fixed configuration; ``--stamp`` prepends a
timestamp header and is off by default.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time

from . import __version__
from .geometry import ParallelogramDomain, MidEdge
from .loops import yang_baxter_residual
from .observable import (
    bridge_chain_check,
    max_cr_residual,
    observable,
    strip_limits,
    strip_sums,
)
from .series import honeycomb_crosscheck, series_report
from .walks import (
    LengthRule,
    UNIT_RULE,
    enumerate_walks,
    walk_to_dump,
    weight_of,
)
from .weights import (
    critical_weights,
    local_residuals,
    on_weights,
    sigma_one_family,
    sigma_weights,
    solve_local_system,
    theta_grid,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2

_PI_FORM = re.compile(r"^(\d*)\s*pi\s*(?:/\s*(\d+))?$")


def parse_angle(text: str) -> float:
    """Angles in radians, or 'pi', '2pi/3', 'pi/3' style literals."""
    s = text.strip().lower().replace("*", "")
    m = _PI_FORM.match(s)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")


def parse_rule(text: str) -> LengthRule:
    try:
        a, b, c = (int(x) for x in text.split(","))
        return LengthRule(a, b, c)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"rule must be three comma-separated positive integers, got {text!r}"
        )


def _default_workers() -> int:
    return int(os.environ.get("SKEWSAW_WORKERS", "1"))


def write_rows(rows: list[dict], columns: list[str], args, meta: dict) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        if args.stamp:
            buf.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in columns})
        text = buf.getvalue()
    else:
        echo = {k: v for k, v in sorted(vars(args).items())
                if k not in ("fn", "output") and v is not None}
        echo["rule"] = getattr(args, "rule", None) and args.rule.as_tuple()
        if echo["rule"] is None:
            del echo["rule"]
        payload = {"meta": {**meta, "config": echo,
                            "version": __version__}, "rows": rows}
        if args.stamp:
            payload["meta"]["generated"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        text = json.dumps(payload, indent=2, default=float) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (rows, columns, meta, ok), its columns taken
# from this table, which also writes the --help epilogs.

COLUMNS = {
    "weights": ("theta", "family", "sigma", "u1", "u2", "v", "w1", "w2",
                "inv_u1", "max_local_residual"),
    "verify-local": ("theta", "sigma", "max_residual"),
    "solve-system": ("sigma", "theta", "residual", "rank", "rank_deficiency",
                     "match_formula"),
    "verify-cr": ("T", "L", "theta", "sigma", "max_cr_residual"),
    "parallelogram": ("T", "L", "theta", "x", "A", "B", "D", "E",
                      "residual13"),
    "strip": ("T", "L", "theta", "x", "A", "B", "E_plus_D", "growth_margin"),
    "series": ("n", "c_tilde", "root_estimate", "ratio_estimate",
               "lower_bracket", "upper_bracket", "target"),
    "honeycomb": ("n", "weighted_sum", "oracle_count", "expected_sum"),
    "yangbaxter": ("alpha", "s", "n", "patterns", "max_residual"),
    "enumerate": ("walk", "weight", "length"),
}


def cmd_weights(args):
    th = args.theta
    rows = []
    if args.family == "sigma":
        w = sigma_weights(th, args.sigma)
        sigma = args.sigma
    elif args.family == "sigma-one":
        w = sigma_one_family(args.u1, th)
        sigma = 1.0
    elif args.family == "on":
        w, n = on_weights(th, args.s)
        sigma = args.s + 1.0
    else:
        w = critical_weights(th)
        sigma = 5.0 / 8.0
    res = local_residuals(w, sigma, th)
    row = {
        "theta": th, "family": args.family, "sigma": sigma,
        "u1": w.u1, "u2": w.u2, "v": w.v, "w1": w.w1, "w2": w.w2,
        "inv_u1": 1.0 / w.u1 if w.u1 else math.inf,
        "max_local_residual": res.max_abs(),
    }
    rows.append(row)
    ok = res.max_abs() < args.tol
    return rows, COLUMNS["weights"], {"command": "weights", "theta": th}, ok


def cmd_verify_local(args):
    rows = []
    ok = True
    sigmas = [args.sigma] if args.sigma is not None else [3 / 8, 5 / 8, 7 / 8]
    for th in theta_grid(args.grid):
        for sg in sigmas:
            w = sigma_weights(th, sg)
            r = local_residuals(w, sg, th).max_abs()
            ok = ok and r < args.tol
            rows.append({"theta": th, "sigma": sg, "max_residual": r})
    meta = {"command": "verify-local", "grid": args.grid}
    return rows, COLUMNS["verify-local"], meta, ok


def cmd_solve_system(args):
    rows = []
    ok = True
    sigmas = ([args.sigma] if args.sigma is not None
              else [k / 8 for k in range(1, 17)])
    for sg in sigmas:
        sol = solve_local_system(sg, args.theta)
        solvable = abs(math.cos(4 * math.pi * sg)) < 1e-9
        row = {
            "sigma": sg, "theta": args.theta, "residual": sol.residual,
            "rank": sol.rank, "rank_deficiency": sol.rank_deficiency,
            "match_formula": "",
        }
        if solvable and sol.weights is not None:
            ref = sigma_weights(args.theta, sg)
            err = max(abs(a - b) for a, b in
                      zip(sol.weights.as_tuple(), ref.as_tuple()))
            row["match_formula"] = err
            ok = ok and err < 1e-9
        elif solvable:
            ok = False
        rows.append(row)
    meta = {"command": "solve-system", "theta": args.theta}
    return rows, COLUMNS["solve-system"], meta, ok


def cmd_verify_cr(args):
    domain = ParallelogramDomain(args.T, args.L, args.theta)
    table = observable(domain, args.sigma)
    worst = max_cr_residual(table)
    rows = [{"T": args.T, "L": args.L, "theta": args.theta,
             "sigma": args.sigma, "max_cr_residual": worst}]
    ok = worst < args.tol
    return rows, COLUMNS["verify-cr"], {"command": "verify-cr"}, ok


def cmd_parallelogram(args):
    rows = []
    ok = True
    xc = critical_weights(args.theta).x_c
    pairs = [(args.T, args.L)] if args.T else [
        (T, L) for T in range(1, args.budget + 1)
        for L in range(0, args.budget)
        if (2 * L + 1) * T <= args.budget
    ]
    for T, L in pairs:
        x = args.x_over_xc * xc
        s = strip_sums(T, L, x, args.theta)
        ok = ok and s.residual < args.tol
        rows.append({"T": T, "L": L, "theta": args.theta, "x": x,
                     "A": s.A, "B": s.B, "D": s.D, "E": s.E,
                     "residual13": s.residual})
    return rows, COLUMNS["parallelogram"], {"command": "parallelogram"}, ok


def cmd_strip(args):
    th = args.theta
    xc = critical_weights(th).x_c
    rep = strip_limits(args.T, args.x_over_xc * xc, th, args.L)
    chain = bridge_chain_check(th, args.T, args.L)
    rows = []
    for idx, L in enumerate(rep.L_values):
        rows.append({
            "T": args.T, "L": L, "theta": th, "x": rep.x,
            "A": rep.A[idx], "B": rep.B[idx], "E_plus_D": rep.ED[idx],
            "growth_margin": rep.growth_margins[idx]
            if idx < len(rep.growth_margins) else "",
        })
    ok = all(m >= -1e-12 for m in rep.growth_margins)
    ok = ok and all(x >= -1e-12 for x in chain.floor_margins)
    ok = ok and all(x >= -1e-12 for x in chain.subcritical_margins)
    meta = {"command": "strip", "bridge_floor": chain.chain_floor,
            "floor_margins": list(chain.floor_margins),
            "recursion_margins": list(chain.recursion_margins),
            "subcritical_margins": list(chain.subcritical_margins)}
    return rows, COLUMNS["strip"], meta, ok


def cmd_series(args):
    rep = series_report(args.theta, args.rule, args.n_max,
                        workers=args.threads)
    rows = list(rep.rows())
    ok = True
    for n in range(1, args.n_max + 1):
        if rep.root_estimates[n - 1] < rep.lower_brackets[n - 1] - 1e-9:
            ok = False
        if rep.upper_bracket is not None and \
                rep.root_estimates[n - 1] > rep.upper_bracket + 1e-9:
            ok = False
    meta = {"command": "series", "target": rep.target}
    return rows, COLUMNS["series"], meta, ok


def cmd_honeycomb(args):
    rep = honeycomb_crosscheck(args.n_max, workers=args.threads)
    rows = list(rep.rows())
    ok = rep.max_relative_error() < args.tol and rep.images_valid
    meta = {"command": "honeycomb", "max_relative_error":
            rep.max_relative_error(), "images_valid": rep.images_valid}
    return rows, COLUMNS["honeycomb"], meta, ok


def cmd_yangbaxter(args):
    rows = []
    ok = True
    alphas = ([args.alpha] if args.alpha else
              [0.5, 0.65, 0.8, 0.95, 1.1])
    svals = [args.s] if args.s is not None else [-3 / 8, 0.5, 0.75]
    for alpha in alphas:
        for s in svals:
            rep = yang_baxter_residual(alpha, s)
            ok = ok and rep.max_residual < args.tol
            rows.append({"alpha": alpha, "s": s, "n": rep.n,
                         "patterns": rep.pattern_count,
                         "max_residual": rep.max_residual})
    return rows, COLUMNS["yangbaxter"], {"command": "yangbaxter"}, ok


def cmd_enumerate(args):
    rows = []
    start = MidEdge(0, 0, args.orient)
    domain = None
    if args.T:
        domain = ParallelogramDomain(args.T, args.L, args.theta)
        start = domain.origin
    w = critical_weights(args.theta)

    def visit(walk):
        rows.append({
            "walk": walk_to_dump(walk),
            "weight": weight_of(walk, w),
            "length": walk.length(args.rule),
        })

    enumerate_walks(start, args.n_max, args.rule, domain, visit)
    meta = {"command": "enumerate", "walks": len(rows)}
    return rows, COLUMNS["enumerate"], meta, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skewsaw",
        description="weighted self-avoiding walks on the skewed square "
                    "lattice: enumeration and identity checks",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (CSV columns are fixed per "
                             "subcommand; JSON mirrors them under 'rows')")
    parser.add_argument("--output", help="write to this path instead of stdout")
    parser.add_argument("--stamp", action="store_true",
                        help="add a timestamp header (off keeps output "
                             "byte-identical across runs)")
    parser.add_argument("--threads", type=int, default=_default_workers(),
                        help="worker count for prefix-parallel enumeration "
                             "(default from SKEWSAW_WORKERS)")
    parser.add_argument("--tol", type=float,
                        help="verification tolerance (default 1e-12 for "
                             "honeycomb, 1e-10 otherwise)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(
            name, epilog="CSV columns: " + ",".join(COLUMNS[name]), **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("weights", cmd_weights, help="print a weight family and its residuals")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--family", choices=("critical", "sigma", "sigma-one", "on"),
                   default="critical")
    p.add_argument("--sigma", type=float, default=5 / 8)
    p.add_argument("--u1", type=float, default=0.5)
    p.add_argument("--s", type=float, default=-3 / 8)

    p = add("verify-local", cmd_verify_local,
            help="local-relation residuals over a theta grid")
    p.add_argument("--grid", type=int, default=13)
    p.add_argument("--sigma", type=float)

    p = add("solve-system", cmd_solve_system,
            help="least-squares solve of the local relations")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--sigma", type=float)

    p = add("verify-cr", cmd_verify_cr,
            help="contour residuals of the observable on a domain")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--T", type=int, default=3)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--sigma", type=float, default=5 / 8)

    p = add("parallelogram", cmd_parallelogram,
            help="boundary identity residuals over (T, L)")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--T", type=int)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--budget", type=int, default=12,
                   help="max rhombus count when scanning all (T, L)")
    p.add_argument("--x-over-xc", type=float, default=1.0)

    p = add("strip", cmd_strip, help="strip sums, tail bounds and bridge chain")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--T", type=int, default=2)
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--x-over-xc", type=float, default=1.0)

    p = add("series", cmd_series, help="growth-constant series report")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--rule", type=parse_rule, default=UNIT_RULE)

    p = add("honeycomb", cmd_honeycomb,
            help="pi/3 cross-check against the hexagonal-lattice oracle")
    p.add_argument("--n-max", type=int, default=8)

    p = add("yangbaxter", cmd_yangbaxter, help="hexagon flip residuals")
    p.add_argument("--alpha", type=parse_angle)
    p.add_argument("--s", type=float)

    p = add("enumerate", cmd_enumerate, help="dump walks with weight and length")
    p.add_argument("--theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--rule", type=parse_rule, default=UNIT_RULE)
    p.add_argument("--orient", choices=("H", "V"), default="H")
    p.add_argument("--T", type=int)
    p.add_argument("--L", type=int, default=0)

    args = parser.parse_args(argv)
    if args.tol is None:
        args.tol = 1e-12 if args.command == "honeycomb" else 1e-10
    try:
        rows, cols, meta, ok = args.fn(args)
    except (ValueError, OverflowError) as exc:
        parser.exit(EXIT_CONFIG, f"error: {exc}\n")
    write_rows(rows, cols, args, meta)
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    raise SystemExit(main())
