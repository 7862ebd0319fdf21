#!/usr/bin/env python3
"""Exact growth-constant series at one angle.

Prints c_n, the n-th-root and ratio estimators and the analytic target
1/u1.  The estimates drift toward the target but do not reach it at
desk-scale n; that is expected and is the honest picture.

    python scripts/growth_series.py --theta 1.5707963 --n-max 12
    python scripts/growth_series.py --theta 1.0471976 --rule 1,2,2
"""

import argparse

from skewsaw.cli import parse_angle, parse_rule, parse_workers
from skewsaw.series import series_report
from skewsaw.walks import UNIT_RULE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theta", type=parse_angle, default=1.5707963267948966)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--rule", type=parse_rule, default=UNIT_RULE)
    ap.add_argument("--workers", type=parse_workers, default=1)
    args = ap.parse_args()

    rep = series_report(args.theta, args.rule, args.n_max,
                        workers=args.workers)
    print(f"theta = {rep.theta:.6f}  rule = {rep.rule.as_tuple()}  "
          f"target 1/u1 = {rep.target:.6f}")
    print(f"{'n':>3} {'c_n':>16} {'root':>10} {'ratio':>10}")
    for n in range(rep.n_max + 1):
        root = f"{rep.root_estimates[n - 1]:.6f}" if n >= 1 else ""
        ratio = (f"{rep.ratio_estimates[n - 1]:.6f}"
                 if 1 <= n <= len(rep.ratio_estimates) else "")
        print(f"{n:>3} {rep.c_tilde[n]:>16.6f} {root:>10} {ratio:>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
