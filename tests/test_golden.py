"""Golden exact histograms: walk total, key count and a digest per histogram.

The digest is sha256 of ``repr(sorted(h.items()))``, so any change to a
count, a key or the key format shows.  Loop-patch keys carry the end
mid-edge as ``(i, j, orient)`` to keep the digest independent of the
MidEdge repr.  The order of ``enumerate`` output is pinned by its walk
column alone, which no float arithmetic touches.
"""

import csv
import hashlib
import io

import pytest

from skewsaw.cli import main
from skewsaw.honeycomb import count_midedge_saws
from skewsaw.loops import _patch_aggregate
from skewsaw.observable import domain_walk_aggregate
from skewsaw.walks import HONEYCOMB_RULE, UNIT_RULE, free_walk_aggregate


def _digest(hist: dict) -> str:
    return hashlib.sha256(repr(sorted(hist.items())).encode()).hexdigest()


def _patch_hist(theta, cols, rows, j0) -> dict:
    counts, _ = _patch_aggregate(theta, cols, rows, j0)
    out: dict = {}
    for (z, wind, profile, nloops), n in counts.items():
        key = ((z.i, z.j, z.orient), wind, profile, nloops)
        out[key] = out.get(key, 0) + n
    return out


GOLDEN = [
    ("free_unit_H_10", lambda: free_walk_aggregate(10, UNIT_RULE, "H"),
     122_921, 431,
     "f82ad6f3a39d9556d15b5baaa11c35c489be973c10f2b9d2910617f578451348"),
    ("free_unit_V_11", lambda: free_walk_aggregate(11, UNIT_RULE, "V"),
     340_791, 604,
     "7d675772403541dceeafdc50d3babfd77033907a813681b6b6e97f85194a1edc"),
    ("free_honeycomb_V_12", lambda: free_walk_aggregate(12, HONEYCOMB_RULE, "V"),
     8_713, 187,
     "0effc417d4e72c3f8cef4fb935297b0aff5e3ad9bf704385146e91a0a959004b"),
    ("domain_2x2", lambda: domain_walk_aggregate(2, 2),
     303, 267,
     "2348340678d672d02be4fe661eac0f7bbc8bc54eebe40cbc56de9eebdb1706d5"),
    ("domain_4x1", lambda: domain_walk_aggregate(4, 1),
     1_709, 1_072,
     "2f9e5f12a8136288d8b5973e0747ade80f1c72006966acfc9438239e38ba5600"),
    ("domain_1x3", lambda: domain_walk_aggregate(1, 3),
     22, 22,
     "b9431571362a53c5ff3b53545239aaa9b5f3b12a6521613f3aa119ebd40b47de"),
    ("domain_4x2", lambda: domain_walk_aggregate(4, 2),
     167_141, 34_754,
     "e87b95037815f27c562a6d489b7698be2e6ad68c562457e3cb96a989448cc944"),
    # the largest shape DOMAIN_RHOMBUS_BUDGET allows; 38 % of its walks end
    # on the boundary, where the search stops
    ("domain_8x1", lambda: domain_walk_aggregate(8, 1),
     559_489, 48_027,
     "04de8ae96d0cdf7112b768931956250eb2535789584006fc11ddc6dd9922f57b"),
    ("patch_2x2_theta_1.2", lambda: _patch_hist(1.2, 2, 2, 0),
     25, 24,
     "31c26100d056721633734d26181c7cfcf934703fd7a82369e2fab8afa4b97594"),
    ("patch_2x3_theta_1.2", lambda: _patch_hist(1.2, 2, 3, 0),
     86, 81,
     "142f99684a7052b6955a275e9dfff90d29bebb11953fa5e2e427ab3a9df452d8"),
    ("patch_3x2_theta_1.2", lambda: _patch_hist(1.2, 3, 2, 0),
     72, 62,
     "31b662667a84e1883cf1be4b29d28c03d121049eb520c8d71bb614195cd9a120"),
]


@pytest.mark.parametrize("name,build,total,keys,sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_histogram(name, build, total, keys, sha):
    hist = build()
    assert (sum(hist.values()), len(hist), _digest(hist)) == (total, keys, sha)


# count_midedge_saws(19) at the defaults (start class 1, no class-0 ends),
# recorded with the naive edge-set search; sum 754,825
HONEYCOMB_19 = [1, 2, 6, 10, 22, 42, 82, 160, 310, 596, 1134, 2166, 4126,
                7846, 14812, 28052, 52978, 100006, 188114, 354360]


def test_golden_honeycomb_oracle_counts():
    assert count_midedge_saws(19) == HONEYCOMB_19
    assert sum(HONEYCOMB_19) == 754_825


# count_midedge_saws(22) at the defaults, recorded from the oracle that
# searched both first steps from one endpoint; past the naive reference's
# n = 16, so it pins the mirrored end tables where nothing else reaches
HONEYCOMB_22 = HONEYCOMB_19 + [665984, 1251894, 2348256]


def test_golden_honeycomb_oracle_counts_to_22():
    assert count_midedge_saws(22) == HONEYCOMB_22
    assert sum(HONEYCOMB_22) == 5_020_959


@pytest.mark.parametrize("T,L", [(2, 2), (4, 2), (1, 5), (3, 3)])
def test_domain_histogram_keys_are_sorted(T, L):
    keys = list(domain_walk_aggregate(T, L))
    assert keys == sorted(keys)


# (enumerate arguments, rows, sha256 of the walk column joined by "\n")
ENUMERATE_ORDER = [
    ("--n-max 5", 691,
     "596ecbf6ff178429928140aa0571186e6bb1b2f2bf8c6da644a1fb6019de3138"),
    ("--T 2 --L 1 --n-max 6", 57,
     "c9442b3ae48a49da09aa6acc2475ca1e81a80d24229c2070432796bb5cbf8b01"),
    ("--rule 1,2,2 --n-max 6", 165,
     "ed5f9177eb49f778732aa0d36173689d59016fc5f671d15cd38a44c62676349a"),
]


@pytest.mark.parametrize("args,rows,sha", ENUMERATE_ORDER,
                         ids=[e[0] for e in ENUMERATE_ORDER])
def test_golden_enumerate_order(capsys, args, rows, sha):
    assert main(["enumerate", *args.split()]) == 0
    out = capsys.readouterr().out
    walks = [r["walk"] for r in csv.DictReader(io.StringIO(out))]
    assert len(walks) == rows
    assert hashlib.sha256("\n".join(walks).encode()).hexdigest() == sha
