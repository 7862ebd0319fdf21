"""Golden exact histograms: walk total, key count and a digest per histogram.

The digest is sha256 of ``repr(sorted(h.items()))``, so any change to a
count, a key or the key format shows.  Loop-patch keys carry the end
mid-edge as ``(i, j, orient)`` to keep the digest independent of the
MidEdge repr.
"""

import hashlib

import pytest

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


@pytest.mark.parametrize("T,L", [(2, 2), (4, 2), (1, 5), (3, 3)])
def test_domain_histogram_keys_are_sorted(T, L):
    keys = list(domain_walk_aggregate(T, L))
    assert keys == sorted(keys)
