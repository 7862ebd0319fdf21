"""A fixed piece of work that measures how fast the host runs right now.

The host is a shared VM whose speed drifts by up to 2x between one
repetition and the next.  Every child interpreter runs this reference
first, before it imports skewsaw, and run.py scales that child's
times by ``NOMINAL_S / its reference time``.  The reference is the same
kind of code as the program's search (recursion over a set of visited
sites, tuple keys, dict counts) and lives in the benchmark, so no change
to the program can move it.
"""

import time

NOMINAL_S = 0.45      # typical host_reference() on a 2-vCPU Intel Xeon VM
STEPS = 12
SAWS = 514_897        # site walks of up to 12 steps on the square lattice


def host_reference() -> float:
    """Seconds to count the square lattice's self-avoiding walks."""
    t0 = time.perf_counter()
    hist: dict = {}
    visited = {(0, 0)}

    def rec(x, y, depth):
        key = (depth, x)
        hist[key] = hist.get(key, 0) + 1
        if depth == STEPS:
            return
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            p = (x + dx, y + dy)
            if p in visited:
                continue
            visited.add(p)
            rec(p[0], p[1], depth + 1)
            visited.remove(p)

    rec(0, 0, 0)
    elapsed = time.perf_counter() - t0
    if sum(hist.values()) != SAWS:
        raise RuntimeError("host reference miscounted")
    return elapsed
