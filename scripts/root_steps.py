#!/usr/bin/env python3
"""Count the root finder's calls and the level solve's evaluations per level.

For each catalog entry and bound level n = 1..4 this solves the SWKB level
(solve_level), and for one entry of each contour mapping (eckart: exp,
scarf1: exp_i) one contour level (quantize_by_contours, n = 1), then the
same level on the QHJ pole sum alone (quantize_by_poles, on the same spec).
For each level it prints the calls of cpoly.find_roots in two columns,
spec_calls for the polynomials of the spec alone (catalog: omega's den and
the critical points of its monotone pieces, each solved once per spec) and
P_calls for P = E den^2 - num^2 at one energy, with the CPU seconds spent
inside both; then the evaluations of each action in the shared level solve
(swkb.solve_action), the level's CPU time and its energy: J_evals counts
the SWKB integrals, pole_evals the evaluations of the QHJ pole sum over m.
An SWKB level solves no P: its turning points come from the monotone
pieces of omega.  A spec's first SWKB row takes the spec's den (for the
pole sum, whose level the search starts at; nonexact3's den is a constant)
and one call for the pieces, and later rows take none.  The first row of
nonexact1 and of nonexact2 also solves the P of the one workspace that the
spec's cut census builds for m (catalog.PotentialSpec.swkb_cut_count).  A
contour level solves P once, for its one check on the SWKB sheet, and the
spec's den once; the pole level then solves nothing.

    PYTHONPATH=src python scripts/root_steps.py [--json PATH] [ids ...]
"""

import argparse
import json
import sys
import time
from collections import Counter

import susywkb as sw
from susywkb import catalog, contours, cpoly, swkb

CONTOUR_LEVELS = (("eckart", 1), ("scarf1", 1))


def rebind(name, old, new):
    """Bind new in place of old under name in every susywkb module."""
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("susywkb")
                and getattr(mod, name, None) is old):
            setattr(mod, name, new)


class Counts:
    """Wraps cpoly.find_roots and swkb.solve_action, wherever they are
    bound, to count the root finder's calls (those made from catalog, on
    the spec's own polynomials, apart from the rest, on P) and CPU seconds
    and, by the solve's method, the evaluations of the action each level
    solve is given."""

    def __init__(self):
        self.calls = Counter()
        self.evals = Counter()
        self.roots_s = 0.0
        find, solve = cpoly.find_roots, swkb.solve_action

        def counter(kind):
            def counted_find(p):
                self.calls[kind] += 1
                t0 = time.process_time()
                try:
                    return find(p)
                finally:
                    self.roots_s += time.process_time() - t0
            return counted_find

        def counted_solve(spec, n, action, method, start=None):
            def counted_action(E):
                self.evals[method] += 1
                return action(E)

            return solve(spec, n, counted_action, method, start)

        rebind("find_roots", find, counter("P"))
        catalog.find_roots = counter("spec")
        rebind("solve_action", solve, counted_solve)

    def take(self):
        """(spec calls, P calls, roots_s, SWKB integrals, pole sums) since
        the last call of take."""
        out = (self.calls["spec"], self.calls["P"], self.roots_s,
               self.evals["swkb_quadrature"], self.evals["poles"])
        self.calls.clear()
        self.evals.clear()
        self.roots_s = 0.0
        return out


def cases(ids):
    for pot_id in ids:
        spec = sw.get_spec(pot_id)
        for n in range(1, 5):
            if spec.n_is_bound(n):
                yield spec, n, "swkb"
    for pot_id, n in CONTOUR_LEVELS:
        if pot_id in ids:
            spec = sw.get_spec(pot_id)
            yield spec, n, "contour"
            yield spec, n, "poles"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", default=list(sw.CATALOG_IDS))
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the rows as JSON")
    args = ap.parse_args()
    solvers = {"swkb": sw.solve_level,
               "contour": contours.quantize_by_contours,
               "poles": swkb.quantize_by_poles}
    counts = Counts()
    rows = []
    print(f"{'id':12s} {'n':>2s} {'route':>7s} {'cpu_s':>6s} {'E':>22s} "
          f"{'spec_calls':>10s} {'P_calls':>7s} {'roots_s':>7s} "
          f"{'J_evals':>7s} {'pole_evals':>10s}")
    for spec, n, route in cases(args.ids):
        t0 = time.process_time()
        E = solvers[route](spec, n).energy
        cpu = time.process_time() - t0
        spec_calls, p_calls, roots_s, j_evals, pole_evals = counts.take()
        rows.append({"entry": spec.id, "n": n, "route": route, "E": E,
                     "cpu_s": cpu, "spec_calls": spec_calls,
                     "P_calls": p_calls, "roots_s": roots_s,
                     "J_evals": j_evals, "pole_evals": pole_evals})
        print(f"{spec.id:12s} {n:2d} {route:>7s} {cpu:6.3f} {E!r:>22s} "
              f"{spec_calls:10d} {p_calls:7d} {roots_s:7.4f} {j_evals:7d} "
              f"{pole_evals:10d}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
