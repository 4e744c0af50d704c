#!/usr/bin/env python3
"""Count the Numerov oracle's work per level, grid by grid.

For each catalog entry and level n = 1, 2 (where bound) this solves
numerov_eigenvalue without a hint and, where the entry has a closed form,
again with E_n as the hint.  Without a hint the entry's closed form is
dropped too, so the oracle brackets the level from its energy window as it
does for an entry that has none.  For each grid the level uses (h, h/2, and
the 4001-point search for an upper energy where there is no closed form
and no finite threshold) it prints:

  sweeps  calls of numerov._shoot;
  newton  calls of numerov._norm_slope: sweeps with n nodes whose slope
          the search's Newton step is taken from;
  window  sweeps at an end of the energy window [E_lo, E_hi], where the
          search bisects: no hint, or none of its Newton steps closed a
          bracket inside the window;
  steps   grid steps of the Numerov recurrence (numerov._recur), summed;
          a step is one (y, D) pair of its banded solve.

and for the level its eigenvalue and two CPU times:

  cpu_s    the whole numerov_eigenvalue call;
  sweep_s  of that, the time inside numerov._shoot, summed over all grids.

cpu_s - sweep_s is the set-up: growing the box and evaluating V_- on each
grid.  The sweeps of the upper-energy search are neither newton nor window
ones.  A sweep takes N - 1 steps on an N-point grid.

    PYTHONPATH=src python scripts/oracle_sweeps.py [--json PATH] [ids ...]
"""

import argparse
import dataclasses
import json
import time
from collections import Counter

import susywkb as sw
from susywkb import numerov


COLUMNS = ("sweeps", "newton", "window", "steps")


class Counts:
    """Wraps numerov._shoot, numerov._norm_slope, numerov._recur and
    numerov._solve_on_grid to count per grid size, to time the sweeps and
    to tell which sweeps are at an end of the window."""

    def __init__(self):
        self.counts = {c: Counter() for c in COLUMNS}
        self.sweep_s = 0.0
        self._grid = None
        self._window = ()
        shoot, slope = numerov._shoot, numerov._norm_slope
        recur, solve = numerov._recur, numerov._solve_on_grid

        def counted_shoot(spec, Vg, xg, ics, E, work=None):
            N = self._grid = len(xg)
            self.counts["sweeps"][N] += 1
            self.counts["window"][N] += E in self._window
            t0 = time.process_time()
            try:
                return shoot(spec, Vg, xg, ics, E, work)
            finally:
                self.sweep_s += time.process_time() - t0

        def counted_slope(spec, Vg, xg, *args):
            self.counts["newton"][len(xg)] += 1
            return slope(spec, Vg, xg, *args)

        def counted_recur(y0, y1, ng, work):
            self.counts["steps"][self._grid] += len(ng)
            return recur(y0, y1, ng, work)

        def windowed(spec, xg, Vg, ics, n, E_lo, E_hi, hint):
            self._window = (E_lo, E_hi)
            try:
                return solve(spec, xg, Vg, ics, n, E_lo, E_hi, hint)
            finally:
                self._window = ()

        numerov._shoot, numerov._norm_slope = counted_shoot, counted_slope
        numerov._recur, numerov._solve_on_grid = counted_recur, windowed

    def take(self):
        """Counts since the last call, per grid, {N: (sweeps, newton,
        window, steps)}, and the CPU seconds of the sweeps."""
        out = {N: tuple(self.counts[c][N] for c in COLUMNS)
               for N in sorted(self.counts["sweeps"])}
        for c in self.counts.values():
            c.clear()
        sweep_s, self.sweep_s = self.sweep_s, 0.0
        return out, sweep_s


def cases(ids):
    for pot_id in ids:
        spec = sw.get_spec(pot_id)
        for n in (1, 2):
            if not spec.n_is_bound(n):
                continue
            yield dataclasses.replace(spec, spectrum=None), n, None
            if spec.spectrum is not None:
                yield spec, n, spec.spectrum(n)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", default=list(sw.CATALOG_IDS))
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the rows as JSON")
    args = ap.parse_args()
    counts = Counts()
    rows = []
    print(f"{'id':12s} {'n':>2s} {'hint':>4s} {'cpu_s':>6s} {'sweep_s':>7s} "
          f"{'E':>22s}  per grid -- points: sweeps newton window steps")
    for spec, n, hint in cases(args.ids):
        t0 = time.process_time()
        E = sw.numerov_eigenvalue(spec, n, E_hint=hint)
        cpu = time.process_time() - t0
        grids, sweep_s = counts.take()
        rows.append({"entry": spec.id, "n": n, "E_hint": hint, "E": E,
                     "cpu_s": cpu, "sweep_s": sweep_s,
                     "grids": {N: dict(zip(COLUMNS, v))
                               for N, v in grids.items()}})
        hinted = "yes" if hint is not None else "no"
        per_grid = "  ".join(f"{N:6d}: {a:3d} {nw:3d} {w:3d} {s:8d}"
                             for N, (a, nw, w, s) in grids.items())
        print(f"{spec.id:12s} {n:2d} {hinted:>4s} {cpu:6.3f} {sweep_s:7.3f} "
              f"{E!r:>22s}  {per_grid}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
