#!/usr/bin/env python3
"""Count the path planner's work per contour level.

For each closed-form catalog entry and bound level n = 1, 2 this solves
the level on the contour route (quantize_by_contours) and prints:

  ws      workspaces built, one per energy the level solve evaluates;
  builds  visibility graphs built (PathPlanner._build);
  routes  PathPlanner.route calls, split into direct (the escaped ends
          see each other), extended (they see each other once extended
          to visibility) and graph (through the visibility graph);
  search  Dijkstra searches (PathPlanner._tree), one per source point
          of a planner that needs the graph;
  pairs   (segment, obstacle) pairs that edge_clear decided: exact, the
          pairs that got the exact distance test, and pruned, the pairs
          that the bounding-box gap cleared;
  chains  continue_along calls (along) and the chords of their chains
          once track_nodes has halved every chord that winds P too far
          (pieces);
  orders  how many circle quadratures (pole circles and the large circle)
          returned at each node count, as count x nodes;

and the level's CPU time and energy.

    PYTHONPATH=src python scripts/planner_work.py [--json PATH] [ids ...]
"""

import argparse
import json
import time
from collections import Counter

import susywkb as sw
from susywkb import branch, contours

LEVELS = (1, 2)


class Counts:
    """Wraps the planner's methods and the workspace constructor to count
    their calls, branch._near_pairs to count the pairs it passes on, the
    continuation functions to count chains and their refined chords, and
    refine_until to record the order each circle quadrature reached."""

    def __init__(self):
        self.c = Counter()
        planner = branch.PathPlanner
        build, tree, route = planner._build, planner._tree, planner.route
        extend, near = planner._extend_to_visibility, branch._near_pairs
        ws_init = contours._Workspace.__init__
        along, track = branch.continue_along, branch.track_nodes
        refine = branch.refine_until
        self.orders = Counter()
        self._in_chain = False

        def counted_ws(ws, spec, E):
            self.c["ws"] += 1
            ws_init(ws, spec, E)

        def counted_build(p):
            self.c["builds"] += 1
            build(p)

        def counted_tree(p, src):
            self.c["search"] += 1
            tree(p, src)

        def counted_extend(p, chain, steps=planner.MARCH):
            self._extended = True
            return extend(p, chain, steps)

        def counted_route(p, z0, z1):
            self._extended = False
            path = route(p, z0, z1)
            nodes = set() if p._nodes is None else set(p._nodes.tolist())
            if any(complex(z) in nodes for z in path):
                self.c["graph"] += 1
            elif self._extended:
                self.c["extended"] += 1
            else:
                self.c["direct"] += 1
            return path

        def counted_near(gap, limit):
            rows, cols = near(gap, limit)
            self.c["exact"] += len(rows)
            self.c["pruned"] += gap.size - len(rows)
            return rows, cols

        def counted_along(P, roots, w0, points):
            self.c["along"] += 1
            self._in_chain = True
            try:
                return along(P, roots, w0, points)
            finally:
                self._in_chain = False

        def counted_track(P, roots, w0, zs):
            if not self._in_chain:
                return track(P, roots, w0, zs)

            def counted_P(z):
                # track_nodes evaluates P once, on the refined chain
                self.c["pieces"] += len(z) - 1
                return P(z)

            return track(counted_P, roots, w0, zs)

        def counted_refine(fn, n0, nmax, tol, what):
            reached = []

            def at(n):
                reached.append(n)
                return fn(n)

            val = refine(at, n0, nmax, tol, what)
            if what == "contour quadrature":
                self.orders[reached[-1]] += 1
            return val

        branch.continue_along, branch.track_nodes = counted_along, counted_track
        branch.refine_until = counted_refine
        contours._Workspace.__init__ = counted_ws
        planner._build, planner._tree = counted_build, counted_tree
        planner._extend_to_visibility = counted_extend
        planner.route = counted_route
        branch._near_pairs = counted_near

    def take(self):
        """Counts since the last call of take, with the circle quadratures'
        orders as {nodes: count} under "orders"."""
        out = dict(self.c)
        out["orders"] = dict(sorted(self.orders.items()))
        self.c.clear()
        self.orders.clear()
        return out


FIELDS = ("ws", "builds", "direct", "extended", "graph", "search", "exact",
          "pruned", "along", "pieces")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", default=list(sw.EXACT_IDS))
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write the rows as JSON")
    args = ap.parse_args()
    counts = Counts()
    rows = []
    print(f"{'id':12s} {'n':>2s} {'cpu_s':>6s} {'E':>22s} {'ws':>4s} "
          f"{'builds':>6s} {'direct':>6s} {'ext':>4s} {'graph':>5s} "
          f"{'search':>6s} {'exact':>8s} {'pruned':>8s} {'along':>5s} "
          f"{'pieces':>6s}  orders")
    for pot_id in args.ids:
        spec = sw.get_spec(pot_id)
        for n in LEVELS:
            if not spec.n_is_bound(n):
                continue
            t0 = time.process_time()
            E = contours.quantize_by_contours(spec, n).energy
            cpu = time.process_time() - t0
            c = counts.take()
            row = {"entry": pot_id, "n": n, "E": E, "cpu_s": cpu}
            row.update({k: c.get(k, 0) for k in FIELDS})
            row["orders"] = c["orders"]
            rows.append(row)
            print(f"{pot_id:12s} {n:2d} {cpu:6.3f} {E!r:>22s} {row['ws']:4d} "
                  f"{row['builds']:6d} {row['direct']:6d} "
                  f"{row['extended']:4d} {row['graph']:5d} "
                  f"{row['search']:6d} {row['exact']:8d} {row['pruned']:8d} "
                  f"{row['along']:5d} {row['pieces']:6d}  "
                  + " ".join(f"{k}x{n}" for n, k in row["orders"].items()))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)


if __name__ == "__main__":
    main()
