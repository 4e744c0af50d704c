"""The four workloads: inputs drawn from a seed, the operations that run the
program on them, and the checks of each operation's output.

An operation is a call into the program's public API.  Its inputs are fixed
when the workload is built, so every round of a run repeats the same
operations.  The susywkb functions are looked up when an operation runs, so
a traced run reaches the wrapped ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

CLOSED_FORM_IDS = ("eckart", "scarf2", "rosenmorse2", "genpt", "scarf1",
                   "rosenmorse1")

# Level energies of nonexact2 from the Numerov oracle at its defaults
# (recomputed by `python3 perfbench/nonexact2_levels.py`).
NONEXACT2_LEVELS = {1: 0.03491466653630712, 2: 0.046984278187708145,
                    3: 0.0525626674541024, 4: 0.05559395214891046}

# Energies of the decompositions, as fractions of each entry's bound range
# (threshold) or as absolute ranges for the confining entries: the region
# where the entry has one pair of turning points and its decomposition
# closes to 1e-9.  A draw takes each of ENERGY_FRACTIONS of the range,
# moved by U(-JITTER, JITTER); the cost of a decomposition grows with E
# (nonexact1: 0.3 s at E = 1, 1 s at E = 16).
DECOMPOSE_RANGE = {
    "eckart": (0.02, 0.95), "scarf2": (0.02, 0.95),
    "rosenmorse2": (0.02, 0.95), "genpt": (0.02, 0.95),
    "scarf1": (0.2, 16.0), "rosenmorse1": (0.2, 16.0),
    "nonexact1": (0.2, 16.0), "nonexact3": (0.1, 3.0),
}
ENERGY_FRACTIONS = (1.0 / 6.0, 0.5, 5.0 / 6.0)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # check(result, refs) -> (closure_failed, problems)
    check: Callable[[object, "RefCache"], tuple]
    # oracle operations: relative error of the result against the closed form
    error: Callable[[float], float] | None = None


class RefCache:
    """Reference values computed once per distinct input, after timing."""

    def __init__(self):
        self._j = {}

    def j_swkb(self, pot_id, params, E):
        key = (pot_id, tuple(sorted(params.items())), E)
        if key not in self._j:
            self._j[key] = ref.j_swkb(pot_id, params, E)
        return self._j[key]


# ---------------------------------------------------------------------------
# seeded parameter draws inside each entry's valid domain
# ---------------------------------------------------------------------------

# Two anchors per closed-form entry, (A, B, alpha, hbar, n): the catalog
# defaults and a second point elsewhere in the valid domain, at a higher
# level.  A draw multiplies A, B, alpha and hbar of an anchor by independent
# factors exp(U(-JITTER, JITTER)); the anchors keep every level up to n bound
# with a margin larger than the jitter.  Anchors rather than draws over the
# whole domain keep the cost of a round steady from seed to seed: the cost
# of a contour level changes by a factor of three across the domain.
ANCHORS = {
    "eckart": ((1.0, 16.0, 1.0, 1.0, 1), (1.3, 19.36, 0.9, 1.1, 2)),
    "scarf2": ((3.0, 1.0, 1.0, 1.0, 1), (3.4, 1.4, 1.1, 0.9, 2)),
    "rosenmorse2": ((4.0, 2.0, 1.0, 1.0, 1), (4.3, 1.5, 0.9, 1.1, 2)),
    "genpt": ((2.0, 5.0, 1.0, 1.0, 1), (3.0, 5.5, 1.1, 0.9, 2)),
    "scarf1": ((1.0, 0.5, 1.0, 1.0, 1), (1.5, 0.6, 1.1, 0.9, 2)),
    "rosenmorse1": ((1.0, 1.0, 1.0, 1.0, 1), (1.6, 0.8, 0.9, 1.1, 2)),
}
JITTER = 0.05


def draw_entry(rng, pot_id, anchor):
    """(params, hbar, n) near one anchor of pot_id."""
    A, B, al, hbar, n = ANCHORS[pot_id][anchor]
    f = np.exp(rng.uniform(-JITTER, JITTER, size=4))
    params = {"A": float(A * f[0]), "B": float(B * f[1]),
              "alpha": float(al * f[2])}
    return params, float(hbar * f[3]), n


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _level_op(sw, route, pot_id, params, hbar, n):
    spec = sw.get_spec(pot_id, params=params, hbar=hbar)
    if route == "swkb":
        def call():
            return sw.solve_level(spec, n).energy
    else:
        def call():
            return sw.quantize_by_contours(spec, n).energy

    def check(E, refs):
        return False, ref.check_level(pot_id, params, hbar, n, E)

    return Op(f"{route} {pot_id} {_fmt(params)} hbar={hbar:.6g} n={n}",
              call, check)


def _decompose_op(sw, pot_id, E, level=None):
    spec = sw.get_spec(pot_id)
    params = dict(spec.params)

    def call():
        return sw.decompose(spec, E)

    def check(dec, refs):
        if ref.closure_failed(dec):
            return True, []
        J = refs.j_swkb(pot_id, params, E)
        return False, ref.check_decomposition(pot_id, params, spec.hbar, E,
                                              dec, J, level)

    tag = f" n={level}" if level is not None else ""
    return Op(f"decompose {pot_id} E={E:.12g}{tag}", call, check)


def _defect_op(sw, pot_id, E, n):
    spec = sw.get_spec(pot_id)

    def call():
        return sw.defect_report(spec, E, n)

    def check(rep, refs):
        return False, ref.check_defect(pot_id, E, n, rep, spec.hbar)

    return Op(f"defect_report {pot_id} E={E:.12g} n={n}", call, check)


def _oracle_op(sw, pot_id, n):
    spec = sw.get_spec(pot_id)
    params = dict(spec.params)
    hint = ref.closed_form(pot_id, params, spec.hbar, n)

    def call():
        return sw.numerov_eigenvalue(spec, n, E_hint=hint)

    def check(E, refs):
        return False, ref.check_oracle(pot_id, params, spec.hbar, n, E)

    def error(E):
        return ref.oracle_error(pot_id, params, spec.hbar, n, E)

    return Op(f"numerov {pot_id} n={n}", call, check, error)


def _fmt(params):
    return ",".join(f"{k}={v:.6g}" for k, v in sorted(params.items()))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def swkb_levels(sw, rng):
    ops = []
    for pid in CLOSED_FORM_IDS:
        spec = sw.get_spec(pid)
        for n in (1, 2):
            if spec.n_is_bound(n):
                ops.append(_level_op(sw, "swkb", pid, dict(spec.params),
                                     spec.hbar, n))
        for anchor in (0, 1, 0, 1):
            params, hbar, n = draw_entry(rng, pid, anchor)
            ops.append(_level_op(sw, "swkb", pid, params, hbar, n))
    for n in (1, 2, 3, 4):
        ops.append(_level_op(sw, "swkb", "nonexact1", {}, 1.0, n))
    # Kept failure: raises ConvergenceError (see README.md).
    ops.append(_level_op(sw, "swkb", "nonexact2", {}, 1.0, 1))
    return ops


def contour_levels(sw, rng):
    ops = []
    for pid in CLOSED_FORM_IDS:
        # Three draws of the chord entries, whose levels take 0.3-0.8 s,
        # one per anchor of the arc entries (2-7 s).
        anchors = (0, 1) if pid in ("scarf1", "rosenmorse1") else (0, 1, 0)
        for anchor in anchors:
            params, hbar, n = draw_entry(rng, pid, anchor)
            ops.append(_level_op(sw, "contour", pid, params, hbar, n))
    return ops


def decompose_defect(sw, rng):
    ops = []
    for pid, (lo, hi) in DECOMPOSE_RANGE.items():
        spec = sw.get_spec(pid)
        top = ref.threshold(pid, spec.params)
        scale = top if math.isfinite(top) else 1.0
        for f in ENERGY_FRACTIONS:
            f += rng.uniform(-JITTER, JITTER)
            ops.append(_decompose_op(sw, pid, float((lo + f * (hi - lo))
                                                    * scale)))
        if pid in CLOSED_FORM_IDS:
            n = 2 if spec.n_is_bound(2) else 1
            E = ref.closed_form(pid, dict(spec.params), spec.hbar, n)
            ops.append(_decompose_op(sw, pid, E, level=n))
    # Fixed energies: the closure of the last three exceeds 1e-9, a kept
    # failure (see README.md).
    for E in NONEXACT2_LEVELS.values():
        ops.append(_decompose_op(sw, "nonexact2", E))
    eckart = dict(sw.get_spec("eckart").params)
    for n in (1, 2):
        E = ref.closed_form("eckart", eckart, 1.0, n)
        ops.append(_defect_op(sw, "eckart", E, n))
        ops.append(_defect_op(sw, "nonexact1", 4.0 * n, n))
    ops.append(_defect_op(sw, "nonexact2", NONEXACT2_LEVELS[1], 1))
    return ops


ORACLE_CASES = (("eckart", 1), ("scarf2", 1), ("scarf1", 1),
                ("rosenmorse1", 1), ("nonexact1", 1))


def oracle_levels(sw, rng):
    order = rng.permutation(len(ORACLE_CASES))
    return [_oracle_op(sw, *ORACLE_CASES[k]) for k in order]


WORKLOADS = {
    "swkb_levels": swkb_levels,
    "contour_levels": contour_levels,
    "decompose_defect": decompose_defect,
    "oracle_levels": oracle_levels,
}
