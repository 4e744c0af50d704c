"""Shared fixtures and cached heavy computations for the test suite."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

import susywkb as sw
from susywkb import RationalFunction, branch, quadrature, swkb
from susywkb.catalog import probe_energy


@lru_cache(maxsize=None)
def spec_of(pot_id):
    return sw.get_spec(pot_id)


@lru_cache(maxsize=None)
def drawn_spec(pot_id, seed):
    """The entry with each default parameter and hbar multiplied by an
    independent factor exp(U(-0.1, 0.1)) drawn from seed, which keeps it
    inside every builder's valid domain."""
    rng = np.random.default_rng(seed)
    defaults = sw.get_spec(pot_id).params
    f = np.exp(rng.uniform(-0.1, 0.1, size=len(defaults) + 1))
    params = {k: float(v * g) for (k, v), g in zip(defaults.items(), f)}
    return sw.get_spec(pot_id, params=params, hbar=float(f[-1]))


TEXTBOOK_IDS = ("oscillator", "coulomb", "radial")


@lru_cache(maxsize=None)
def textbook_spec(name):
    """A shape-invariant superpotential outside the catalog, under the
    identity mapping at hbar = 1, with its closed-form spectrum:
    - oscillator: omega = x on the line, E_n = 2n; one cut;
    - coulomb: omega = e^2/(2(l+1)) - (l+1)/x on the half line with l = 1,
      e^2 = 2, E_n = 1/4 - 1/(n+2)^2 below the threshold 1/4; one cut;
    - radial: omega = x - (l+1)/x on the half line with l = 1, E_n = 4n;
      two cuts, the second the mirror of the first."""
    base, num, den, threshold, spectrum = {
        "oscillator": ("nonexact3", [0.0, 1.0], [1.0], math.inf,
                       lambda n: 2.0 * n),
        "coulomb": ("nonexact1", [-2.0, 0.5], [0.0, 1.0], 0.25,
                    lambda n: 0.25 - 1.0 / (n + 2) ** 2),
        "radial": ("nonexact1", [-2.0, 0.0, 1.0], [0.0, 1.0], math.inf,
                   lambda n: 4.0 * n),
    }[name]
    spec = _with_omega(sw.get_spec(base), num, den, "identity")
    return dataclasses.replace(spec, id=name, params={}, threshold=threshold,
                               spectrum=spectrum, partial=False,
                               n_is_bound=lambda n: n >= 0)


@pytest.fixture
def quadratures(monkeypatch):
    """Every Gauss-Chebyshev quadrature the test runs, one record per
    integrand (row), as (what, fn, value, evaluated, nodes): fn(n) is the
    row's sum at n nodes, by the rule's own halving, value the row's
    result, evaluated the number of nodes the term was handed for the row,
    and nodes the order at which the row converged.  A rule that raises
    leaves no record."""
    seen = []
    rule = quadrature.gauss_chebyshev

    def recording(term, count, what):
        evaluated = np.zeros(count, dtype=int)
        nodes = np.zeros(count, dtype=int)

        def counted(t, s, rows):
            evaluated[rows] += len(t)
            # 127 nodes are the first pass, of order 128; n/2 new nodes
            # make order n
            nodes[rows] = 1 << len(t).bit_length()
            return term(t, s, rows)

        vals = rule(counted, count, what)
        for k in range(count):
            seen.append((what, row_sums(term, k), vals[k],
                         int(evaluated[k]), int(nodes[k])))
        return vals

    for module in (swkb, branch):
        monkeypatch.setattr(module, "gauss_chebyshev", recording)
    return seen


def row_sums(term, k):
    """fn(n), the sum of row k of a rule's term at n nodes, halved from
    order ORDER_START as quadrature.gauss_chebyshev halves it."""
    rows, start, sums = np.array([k]), quadrature.ORDER_START, {}

    def fn(n):
        if n not in sums and n <= 2 * start:
            first = term(*quadrature._FIRST_NODES, rows)[0]
            sums[start] = np.sum(first[1::2]) / start
            sums[2 * start] = (0.5 * sums[start]
                               + np.sum(first[::2]) / (2 * start))
        elif n not in sums:
            new = term(*quadrature._nodes(n, 2), rows)[0]
            sums[n] = 0.5 * fn(n // 2) + np.sum(new) / n
        return sums[n]

    return fn


@lru_cache(maxsize=None)
def numerov_of(pot_id, n):
    """Cached Numerov eigenvalue (the most expensive oracle call)."""
    spec = spec_of(pot_id)
    hint = None
    if spec.spectrum is not None and spec.n_is_bound(n):
        hint = spec.spectrum(n)
    return sw.numerov_eigenvalue(spec, n, E_hint=hint)


@lru_cache(maxsize=None)
def decompose_of(pot_id, E):
    return sw.decompose(spec_of(pot_id), E)


def mid_spectrum_energy(pot_id):
    """A representative bound energy for contour work."""
    if pot_id == "nonexact2":
        return numerov_of("nonexact2", 1)
    return probe_energy(spec_of(pot_id), 2)


def reference_radius(ws):
    """Four times the modulus of the farthest branch point or fixed pole of
    a contours._Workspace: the circle of that radius encloses every cut and
    pole."""
    return 4.0 * max(max(abs(b) for b in ws.branch_points),
                     max((abs(p) for p in ws.poles), default=0.0), 1e-6)


def reference_circle(integrand, radius, n=1024):
    """(1/2pi) times the integral of a branch.SqrtIntegrand counterclockwise
    around |y| = radius, by the n-node trapezoid rule in the angle: the
    independent reference for the algebraic J_GammaR."""
    ys = radius * np.exp(2j * np.pi * np.arange(n) / n)
    return np.mean(integrand.sheet(ys) * integrand.weight(ys) * 1j * ys)


def _with_omega(spec, num, den, mapping):
    return dataclasses.replace(spec, omega_y=RationalFunction(num, den),
                               mapping=mapping)


# Specs with a multiple fixed pole, and that pole.
MULTIPLE_POLE_SPECS = [
    # omega = y + 0.1 y/(y^2 + 1)^2: den has double zeros at +-i
    (_with_omega(sw.get_spec("nonexact3"),
                 [0.0, 1.1, 0.0, 2.0, 0.0, 1.0], [1.0, 0.0, 2.0, 0.0, 1.0],
                 "identity"), 1j),
    # Morse, omega = 2 - 3/y with y = e^x: den(0) = 0 at the mapping pole
    (_with_omega(sw.get_spec("scarf2"), [-3.0, 2.0], [0.0, 1.0], "exp"),
     0j),
    # omega = y + 0.1 y/(y^2 + 1)^3: den has triple zeros at +-i, which
    # find_roots splits by about eps^(1/3)
    (_with_omega(sw.get_spec("nonexact3"),
                 [0.0, 1.1, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0],
                 [1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0], "identity"), 1j),
]
