"""Shared fixtures and cached heavy computations for the test suite."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

import susywkb as sw
from susywkb import RationalFunction, quadrature
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
    """Every Gauss-Chebyshev quadrature the test runs, as (what, fn, value,
    nodes): fn(n) is the rule's sum at n nodes, and nodes the count at which
    it converged to value."""
    seen = []
    refine_until = quadrature.refine_until

    def recording(fn, n0, nmax, tol, what):
        counts = []

        def counted(n):
            counts.append(n)
            return fn(n)

        val = refine_until(counted, n0, nmax, tol, what)
        seen.append((what, fn, val, counts[-1]))
        return val

    monkeypatch.setattr(quadrature, "refine_until", recording)
    return seen


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
