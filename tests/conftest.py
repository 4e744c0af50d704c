"""Shared fixtures and cached heavy computations for the test suite."""

from functools import lru_cache

import numpy as np

import susywkb as sw
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
