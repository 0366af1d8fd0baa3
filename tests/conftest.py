"""Shared generators for the test suite."""

import numpy as np
import pytest

from fmopt import fem2d
from fmopt.model import ProblemInstance
from fmopt.proj import SpectralProjection, project_spectral


def make_synthetic_instance(rng, m=3, k=3, N=10, L=2, nig=2, n_loc=4,
                            rho_l=0.4, rho_u=2.5, r=0.1, gamma=4.0, eta=6.0, nu=0.0):
    """Random sparse-support instance, not tied to any mesh.

    ``n_loc`` is one support width for every element, or one per element
    for ragged supports; narrower supports are padded with zero columns
    on DOF 0.  The arrays are filled in element-last storage, as the
    instance keeps them.
    """
    widths = np.minimum(np.broadcast_to(n_loc, (m,)), N)
    cols = np.zeros((int(widths.max()), m), dtype=np.int64)
    B = np.zeros((nig, k, cols.shape[0], m))
    for i, width in enumerate(widths):
        cols[:width, i] = np.sort(rng.choice(N, size=width, replace=False))
        B[:, :, :width, i] = rng.normal(0.0, 1.0, size=(nig, k, width))
    loads = rng.normal(0.0, 1.0, size=(L, N))
    return ProblemInstance(cols.T, np.moveaxis(B, -1, 0), loads, rho_l, rho_u, r, gamma, eta, nu)


def random_feasible_blocks(rng, m, k, rho_l, rho_u, r):
    """Random material blocks inside the feasible set, via the projection."""
    raw = rng.normal(0.0, 1.0, size=(m, k, k))
    out = np.empty_like(raw)
    for i in range(m):
        out[i] = project_spectral(
            SpectralProjection(raw[i] + raw[i].T, rho_l, rho_u, r)
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_mesh_instance():
    spec = fem2d.MeshSpec(
        nx=2,
        ny=2,
        lx=2.0,
        ly=2.0,
        loads=(
            fem2d.LoadSpec("right_edge", (0.0, -1.0)),
            fem2d.LoadSpec("bottom_right", (1.0, 0.0)),
        ),
    )
    return fem2d.build_instance(spec, rho_l=0.3, rho_u=3.0, r=0.05, gamma=5.0, eta=8.0)


@pytest.fixture
def tiny_mesh_instance():
    spec = fem2d.MeshSpec(nx=1, ny=1, lx=1.0, ly=1.0)
    return fem2d.build_instance(spec, rho_l=0.3, rho_u=3.0, r=0.05, gamma=5.0, eta=8.0)
