import numpy as np
import pytest
from hypothesis import settings

from dsmsolve import FlowConfig, make_gallery, make_operator

# every run draws the same examples (derandomize also turns off the example
# database) and no example has a deadline, so tier-1's verdict depends neither
# on a run's random draw nor on the host's load
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

MONOTONE_NAMES = (
    "scalar_cubic",
    "scalar_affine_sin",
    "identity",
    "spd_tridiag",
    "convex_gradient",
    "skew_plus_cubic",
    "rank_one_projector",
)
COERCIVE_NAMES = (
    "scalar_cubic",
    "scalar_affine_sin",
    "identity",
    "spd_tridiag",
    "convex_gradient",
    "skew_plus_cubic",
)
STRICT_NAMES = (
    "scalar_cubic",
    "scalar_affine_sin",
    "identity",
    "spd_tridiag",
    "convex_gradient",
    "skew_plus_cubic",
)


@pytest.fixture(scope="session")
def gallery5():
    return make_gallery(5)


@pytest.fixture(scope="session")
def flow_cfg():
    return FlowConfig()


def seeded_points(seed, n, dim, radius=5.0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts / np.maximum(norms, 1e-12) * radius * rng.uniform(size=(n, 1))
