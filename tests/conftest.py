import os

import numpy as np
from hypothesis import settings

import frstokes
from frstokes import spectral_oracle

# Property tests draw the same examples on every run and are not timed, so
# tier-1 results do not depend on the seed or on machine load.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def tree_env():
    """Environment whose PYTHONPATH leads with the tree under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(frstokes.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def random_spd_coo(n, seed):
    """Random sparse SPD matrix as COO triplets plus its dense image."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        dense[i, j] += v
        dense[j, i] += v
    dense += n * np.eye(n)  # diagonally dominant, hence SPD
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols], dense


def hand_built_contour(delta):
    """The contour of ``contour_nodes`` on a fixed arc of radius delta with
    rays cut at 200 and 160 nodes per ray, whatever t: the oversized arc
    that the rounding guard must refuse (at t = 1 and delta = 30, exp(z t)
    is ~1e13 on it)."""
    return spectral_oracle._contour(delta, 200.0, 160)


def use_hand_built_contour(monkeypatch, delta):
    """Make ``mode_response_many`` sum over ``hand_built_contour(delta)``."""
    monkeypatch.setattr(spectral_oracle, "contour_nodes",
                        lambda t: hand_built_contour(delta))
