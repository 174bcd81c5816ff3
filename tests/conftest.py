import os

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
