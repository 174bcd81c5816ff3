import os

from hypothesis import settings

import frstokes

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
