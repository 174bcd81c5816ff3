from hypothesis import settings

# Property tests draw the same examples on every run and are not timed, so
# tier-1 results do not depend on the seed or on machine load.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
