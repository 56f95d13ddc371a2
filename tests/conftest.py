from hypothesis import settings

# The same examples on every run, and no per-example deadline: this suite runs
# on shared hosts whose speed swings widely between runs.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
