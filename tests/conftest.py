from hypothesis import settings

# Property tests draw the same examples on every run, and no per-example
# deadline: timings on a loaded host say nothing about correctness.
settings.register_profile("rownav", derandomize=True, deadline=None)
settings.load_profile("rownav")
