"""Hypothesis profiles.  The default profile is hypothesis's own; "mutants"
(pytest --hypothesis-profile mutants, as tests/mutants.py runs its oracles)
reads and writes no example database and derandomizes generation, so an
oracle's verdict is the same on every machine and every run."""

from hypothesis import settings

settings.register_profile("mutants", database=None, derandomize=True)
