"""Test-wide settings: hypothesis draws the same examples on every run and
every machine (derandomized, no example database), with a fixed example
count for tests that do not set their own."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("deterministic")
