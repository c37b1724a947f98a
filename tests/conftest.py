"""Test-wide settings: hypothesis draws the same examples on every run and
every machine with the same hypothesis version (derandomized, no example
database), with a fixed example count for tests that do not set their own.
CI pins that version in .github/workflows/tier1.yml."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("deterministic")
