"""Shared test settings: property tests run a fixed, reproducible set of
examples with no per-example deadline and no example database."""

from hypothesis import settings

settings.register_profile("kljn", derandomize=True, deadline=None, database=None)
settings.load_profile("kljn")
