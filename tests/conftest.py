"""Shared test configuration.

Property tests draw their examples from a fixed derandomized profile and
keep no example database, so tier-1 runs are reproducible and leave no files.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
