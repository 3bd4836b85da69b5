"""Shared hypothesis settings: every property test is derandomized.

Each ``@settings`` in the suite sets only ``max_examples``; the rest comes
from this profile, loaded for the whole session.
"""

from hypothesis import settings

settings.register_profile("lrpoly", derandomize=True, database=None, deadline=2000)
settings.load_profile("lrpoly")
