"""Hypothesis settings profiles for the test suite.

``ci``, the default, draws the same examples on every run
(``derandomize``) and prints the reproduction blob of a failing example,
so a run that passes once passes again.  HYPOTHESIS_PROFILE=default
restores random draws, to search for new failing examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
