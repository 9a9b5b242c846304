"""Hypothesis settings profiles for the test suite.

``ci`` draws the same examples on every run (``derandomize``) and prints
the reproduction blob of a failing example.  Select it with
HYPOTHESIS_PROFILE=ci; without the variable the examples stay random.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
