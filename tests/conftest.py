"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws 500 examples a property, where the default draws 100."""

import os

try:
    from hypothesis import settings
except ImportError:  # the tests that need Hypothesis report it themselves
    settings = None

if settings is not None:
    settings.register_profile("ci", max_examples=500)
    if "HYPOTHESIS_PROFILE" in os.environ:
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
