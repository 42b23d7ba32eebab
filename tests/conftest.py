"""Hypothesis settings: under CI, a failing example prints its reproduction blob."""

import os

from hypothesis import settings

# max_examples stays whatever each test sets; recent Hypothesis releases ship
# a built-in "ci" profile, which this one extends, older ones do not
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
