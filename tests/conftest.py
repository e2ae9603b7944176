"""Hypothesis settings profiles.

``mutants`` drops the shrink phase (and the explain phase that reports on
a shrunk example), so a property test fails as soon as it finds a
counterexample instead of spending tens of seconds shrinking it.
``tests/mutants/run.py`` selects it by setting ``HYPOTHESIS_PROFILE=mutants``
for its pytest runs; without that variable the default profile stays
loaded.  It is loaded here, before the test modules are imported, because a
test's ``settings(...)`` takes its unset fields from the profile loaded
when it is built.
"""

from __future__ import annotations

import os

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
