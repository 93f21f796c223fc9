"""Test-session settings shared by every test module.

Hypothesis runs with its default settings except ``print_blob``: a
failing property test then prints the ``@reproduce_failure`` line that
replays its falsifying example exactly.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
