"""Hypothesis profiles for the test suite.

``ci`` is derandomized and runs more examples: select it with
``pytest --hypothesis-profile=ci``.  A test that pins its example count takes
it through :func:`examples`, so the profile can raise the count; under the
default profile the pinned count stands.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=1000, deadline=None)


def examples(count: int) -> int:
    """``count`` examples, or the active profile's count when that is larger."""
    return max(count, settings.default.max_examples)
