"""Hypothesis profiles: the default for tier-1, ``deep`` for the fuzz steps in CI.

``python -m pytest -q tests/test_algebra.py --hypothesis-profile=deep`` (the
exact-arithmetic fuzz) or ``tests/test_gates.py`` (the numeric input contract)
runs every property test that does not pin ``max_examples`` itself at 2,000
examples.
"""
from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
