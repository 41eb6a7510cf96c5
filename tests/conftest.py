"""Hypothesis profiles: the default for tier-1, ``deep`` for the exact-arithmetic fuzz.

``python -m pytest -q tests/test_algebra.py --hypothesis-profile=deep`` runs every
property test that does not pin ``max_examples`` itself at 2,000 examples.
"""
from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
