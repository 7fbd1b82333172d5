"""Shared helpers: cached fields and a couple of tiny brute-force oracles."""

import functools
import random

import pytest

from detsums import make_field


@functools.lru_cache(maxsize=64)
def field(p):
    return make_field(p)


# Orders whose roots of unity are not all real, for the route-equivalence tests.
HIGH_ORDER_PAIRS = ((13, 4), (13, 6), (37, 4), (37, 6), (61, 4), (61, 6))


@pytest.fixture
def rng():
    return random.Random("detsums-test-suite")


def legendre_oracle(x, p):
    """Independent Legendre decision: scan all squares."""
    if x % p == 0:
        return 0
    squares = {(i * i) % p for i in range(1, p)}
    return 1 if x % p in squares else -1
