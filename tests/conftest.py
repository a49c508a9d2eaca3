"""Fixtures shared by several test modules."""

import gc

import pytest


@pytest.fixture
def no_cyclic_collector():
    """Run the test with the cyclic garbage collector off, so an object
    caught in a reference cycle outlives its last reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
