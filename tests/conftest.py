"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn)``: the most bytes that ``fn()`` held at once beyond what was
    live before it, as tracemalloc counts them (numpy reports its array
    buffers there)."""
    def peak(fn):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def traced_kept():
    """``kept(fn)``: the bytes that ``fn()`` left allocated beyond what was
    live before it, its return value dropped, as tracemalloc counts them."""
    def kept(fn):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()

    return kept
