import tracemalloc

import pytest

from groundnav import autodiff
from groundnav.autodiff import Graph


@pytest.fixture
def scale_backward(monkeypatch):
    """``scale_backward(op)`` makes ``Graph.<op>`` record a backward that
    returns every gradient multiplied by 1.01, for the rest of the test."""
    def install(op):
        original = getattr(Graph, op)

        def mutant(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            node = self.nodes[out.node]
            backward_fn = node.backward_fn
            node.backward_fn = lambda g: tuple(
                None if gx is None else gx * 1.01 for gx in backward_fn(g))
            return out

        monkeypatch.setattr(Graph, op, mutant)
    return install


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls fn and returns, in bytes, the peak of the
    memory tracemalloc sees allocated above what was held when fn began."""
    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure


@pytest.fixture
def helpers(monkeypatch):
    """The thread of every backward helper started during the test."""
    started = []

    class Spy(autodiff._Helper):
        def __init__(self):
            super().__init__()
            started.append(self.thread)

    monkeypatch.setattr(autodiff, "_Helper", Spy)
    return started
