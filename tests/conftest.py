import pytest

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
