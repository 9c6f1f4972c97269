"""Spans around groundnav's layers, recorded from outside the program.

``instrument(recorder)`` swaps each public name for a timing wrapper at the
place its callers look it up, and restores every name on exit:

* gridnav: ``gridnav.reset``, ``gridnav.render`` and ``gridnav.advance``
  (a3c calls them through the module; ``reset`` calls ``render`` the same
  way, so a reset's render is its child span).
* nets: ``a3c.encode_instruction`` and ``a3c.model_step`` (bound in a3c by
  ``from .nets import``), plus ``nets.encode_image``,
  ``nets.attention_step`` and ``nets.policy_forward`` (looked up by
  ``model_step`` in its own module).
* autodiff: each ``Graph`` method named in ``autodiff.OP_KINDS`` and
  ``Graph.backward``. When an op records its node, the backward closure it
  appended to ``Graph.nodes`` is wrapped too, which times the op's backward.
* a3c: ``a3c.worker_update`` and ``a3c.compute_losses``; the per-thread
  roots ``a3c._worker_loop`` (training) and ``a3c.play_episode`` (eval);
  and ``SharedOptimizerState.lock``, swapped for a proxy that times the
  wait to acquire it.

Spans nest per thread. A span's self time is its duration minus the time
of the spans it directly contains. Spans are aggregated as they close,
because a desk-scale training run makes millions of them; durations are
kept only for names without the ``autodiff.op.`` prefix.
"""

from __future__ import annotations

import contextlib
import threading
from time import perf_counter

GRIDNAV_SPANS = ("reset", "render", "advance")
NETS_SPANS = ("encode_instruction", "model_step", "encode_image",
              "attention_step", "policy_forward")
OP_PREFIX = "autodiff.op."
ROOTS = ("a3c._worker_loop", "a3c.play_episode")


class SpanStat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None


class Recorder:
    """Per-thread span stacks and per-name totals."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict[str, SpanStat]] = []
        self.lock_wait_s = 0.0  # only added to while the timed lock is held

    def _thread_state(self):
        try:
            return self._local.state
        except AttributeError:
            stats: dict[str, SpanStat] = {}
            self._local.state = ([], stats)
            self._threads.append(stats)  # list.append is atomic
            return self._local.state

    def wrap(self, name: str, fn):
        keep = not name.startswith(OP_PREFIX)
        state_of = self._thread_state

        def traced(*args, **kwargs):
            stack, stats = state_of()
            stack.append(0.0)  # time of direct children, added as they close
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = SpanStat(keep)
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child
                if stat.durations is not None:
                    stat.durations.append(dt)

        traced.__wrapped__ = fn
        return traced

    def wrap_op(self, kind: str, method):
        forward = self.wrap(f"{OP_PREFIX}{kind}.fwd", method)
        bwd_name = f"{OP_PREFIX}{kind}.bwd"
        wrap = self.wrap

        def traced(graph, *args, **kwargs):
            out = forward(graph, *args, **kwargs)
            node = graph.nodes[-1]  # the node this op just recorded
            node.backward_fn = wrap(bwd_name, node.backward_fn)
            return out

        traced.__wrapped__ = method
        return traced

    def calls(self) -> dict[str, int]:
        """Call counts merged over threads; cheaper than ``stats``."""
        merged: dict[str, int] = {}
        for per_thread in list(self._threads):
            for name, s in list(per_thread.items()):
                merged[name] = merged.get(name, 0) + s.calls
        return merged

    def stats(self) -> dict[str, SpanStat]:
        """Totals merged over every thread that recorded a span."""
        merged: dict[str, SpanStat] = {}
        for per_thread in list(self._threads):
            for name, s in list(per_thread.items()):
                m = merged.get(name)
                if m is None:
                    m = merged[name] = SpanStat(s.durations is not None)
                m.calls += s.calls
                m.total += s.total
                m.self_time += s.self_time
                if s.durations is not None:
                    m.durations.extend(s.durations)
        return merged


class TimedLock:
    """Stand-in for ``threading.Lock`` that adds acquire waits to a
    recorder. Supports the ``with`` protocol, which is all a3c uses."""

    def __init__(self, recorder: Recorder):
        self._lock = threading.Lock()
        self._recorder = recorder

    def __enter__(self):
        t0 = perf_counter()
        self._lock.acquire()
        self._recorder.lock_wait_s += perf_counter() - t0
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


@contextlib.contextmanager
def _patched(patches):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(recorder: Recorder):
    """Context manager that traces every layer into ``recorder``.

    A name that no longer exists raises AttributeError here, so a refactor
    that renames a layer's entry point breaks the traced run loudly.
    """
    from groundnav import a3c, autodiff, gridnav, nets

    Graph = autodiff.Graph
    patches = [(gridnav, n, recorder.wrap(f"gridnav.{n}", getattr(gridnav, n)))
               for n in GRIDNAV_SPANS]
    for n in NETS_SPANS:
        owner = a3c if n in ("encode_instruction", "model_step") else nets
        patches.append((owner, n, recorder.wrap(f"nets.{n}", getattr(owner, n))))
    for kind in autodiff.OP_KINDS:
        patches.append((Graph, kind, recorder.wrap_op(kind, getattr(Graph, kind))))
    patches.append((Graph, "backward",
                    recorder.wrap("autodiff.backward", Graph.backward)))
    for n in ("worker_update", "compute_losses", "_worker_loop", "play_episode"):
        patches.append((a3c, n, recorder.wrap(f"a3c.{n}", getattr(a3c, n))))

    class TimedOptimizerState(a3c.SharedOptimizerState):
        def __init__(self, params):
            super().__init__(params)
            self.lock = TimedLock(recorder)

    patches.append((a3c, "SharedOptimizerState", TimedOptimizerState))
    return _patched(patches)


def root_time(stats: dict[str, SpanStat]) -> tuple[float, float]:
    """(total, self) seconds of the per-thread root spans."""
    roots = [stats[n] for n in ROOTS if n in stats]
    return sum(s.total for s in roots), sum(s.self_time for s in roots)
