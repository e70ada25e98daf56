"""A speed probe: a fixed slice of reference work timed next to and all
through the timed work, so that the host's speed can be divided out.

The benchmark host's speed drifts within seconds: the slice's time moved
between 2.9 and 4.9 ms across runs (README.md, "Steadiness"). A reference
timed only before and after a 20 s training does not track that. The
probe therefore also runs a slice about every INTERVAL seconds while an
operation runs, triggered from `Tensor.__init__` (called throughout every
phase of training). Each set-up, which lasts well under a second, is
bracketed by one slice before and one after. The slice imports nothing from mecole. It mixes the two
kinds of work mecole spends its time on: pure-Python set and tuple
handling, and NumPy calls on small arrays.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

INTERVAL = 0.2
# converts a time measured in slices to seconds; the slice's median time
# on the benchmark host was 4.1 ms (README.md, "Steadiness")
REFERENCE_SLICE_S = 0.004

_rng = np.random.default_rng(7)
_PAIRS = _rng.integers(0, 3000, size=(1500, 2)).tolist()
_VECS = _rng.normal(size=(100, 16))


def reference_slice():
    """About 4 ms of fixed work on the benchmark host."""
    acc = 0.0
    for _ in range(2):
        seen = set()
        for u, v in _PAIRS:
            key = (u, v) if u < v else (v, u)
            if key not in seen:
                seen.add(key)
        acc += len(seen)
        for i in range(len(_VECS)):
            x = np.clip(_VECS[i] @ _VECS[i - 1], -500, 500)
            acc += float(np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                                  np.exp(x) / (1.0 + np.exp(x))))
    return acc


class SpeedProbe:
    def __init__(self, pause=None):
        # `pause` hides probe time from a tracer's spans
        self._pause = pause or nullcontext
        self._times = []
        self._next = None  # when the next in-operation slice is due
        self._restore = None

    def install(self):
        import mecole.autodiff as ad

        orig = ad.Tensor.__init__
        probe = self

        def init(*args, **kwargs):
            if probe._next is not None and perf_counter() >= probe._next:
                probe._sample()
                probe._next = perf_counter() + INTERVAL
            orig(*args, **kwargs)

        ad.Tensor.__init__ = init
        self._restore = (ad.Tensor, orig)

    def uninstall(self):
        if self._restore is not None:
            self._restore[0].__init__ = self._restore[1]
            self._restore = None

    def _sample(self):
        with self._pause():
            t = perf_counter()
            reference_slice()
            dt = perf_counter() - t
        self._times.append(dt)
        return dt

    def bracket(self, fn, *args):
        """Time a short fn(*args) between two slices.

        Returns (fn's seconds, mean slice seconds, fn's result)."""
        before = self._sample()
        t = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t
        return dt, (before + self._sample()) / 2.0, out

    def measure(self, fn, *args):
        """Run a long fn(*args) with slices before, during and after it.

        Returns (seconds in fn less the slices inside it, mean slice
        seconds, fn's result)."""
        self._times = []
        self._sample()
        self._next = perf_counter() + INTERVAL
        t = perf_counter()
        try:
            out = fn(*args)
        finally:
            self._next = None
        wall = perf_counter() - t
        inside = sum(self._times[1:])
        self._sample()
        return wall - inside, float(np.mean(self._times)), out
