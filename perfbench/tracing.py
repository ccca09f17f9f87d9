"""Spans and field counts recorded by the benchmark around momflow's public calls.

Spans stay in memory and are written out once, when the worker ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from momflow import MomentumField


class Tracer:
    """Span recorder: (name, start, end, parent index, op id) per span."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, op_id):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def seconds(self, name, op_id) -> list:
        """Durations of every span called ``name`` in op ``op_id``."""
        return [end - start for n, start, end, _parent, op in self.spans
                if n == name and op == op_id]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op_id}) + "\n")


class FieldCounter:
    """The number of points in each call to one field's value function, in order."""

    def __init__(self):
        self.sizes = []


def counting_field(inner: MomentumField, counter: FieldCounter) -> MomentumField:
    """A MomentumField that evaluates exactly as ``inner`` and counts its value calls.

    It delegates to ``inner``'s unchecked evaluators, as the ensemble
    stepper itself does: the public ``value`` adds a pole check the
    stepper skips, which would change what the op does.
    """
    def value(pts):
        counter.sizes.append(pts.shape[0])
        return inner._value_at(pts, check=False)

    return MomentumField(
        inner.dimension, value,
        jacobian_fn=lambda pts: inner._jacobian_at(pts, check=False),
        laplacian_fn=lambda pts: inner._laplacian_at(pts, check=False),
        derivative_kind=inner.derivative_kind, poles=inner.poles,
        holomorphic=inner.holomorphic, tolerance=inner.tolerance,
        pole_margin=inner.pole_margin)
