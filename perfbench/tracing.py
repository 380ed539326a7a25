"""In-memory spans around the library's layer boundaries, installed from outside.

The benchmark never edits the library.  Instead :meth:`Tracer.installed`
replaces each public name at the place where the calling module looks it
up (``causalcomb.oracle.contract_wire``, the ``OracleSession`` methods, and
so on) with a wrapper that records a span, and puts every original back
when the block ends.  Calls that bypass those import sites, such as
``tensors.correlation_norm`` calling ``tensors.partial_trace`` inside its
own module, are not seen.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the benchmark operation it
belongs to.  Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import causalcomb.combs as combs
import causalcomb.discovery as discovery
import causalcomb.oracle as oracle
from causalcomb import OracleSession

MIB = 2.0**20


def _choi_bytes(tracer: "Tracer", args, result) -> None:
    # contract_wire(x, label, k): bytes of the operand x, computed from its
    # shape rather than measured
    tracer.counters["tensors.choi_mb_touched"] += args[0].matrix.nbytes / MIB


def _table_cells(tracer: "Tracer", args, result) -> None:
    tracer.counters["oracle.table_cells"] += result.size


# (owner, attribute, span name, counter hook)
TARGETS = (
    (oracle, "contract_wire", "tensors.contract_wire", _choi_bytes),
    (oracle, "partial_trace", "tensors.partial_trace", None),
    (combs, "partial_trace", "tensors.partial_trace", None),
    (combs, "trace_norm", "tensors.trace_norm", None),
    (combs, "check_comb_condition", "combs.check_comb_condition", None),
    (oracle, "build_choi", "combs.build_choi", None),
    (oracle, "product_born_table", "povm.product_born_table", None),
    (discovery, "find_last", "discovery.find_last", None),
    (discovery, "independence_matrix", "discovery.independence_matrix", None),
    (discovery, "reconstruct_pair", "povm.reconstruct_pair", None),
    (OracleSession, "__init__", "oracle.session_init", None),
    (OracleSession, "reduce", "oracle.reduce", None),
    (OracleSession, "overlap_estimate", "oracle.overlap_estimate", None),
    (OracleSession, "sample_batch", "oracle.sample_batch", _table_cells),
)

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS} | {"bench.op"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def call(self, name: str, fn, *args, hook=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
        if hook is not None:
            hook(self, args, result)
        return result

    def op(self, op_id: int, fn):
        """Run one benchmark operation as a root span ``bench.op``."""
        self._op = op_id
        try:
            return self.call("bench.op", fn)
        finally:
            self._op = -1

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        for owner, attr, original in saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``ms`` and ``self_ms``.

        Self time is a span's duration minus the time its direct children
        cover; the process is single-threaded, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[idx]) * 1e3
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(rec) + "\n")
