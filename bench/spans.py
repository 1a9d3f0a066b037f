"""In-memory span tracer that wraps seqstate's public functions from outside.

A span records its name, start, end, parent span and the run id; the
tracer keeps every span in memory and writes them out when the run ends.
``autodiff.make_op`` is counted rather than spanned: it runs tens of
thousands of times per batch. The counter holds the graph nodes made so far
(calls that wired an output into the graph, so inference calls under
``no_grad`` do not count), and each span snapshots it at its start and end
so node counts can be attributed to any span.

Wrappers are installed on the name the caller looks up (for example
``seqstate.encoders.rk4_solve``, not ``seqstate.odesolve.rk4_solve``),
because ``from x import f`` binds the function at import time.

A process forked while tracing (the sweep's worker pool) inherits the
wrappers. Its spans are written to ``spans-<pid>.jsonl`` in the trace
directory whenever its outermost span ends, and the parent gathers them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []   # (id, parent, name, t0, t1, nodes0, nodes1, info)
        self.stack: list[str] = []
        self.base_depth = 0            # depth of the stack inherited at fork
        self.next_id = 0
        self.nodes = 0                 # graph nodes made so far
        self.is_child = False
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------------

    def _adopt_fork(self) -> None:
        """First span in a forked child: drop the parent's spans, keep its stack
        so the child's spans hang under the span that was open at fork."""
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)
        self.next_id = 0
        self.is_child = True

    def span(self, name: str, fn, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            span_id = f"{tracer.pid}.{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            nodes0 = tracer.nodes
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            info = annotate(args, result) if annotate else None
            tracer.spans.append((span_id, parent, name, t0, t1, nodes0, tracer.nodes, info))
            if tracer.is_child and len(tracer.stack) == tracer.base_depth:
                tracer._spill()
            return result

        return wrapper

    def node_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out.requires_grad:
                tracer.nodes += 1
            return out

        return wrapper

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def gather(self) -> None:
        """Merge spans spilled by forked children into this process's list."""
        if not self.spill_dir.exists():
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    # -- patching ----------------------------------------------------------------------

    def patch(self, target: str, name: str | None, annotate=None) -> None:
        """Replace ``module.attr`` (or ``module.Class.attr``) with a span
        wrapper, or with the node counter when ``name`` is None."""
        module_name, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            mod, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(mod), cls)
        original = owner.__dict__[attr]
        wrapped = self.node_counter(original) if name is None else \
            self.span(name, original, annotate)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ------------------------------------------------------------------------

    def write(self, path: Path) -> list[dict]:
        """Derive self times and write every span as gzipped JSON lines."""
        rows = span_table(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps({"run_id": self.run_id, **row}) + "\n")
        return rows


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans: list[tuple]) -> list[dict]:
    """One dict per span with ``total`` and ``self`` seconds.

    Self time is the span's duration minus the part of it covered by its
    child spans; children running in parallel (worker processes) are
    counted once where they overlap.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    rows = []
    for span_id, parent, name, t0, t1, nodes0, nodes1, info in spans:
        covered = covered_length(children.get(span_id, []), t0, t1)
        rows.append({"id": span_id, "parent": parent, "name": name,
                     "start": t0, "end": t1, "total": t1 - t0,
                     "self": (t1 - t0) - covered, "nodes": nodes1 - nodes0,
                     "info": info})
    return rows
