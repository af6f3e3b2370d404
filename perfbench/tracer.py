"""Per-layer tracing from outside the program.

The tracer replaces public callables of ``glimpse`` with wrappers that time
each call as a span and count it. Spans nest on one stack: a span's self time
is its duration minus the time of the spans it directly encloses, so the self
times of all scopes sum to the wall time of the outermost spans. Totals are
kept in memory per phase (set-up, timed loop, checkpointing) and read out when
the run ends; no individual span is stored.

Two more probes ride along. Cyclic-GC pauses are recorded through
``gc.callbacks``, and ``Tensor.backward`` is preceded by a walk of the graph
from the loss that counts the reachable nodes and their output bytes.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter


class Totals:
    """Aggregates of one phase."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        # Inclusive time of a scope when called directly from another scope,
        # keyed by (parent, child); this splits a VrBlock into its parts.
        self.nested_s = defaultdict(float)
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.gc_s = 0.0
        self.gc_collections = 0


class Tracer:
    def __init__(self):
        self.totals = Totals()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._block_index: dict[int, int] = {}
        self._gc_start = None

    # -- installing ------------------------------------------------------

    def span(self, owner, name: str, scope: str) -> None:
        """Time every call of ``owner.name`` under ``scope``.

        A ``{i}`` in ``scope`` stands for the position of the block the call
        is made on, as given to ``register_blocks``.
        """
        original = getattr(owner, name)
        tracer = self
        if "{i}" in scope:
            def traced(block, *args, **kwargs):
                label = scope.format(i=tracer._block_index[id(block)])
                return tracer.call(label, original, block, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return tracer.call(scope, original, *args, **kwargs)

        self._patch(owner, name, original, traced)

    def count(self, owner, name: str, scope: str) -> None:
        """Count calls of ``owner.name`` without timing them."""
        original = getattr(owner, name)
        tracer = self

        def counted(*args, **kwargs):
            tracer.totals.calls[scope] += 1
            return original(*args, **kwargs)

        self._patch(owner, name, original, counted)

    def tape_walk_before(self, owner, name: str) -> None:
        """Walk the graph from the receiver before each call of ``owner.name``."""
        original = getattr(owner, name)
        tracer = self

        def walked(root, *args, **kwargs):
            nodes, nbytes = tracer.call("trace.tape_walk", _walk_graph, root)
            tracer.totals.tape_nodes += nodes
            tracer.totals.tape_bytes += nbytes
            return original(root, *args, **kwargs)

        self._patch(owner, name, original, walked)

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def install_gc_probe(self) -> None:
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def register_blocks(self, blocks) -> None:
        """Remember the position of each block so its spans can name it."""
        for i, block in enumerate(blocks):
            self._block_index[id(block)] = i

    # -- recording -------------------------------------------------------

    def use(self, totals: Totals) -> None:
        """Record into ``totals`` from now on; one per phase of a run."""
        if self._stack:
            raise RuntimeError("phase switch inside an open span")
        self.totals = totals

    def call(self, label: str, fn, *args, **kwargs):
        frame = [label, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            totals = self.totals
            totals.self_s[label] += elapsed - frame[1]
            totals.incl_s[label] += elapsed
            totals.calls[label] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[1] += elapsed
                totals.nested_s[(parent[0], label)] += elapsed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.totals.gc_s += perf_counter() - self._gc_start
            self.totals.gc_collections += 1
            self._gc_start = None


def _walk_graph(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` through parent links, and their bytes."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes
