"""Outside-in tracing: spans around the public names each caller looks up.

The tracer replaces module attributes (and entries of the CLI's
objective-to-solver table) with wrappers that open a span, bump the
wrapper's fire count and, where a counter is attached, add deterministic
work counts computed from the call's arguments.  Nothing in the program
changes; :meth:`Tracer.restore` puts every original back.

Spans are kept in memory as ``(id, parent, layer, start_ns, end_ns,
nested)`` tuples and written out once, at the end of the run.  A span is
``nested`` when a span of the same layer is already open, so busy time
counts only the outermost span of each layer while self time subtracts
every direct child.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int, bool]] = []
        self.counts: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, object, object]] = []

    @contextmanager
    def span(self, layer: str):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        nested = any(open_layer == layer for _, open_layer in self._stack)
        self.spans.append(None)  # reserve the id; filled in on close
        self._stack.append((sid, layer))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, layer, start, end, nested)

    def _traced(self, key: str, original, layer: str, counter):
        def traced(*args, **kwargs):
            self.fired[key] += 1
            self.counts[layer + ".calls"] += 1
            if counter is not None:
                counter(self.counts, *args, **kwargs)
            with self.span(layer):
                return original(*args, **kwargs)

        return traced

    def wrap(self, module, attr: str, layer: str, counter=None) -> str:
        """Replace ``module.attr`` by a traced wrapper; returns its key."""
        key = f"{module.__name__}.{attr}"
        original = getattr(module, attr)
        self.fired[key] += 0
        setattr(module, attr, self._traced(key, original, layer, counter))
        self._patches.append((setattr, module, (attr, original)))
        return key

    def wrap_item(self, table: dict, item, name: str, layer: str, counter=None) -> str:
        """Replace ``table[item]`` (a callable held by reference) likewise."""
        original = table[item]
        self.fired[name] += 0
        table[item] = self._traced(name, original, layer, counter)
        self._patches.append((dict.__setitem__, table, (item, original)))
        return name

    def restore(self) -> None:
        while self._patches:
            setter, owner, (attr, original) = self._patches.pop()
            setter(owner, attr, original)

    def layer_times(self) -> dict[str, float]:
        """``<layer>.busy_s`` and ``<layer>.self_s`` for every traced layer."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        busy: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for sid, _, layer, start, end, nested in self.spans:
            own[layer] += end - start - child_ns[sid]
            if not nested:
                busy[layer] += end - start
        out = {}
        for layer in sorted(busy):
            out[layer + ".busy_s"] = busy[layer] / 1e9
            out[layer + ".self_s"] = own[layer] / 1e9
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "layer": layer, "start_ns": start, "end_ns": end}
            for sid, parent, layer, start, end, _ in self.spans
        ]


# Counters: deterministic work computed from a wrapped call's arguments.


def count_bytes_in(counts, text, *_, **__):
    counts["fileio.bytes_in"] += len(text.encode())


def count_color_pairs(layer):
    def counter(counts, point_set, *_, **__):
        t = point_set.num_colors
        counts[layer + ".color_pairs"] += t * (t - 1) // 2

    return counter


def count_edges_in(counts, graph, *_, **__):
    counts["matching.edges_in"] += len(graph.edges)


def count_geometric_states(counts, point_set, *_, **__):
    """Oracle states: product of class sizes times (t - 1)!! pairings."""
    sizes = Counter(p.color for p in point_set.points)
    t = point_set.num_colors
    pairings = math.prod(range(t - 1, 0, -2)) if t % 2 == 0 else 0
    counts["oracles.geometric.states"] += math.prod(sizes.values()) * pairings


def count_colorful_states(counts, graph, *_, **__):
    """Oracle states: k-subsets of the cross-color edges, k = t / 2."""
    k = graph.num_colors // 2
    cross = sum(1 for u, v in graph.edges if graph.colors[u] != graph.colors[v])
    if graph.num_colors % 2 == 0 and k > 0:
        counts["oracles.colorful.states"] += math.comb(cross, k)
