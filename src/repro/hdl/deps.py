"""Signal dependency graphs and cones of influence.

The debug model uses :func:`outputs_in_cone` to decide whether a fault
at some signal can explain an observed output mismatch -- the mechanism
behind the paper's claim that state checkpoints give *targeted* fixes.
"""

from __future__ import annotations

from collections import deque

from repro.hdl.design import Design


def dependency_graph(design: Design) -> dict[str, set[str]]:
    """Adjacency dict with ``b in graph[a]`` when ``a`` influences ``b``.

    Both combinational and clocked processes contribute edges from every
    read signal to every written signal; clock/reset edge sources also
    influence the registers their process writes.  Every signal, memory,
    and edge endpoint is a key.
    """
    graph: dict[str, set[str]] = {name: set() for name in design.signals}
    for name in design.memories:
        graph.setdefault(name, set())
    for proc in design.processes:
        sources = set(proc.reads)
        for _, clock in proc.edges:
            sources.add(clock)
        for target in proc.writes:
            graph.setdefault(target, set())
            for source in sources:
                if source != target:
                    graph.setdefault(source, set()).add(target)
    return graph


def _reachable(graph: dict[str, set[str]], signal: str) -> frozenset[str]:
    """``signal`` plus every node reachable from it (breadth-first)."""
    if signal not in graph:
        return frozenset()
    seen = {signal}
    queue = deque([signal])
    while queue:
        for successor in graph[queue.popleft()]:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return frozenset(seen)


def cone_of_influence(design: Design, signal: str) -> frozenset[str]:
    """All signals transitively affected by ``signal`` (inclusive)."""
    return _reachable(dependency_graph(design), signal)


def fan_in_cone(design: Design, signal: str) -> frozenset[str]:
    """All signals that can transitively affect ``signal`` (inclusive)."""
    graph = dependency_graph(design)
    reverse: dict[str, set[str]] = {name: set() for name in graph}
    for source, targets in graph.items():
        for target in targets:
            reverse[target].add(source)
    return _reachable(reverse, signal)


def outputs_in_cone(design: Design, signal: str) -> frozenset[str]:
    """Top-level outputs that ``signal`` can influence."""
    cone = cone_of_influence(design, signal)
    return frozenset(name for name in design.outputs if name in cone)
