"""Tensor networks as undirected weighted graphs.

A tensor network is modeled as a connected undirected graph. Each node is a
tensor; an edge between two tensors carries the dimension of the leg they
share (parallel legs between the same pair must be pre-merged by taking the
product of their dimensions). Legs not shared with any other tensor are
folded into a per-node ``open_mult``, the product of their dimensions, so
the size of a tensor is ``open_mult`` times the product of its incident
edge sizes. The network computes every tensor's size once, into its
``sizes`` table; the precedence graph, both pricers and the DPs read that
table, and this module is the only one that writes the rule out.

All dimensions are arbitrary-precision integers; nothing in this package
ever rounds a size or a cost.
"""

from __future__ import annotations

import json
from itertools import repeat
from math import prod
from typing import Any, Iterable, Iterator, Mapping, Union

NodeId = Union[int, str]

__all__ = [
    "NodeId",
    "SizeBoundError",
    "TensorNetwork",
    "ValidationError",
    "id_key",
    "parse_network",
]


class ValidationError(ValueError):
    """A network, plan, or CLI input failed structural validation."""


class SizeBoundError(ValueError):
    """The network exceeds a solver's hard size bound."""


def id_key(node_id: NodeId) -> tuple[int, int, str]:
    """Sort key giving a total order over mixed integer and string ids.

    Integers order before strings; within a kind, natural order. Used for
    every deterministic tie-break in the package.
    """
    if type(node_id) is int:
        return (0, node_id, "")
    return (1, 0, node_id)


_ECHO_INT_BOUND = 10**200


def _echo(value: Any) -> str:
    """``value`` as an error message shows it: its repr cut to 200
    characters, so a huge value cannot flood stderr. An integer past 200
    digits is named by its digit count instead, since Python refuses to
    write one past 4,300 digits as text, and a value nested past the
    recursion limit by its type."""
    if type(value) is not int or -_ECHO_INT_BOUND < value < _ECHO_INT_BOUND:
        try:
            return f"{value!r:.200}"
        except RecursionError:  # a plan read past json.loads' depth limit
            return f"<{type(value).__name__} nested too deeply to show>"
    size = abs(value)
    # (bit_length - 1) * log10(2) never exceeds the digit count
    digits = int((size.bit_length() - 1) * 0.30102999566398120)
    while size >= 10**digits:
        digits += 1
    sign = "negative " if value < 0 else ""
    return f"<{sign}integer of {digits} digits>"


def _check_positive_int(value: Any, what: str) -> None:
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {_echo(value)}")
    if value < 1:
        raise ValidationError(f"{what} must be >= 1, got {_echo(value)}")


_ID_TYPES = frozenset((int, str))


class TensorNetwork:
    """A validated, immutable tensor network.

    Parameters
    ----------
    nodes:
        Either a mapping from node id to ``open_mult``, or an iterable of
        node ids (all ``open_mult`` 1). Iteration order fixes the canonical
        node order used for serialization and subset bitmasks.
    edges:
        Iterable of ``(u, v, size)`` triples, one per shared leg.

    Raises ``ValidationError`` with a message naming the offending element
    for any structural problem: duplicate ids, self-loops, duplicate edges,
    non-positive sizes, unknown endpoints, or a disconnected graph. Every
    echoed id or value is cut to 200 characters, and an integer past 200
    digits is echoed as its digit count.

    One loop over the nodes, then one over the edges, checks each item
    once, in input order, and raises the first fault's message: a node's
    id type, then a repeated id, then its ``open_mult``; an edge's shape,
    its endpoints, a self-loop, a repeated pair, then its size.
    Connectivity is checked last.

    A valid network then fills ``sizes``, mapping each node id to its full
    tensor size (``open_mult`` times its incident edge sizes). The table is
    shared with every reader, so it is not to be changed.
    """

    __slots__ = ("nodes", "edges", "open_mult", "adjacency", "sizes")

    def __init__(
        self,
        nodes: Mapping[NodeId, int] | Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId, int]],
    ) -> None:
        items = nodes.items() if isinstance(nodes, Mapping) else zip(nodes, repeat(1))
        open_mult: dict[NodeId, int] = {}
        adjacency: dict[NodeId, dict[NodeId, int]] = {}
        for v, mult in items:
            if type(v) not in _ID_TYPES:
                raise ValidationError(
                    f"node id must be an integer or string, got {_echo(v)}"
                )
            if v in open_mult:
                raise ValidationError(f"duplicate node id {_echo(v)}")
            if type(mult) is not int or mult < 1:
                _check_positive_int(mult, f"open_mult of node {_echo(v)}")
            open_mult[v] = mult
            adjacency[v] = {}
        if not open_mult:
            raise ValidationError("network must contain at least one node")

        edge_list = list(map(tuple, edges))
        for edge in edge_list:
            try:
                u, v, size = edge
            except ValueError:
                raise ValidationError(
                    f"edge must be a (u, v, size) triple, got {_echo(edge)}"
                ) from None
            # exact types first: True == 1, and a list is unhashable
            adj_u = adjacency.get(u) if type(u) in _ID_TYPES else None
            if adj_u is None:
                raise ValidationError(f"edge references unknown node id {_echo(u)}")
            adj_v = adjacency.get(v) if type(v) in _ID_TYPES else None
            if adj_v is None:
                raise ValidationError(f"edge references unknown node id {_echo(v)}")
            if u == v:
                raise ValidationError(f"self-loop at node {_echo(u)}")
            if v in adj_u:
                raise ValidationError(f"duplicate edge between {_echo(u)} and {_echo(v)}")
            if type(size) is not int or size < 1:
                _check_positive_int(size, f"size of edge {_echo(u)}-{_echo(v)}")
            adj_u[v] = size
            adj_v[u] = size

        self.nodes: tuple[NodeId, ...] = tuple(open_mult)
        self.edges: tuple[tuple[NodeId, NodeId, int], ...] = tuple(edge_list)
        self.open_mult: dict[NodeId, int] = open_mult
        self.adjacency: dict[NodeId, dict[NodeId, int]] = adjacency

        self._check_connected()
        self.sizes: dict[NodeId, int] = {
            v: prod(adj.values(), start=open_mult[v]) for v, adj in adjacency.items()
        }

    def _check_connected(self) -> None:
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(self.nodes):
            missing = next(v for v in self.nodes if v not in seen)
            raise ValidationError(
                f"network is disconnected: node {_echo(missing)} is not reachable "
                f"from node {_echo(self.nodes[0])}"
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __repr__(self) -> str:
        return f"TensorNetwork({len(self.nodes)} nodes, {len(self.edges)} edges)"

    @property
    def is_tree(self) -> bool:
        # connected is an invariant, so the edge count alone decides
        return len(self.edges) == len(self.nodes) - 1

    def to_json(self) -> str:
        """Canonical single-line JSON, stable across runs for equal networks."""
        obj = {
            "nodes": [{"id": v, "open": self.open_mult[v]} for v in self.nodes],
            "edges": [{"u": u, "v": v, "size": s} for u, v, s in self.edges],
        }
        return json.dumps(obj)


def parse_network(text: str) -> TensorNetwork:
    """Parse and validate the JSON network format.

    Expected shape::

        {"nodes": [{"id": "T1", "open": 1}, ...],
         "edges": [{"u": "T1", "v": "T2", "size": 1}, ...]}

    ``open`` is optional and defaults to 1. Raises ``ValidationError`` with
    a diagnostic naming the offending element on any violation. One loop
    reads the node records in file order, checking each one's shape, id
    type and uniqueness; a second reads the edge records' shapes. A record
    that is not an object with the keys it needs is named by its index,
    with its text cut to 200 characters. ``TensorNetwork`` then checks the
    ``open`` values, the edges and connectivity.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise ValidationError(f"network is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("network is nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValidationError("network file must contain a JSON object")
    for key in ("nodes", "edges"):
        if key not in obj:
            raise ValidationError(f"network object is missing the {key!r} list")
        if not isinstance(obj[key], list):
            raise ValidationError(f"network {key!r} must be a list")

    nodes: dict[NodeId, int] = {}
    for i, record in enumerate(obj["nodes"]):
        try:
            v = record["id"]
        except (KeyError, TypeError):
            raise ValidationError(f"nodes[{i}] is malformed: {_echo(record)}") from None
        if type(v) not in _ID_TYPES:
            raise ValidationError(
                f"node id must be an integer or string, got {_echo(v)}"
            )
        if v in nodes:
            raise ValidationError(f"duplicate node id {_echo(v)}")
        nodes[v] = record.get("open", 1)
    edges: list[tuple] = []
    for i, record in enumerate(obj["edges"]):
        try:
            edges.append((record["u"], record["v"], record["size"]))
        except (KeyError, TypeError):
            raise ValidationError(f"edges[{i}] is malformed: {_echo(record)}") from None
    return TensorNetwork(nodes, edges)
