"""Tensor networks as undirected weighted graphs.

A tensor network is modeled as a connected undirected graph. Each node is a
tensor; an edge between two tensors carries the dimension of the leg they
share (parallel legs between the same pair must be pre-merged by taking the
product of their dimensions). Legs not shared with any other tensor are
folded into a per-node ``open_mult``, the product of their dimensions, so
the size of a tensor is ``open_mult`` times the product of its incident
edge sizes.

All dimensions are arbitrary-precision integers; nothing in this package
ever rounds a size or a cost.
"""

from __future__ import annotations

import json
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


def _check_positive_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{what} must be >= 1, got {value}")
    return value


def _check_node_id(value: Any) -> NodeId:
    if type(value) is not int and type(value) is not str:
        raise ValidationError(f"node id must be an integer or string, got {value!r}")
    return value


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
    non-positive sizes, unknown endpoints, or a disconnected graph.
    """

    __slots__ = ("nodes", "edges", "open_mult", "adjacency", "_tensor_size")

    def __init__(
        self,
        nodes: Mapping[NodeId, int] | Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId, int]],
    ) -> None:
        if isinstance(nodes, Mapping):
            node_items = [(v, open_mult) for v, open_mult in nodes.items()]
        else:
            node_items = [(v, 1) for v in nodes]
        if not node_items:
            raise ValidationError("network must contain at least one node")

        open_mult: dict[NodeId, int] = {}
        for v, mult in node_items:
            _check_node_id(v)
            if v in open_mult:
                raise ValidationError(f"duplicate node id {v!r}")
            open_mult[v] = _check_positive_int(mult, f"open_mult of node {v!r}")

        adjacency: dict[NodeId, dict[NodeId, int]] = {v: {} for v in open_mult}
        edge_list: list[tuple[NodeId, NodeId, int]] = []
        for u, v, size in edges:
            for endpoint in (u, v):
                try:
                    known = endpoint in adjacency
                except TypeError:  # unhashable, such as a JSON list
                    known = False
                if not known:
                    raise ValidationError(f"edge references unknown node id {endpoint!r}")
            if u == v:
                raise ValidationError(f"self-loop at node {u!r}")
            if v in adjacency[u]:
                raise ValidationError(f"duplicate edge between {u!r} and {v!r}")
            size = _check_positive_int(size, f"size of edge {u!r}-{v!r}")
            adjacency[u][v] = size
            adjacency[v][u] = size
            edge_list.append((u, v, size))

        self.nodes: tuple[NodeId, ...] = tuple(open_mult)
        self.edges: tuple[tuple[NodeId, NodeId, int], ...] = tuple(edge_list)
        self.open_mult: dict[NodeId, int] = open_mult
        self.adjacency: dict[NodeId, dict[NodeId, int]] = adjacency
        self._tensor_size: dict[NodeId, int] = {}

        self._check_connected()

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
                f"network is disconnected: node {missing!r} is not reachable "
                f"from node {self.nodes[0]!r}"
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

    def tensor_size(self, v: NodeId) -> int:
        """Full size of the single tensor ``v``: open legs times shared legs."""
        size = self._tensor_size.get(v)
        if size is None:
            if v not in self.open_mult:
                raise ValidationError(f"unknown node id {v!r}")
            size = self.open_mult[v]
            for edge in self.adjacency[v].values():
                size *= edge
            self._tensor_size[v] = size
        return size

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
    a diagnostic naming the offending element on any violation.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
        if not isinstance(record, dict) or "id" not in record:
            raise ValidationError(f"nodes[{i}] is malformed: {record!r}")
        v = _check_node_id(record["id"])
        if v in nodes:
            raise ValidationError(f"duplicate node id {v!r}")
        nodes[v] = record.get("open", 1)

    edges = []
    for i, record in enumerate(obj["edges"]):
        if not isinstance(record, dict) or not {"u", "v", "size"} <= record.keys():
            raise ValidationError(f"edges[{i}] is malformed: {record!r}")
        edges.append((record["u"], record["v"], record["size"]))

    return TensorNetwork(nodes, edges)
