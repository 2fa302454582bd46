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
from operator import itemgetter, methodcaller
from typing import Any, Iterable, Iterator, Mapping, NoReturn, Union

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


_ID_TYPES = frozenset((int, str))
_INT_TYPE = frozenset((int,))
_get_id = itemgetter("id")
_get_open = methodcaller("get", "open", 1)
_get_edge = itemgetter("u", "v", "size")


def _bulk_build(
    ids: list, mults: list, edges: list[tuple]
) -> tuple[dict[NodeId, int], dict[NodeId, dict[NodeId, int]]] | None:
    """``open_mult`` and the adjacency, or None when any node or edge breaks
    a rule (see ``TensorNetwork``)."""
    if not (
        set(map(type, ids)) <= _ID_TYPES
        and set(map(type, mults)) <= _INT_TYPE
        and min(mults) >= 1
    ):
        return None
    open_mult = dict(zip(ids, mults))
    if len(open_mult) != len(ids):
        return None
    adjacency: dict[NodeId, dict[NodeId, int]] = {v: {} for v in open_mult}
    if not edges:
        return open_mult, adjacency
    if set(map(len, edges)) != {3}:
        return None
    us, vs, sizes = zip(*edges)
    if not (
        set(map(type, us)) | set(map(type, vs)) <= _ID_TYPES
        and set(map(type, sizes)) <= _INT_TYPE
        and min(sizes) >= 1
    ):
        return None
    try:
        for u, v, size in edges:
            adjacency[u][v] = size
            adjacency[v][u] = size
    except KeyError:  # an endpoint that is no node
        return None
    # each edge adds two entries, unless it is a self-loop or its pair repeats
    if sum(map(len, adjacency.values())) != 2 * len(edges):
        return None
    return open_mult, adjacency


def _diagnose(ids: list, mults: list, edges: list[tuple]) -> NoReturn:
    """Per-item checks in input order: raise the first fault's message."""
    open_mult: dict[NodeId, int] = {}
    for v, mult in zip(ids, mults):
        _check_node_id(v)
        if v in open_mult:
            raise ValidationError(f"duplicate node id {v!r}")
        open_mult[v] = _check_positive_int(mult, f"open_mult of node {v!r}")
    adjacency: dict[NodeId, set[NodeId]] = {v: set() for v in open_mult}
    for u, v, size in edges:
        for endpoint in (u, v):
            # exact types first: True == 1, and a list is unhashable
            if type(endpoint) not in _ID_TYPES or endpoint not in adjacency:
                raise ValidationError(f"edge references unknown node id {endpoint!r}")
        if u == v:
            raise ValidationError(f"self-loop at node {u!r}")
        if v in adjacency[u]:
            raise ValidationError(f"duplicate edge between {u!r} and {v!r}")
        _check_positive_int(size, f"size of edge {u!r}-{v!r}")
        adjacency[u].add(v)
        adjacency[v].add(u)
    raise AssertionError("bulk validation rejected a network with no fault")


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

    Validation runs in bulk: C-level passes over whole columns check id
    and size types and the least size, and building the adjacency exposes
    unknown endpoints (a missing key), self-loops and duplicate edges (a
    degree sum short of twice the edge count). Only when a bulk check
    fails do the per-item checks run, to name the first fault in input
    order.
    """

    __slots__ = ("nodes", "edges", "open_mult", "adjacency", "_tensor_size")

    def __init__(
        self,
        nodes: Mapping[NodeId, int] | Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId, int]],
    ) -> None:
        if isinstance(nodes, Mapping):
            ids, mults = list(nodes), list(nodes.values())
        else:
            ids = list(nodes)
            mults = [1] * len(ids)
        if not ids:
            raise ValidationError("network must contain at least one node")
        edge_list = list(map(tuple, edges))

        built = _bulk_build(ids, mults, edge_list)
        if built is None:
            _diagnose(ids, mults, edge_list)
        open_mult, adjacency = built

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
    a diagnostic naming the offending element on any violation. Records
    are read in bulk; a record that is not an object with the keys it
    needs is named by its index, with its text cut to 200 characters.
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

    node_records, edge_records = obj["nodes"], obj["edges"]
    ids = _column(node_records, _get_id)
    edges = _column(edge_records, _get_edge)
    if ids is None or edges is None or not set(map(type, ids)) <= _ID_TYPES:
        _diagnose_records(node_records, edge_records)
    nodes = dict(zip(ids, map(_get_open, node_records)))
    if len(nodes) != len(ids):
        _diagnose_records(node_records, edge_records)
    return TensorNetwork(nodes, edges)


def _column(records: list, getter) -> list | None:
    """``getter`` applied to every record, or None unless every record is
    an object holding the keys it reads."""
    if not set(map(type, records)) <= {dict}:
        return None
    try:
        return list(map(getter, records))
    except KeyError:
        return None


def _diagnose_records(node_records: list, edge_records: list) -> NoReturn:
    """Per-record checks in file order: raise the first fault's message."""
    seen: set[NodeId] = set()
    for i, record in enumerate(node_records):
        if not isinstance(record, dict) or "id" not in record:
            raise ValidationError(f"nodes[{i}] is malformed: {record!r:.200}")
        v = _check_node_id(record["id"])
        if v in seen:
            raise ValidationError(f"duplicate node id {v!r}")
        seen.add(v)
    for i, record in enumerate(edge_records):
        if not isinstance(record, dict) or not {"u", "v", "size"} <= record.keys():
            raise ValidationError(f"edges[{i}] is malformed: {record!r:.200}")
    raise AssertionError("bulk validation rejected records with no fault")
