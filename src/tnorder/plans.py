"""Contraction plans: linear orders and general contraction trees.

A linear plan is a permutation of the node ids, contracted left to right
into one growing tensor. A tree plan is a full binary tree (nested pairs)
whose leaves are the node ids, each exactly once; every internal node is
one pairwise contraction.

File format::

    {"type": "linear", "order": ["T4", "T3", ...]}
    {"type": "tree", "root": [["T4", "T3"], ["T2", ["T5", "T1"]]]}

A tree plan may nest as deeply as it has leaves (a left-deep plan of n
leaves nests n - 1 levels), and both directions work at any depth:
``TreePlan.to_json`` writes without recursion, and ``parse_plan`` reads
through ``json.loads`` unless that gives out on the depth, about 1,000
levels, and then through ``_read_deep``, which builds the same objects
with an explicit stack.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple, Union

from .network import _ID_TYPES, NodeId, TensorNetwork, ValidationError, _echo

TreeNode = Union[NodeId, tuple]

__all__ = [
    "ContractionPlan",
    "LinearPlan",
    "TreeNode",
    "TreePlan",
    "parse_plan",
    "tree_leaves",
    "validate_plan",
]


# Plans are NamedTuples, like SequenceEntry, because importing dataclasses
# (and with it inspect, ast, ...) would cost every CLI call. A plan equals
# only a plan of its own type, never the other plan type or a plain tuple
# of the same items.
def _plan_eq(self, other) -> bool:
    return type(other) is type(self) and _tokens(self) == _tokens(other)


def _plan_ne(self, other) -> bool:
    return not _plan_eq(self, other)


def _plan_hash(self) -> int:
    return hash(tuple(_tokens(self)))


_TUPLE = object()  # token: a tuple follows, its length, then its items


def _tokens(plan) -> list:
    """The plan in preorder as one flat list: a tuple as _TUPLE, its
    length, then its items; a leaf as itself. Two lists are equal exactly
    when the nested tuples are (leaves compared with ==), and building
    one needs no recursion, where tuple equality and hashing recurse
    once per tree level."""
    out = []
    stack = [tuple(plan)]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            out += (_TUPLE, len(item))
            stack += item[::-1]
        else:
            out.append(item)
    return out


class LinearPlan(NamedTuple):
    order: tuple[NodeId, ...]

    __eq__, __ne__, __hash__ = _plan_eq, _plan_ne, _plan_hash

    def to_json(self) -> str:
        return json.dumps({"type": "linear", "order": list(self.order)})


# stack markers for TreePlan.to_json and __repr__: close a list or tuple,
# close a one-item tuple, separate two items
_CLOSE, _CLOSE_ONE, _COMMA = object(), object(), object()


class TreePlan(NamedTuple):
    root: TreeNode

    __eq__, __ne__, __hash__ = _plan_eq, _plan_ne, _plan_hash

    def to_json(self) -> str:
        """``json.dumps({"type": "tree", "root": self.root})``, written
        without recursion over pairs: json.dumps recurses once per tree
        level. Anything else in the tree is written by json.dumps."""
        parts = ['{"type": "tree", "root": ']
        stack = [self.root]
        while stack:
            item = stack.pop()
            if type(item) is tuple and len(item) == 2:
                parts.append("[")
                stack += (_CLOSE, item[1], _COMMA, item[0])
            elif item is _COMMA:
                parts.append(", ")
            elif item is _CLOSE:
                parts.append("]")
            else:
                parts.append(json.dumps(item))
        parts.append("}")
        return "".join(parts)

    def __repr__(self) -> str:
        """The NamedTuple repr, ``TreePlan(root=(('a', 'b'), 'c'))``,
        written without recursion over tuples: tuple.__repr__ recurses
        once per tree level. Anything else in the tree is written by
        repr."""
        parts = ["TreePlan(root="]
        stack = [self.root]
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                parts.append("(")
                stack.append(_CLOSE_ONE if len(item) == 1 else _CLOSE)
                for later in item[:0:-1]:
                    stack += (later, _COMMA)
                stack += item[:1]
            elif item is _COMMA:
                parts.append(", ")
            elif item is _CLOSE:
                parts.append(")")
            elif item is _CLOSE_ONE:
                parts.append(",)")
            else:
                parts.append(repr(item))
        parts.append(")")
        return "".join(parts)


ContractionPlan = Union[LinearPlan, TreePlan]


def tree_leaves(node: TreeNode) -> tuple[NodeId, ...]:
    """Leaves of a nested-pair tree, left to right. Validates the shape:
    every internal node a pair, every leaf an id."""
    out: list[NodeId] = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            if len(item) != 2:
                raise ValidationError(
                    f"tree node must be a pair, got {len(item)} children"
                )
            stack.append(item[1])
            stack.append(item[0])
        elif type(item) is int or type(item) is str:
            out.append(item)
        else:
            raise ValidationError(f"tree leaf must be a node id, got {_echo(item)}")
    return tuple(out)


_PAIR = object()  # stack marker: pair the last two finished subtrees


def _tree_from_obj(obj) -> TreeNode:
    """Nested JSON pairs as nested tuples, without recursion. Faults are
    found in the order of a left-first recursive descent."""
    done: list[TreeNode] = []  # finished subtrees, each a left operand
    stack: list = []  # right children still to convert, and _PAIR markers
    item = obj
    while True:
        while type(item) is list:  # down the left spine
            if len(item) != 2:
                raise ValidationError(f"tree node must be a pair, got {_echo(item)}")
            item, right = item
            stack.append(right)
        if type(item) is not int and type(item) is not str:
            raise ValidationError(f"tree leaf must be a node id, got {_echo(item)}")
        done.append(item)
        while stack:
            item = stack.pop()
            if type(item) is int or type(item) is str:
                done[-1] = (done[-1], item)
            elif item is _PAIR:
                right = done.pop()
                done[-1] = (done[-1], right)
            elif type(item) is list:
                stack.append(_PAIR)
                break
            else:
                raise ValidationError(f"tree leaf must be a node id, got {_echo(item)}")
        else:
            return done[0]


_SPACE = re.compile(r"[ \t\n\r]*")
# json.loads' own reader of one value; it recurses only into arrays and
# objects, which _read_deep opens itself, so it reads strings, numbers and
# literals exactly as json.loads does
_scan_once = json.JSONDecoder().scan_once
# what _read_deep expects next: a value, a value or "]", a key, a key or
# "}", a colon, a comma or a close
_VALUE, _FIRST, _KEY, _FIRST_KEY, _COLON, _NEXT = range(6)


def _read_deep(text: str):
    """``json.loads(text)`` without recursion, for text nested too deeply
    for it: the same objects, built with an explicit stack of the open
    arrays and objects. Raises ``ValidationError`` on malformed text."""
    stack: list = []  # open arrays and objects, innermost last
    top = key = None  # key: the one read last, until its value comes
    pos, expect = 0, _VALUE
    try:
        while True:
            pos = _SPACE.match(text, pos).end()
            char = text[pos : pos + 1]
            if not char:
                if expect == _NEXT and not stack:
                    return top
                break
            if char == "]" or char == "}":  # after a value, or right after opening
                if expect not in (_NEXT, _FIRST, _FIRST_KEY) or not stack:
                    break
                if (char == "]") != (type(stack.pop()) is list):
                    break
                pos, expect = pos + 1, _NEXT
            elif expect == _NEXT:
                if char != "," or not stack:
                    break
                pos, expect = pos + 1, _VALUE if type(stack[-1]) is list else _KEY
            elif expect == _COLON:
                if char != ":":
                    break
                pos, expect = pos + 1, _VALUE
            elif expect == _KEY or expect == _FIRST_KEY:
                if char != '"':
                    break
                key, pos = _scan_once(text, pos)
                expect = _COLON
            else:  # a value: open an array or object, or read a scalar
                if char == "[" or char == "{":
                    value, pos = ([] if char == "[" else {}), pos + 1
                else:
                    value, pos = _scan_once(text, pos)
                if not stack:
                    top = value
                elif type(stack[-1]) is list:
                    stack[-1].append(value)
                else:
                    stack[-1][key] = value
                if type(value) is list or type(value) is dict:
                    stack.append(value)
                    expect = _FIRST if type(value) is list else _FIRST_KEY
                else:
                    expect = _NEXT
    except StopIteration:  # no value where one must be
        pass
    except ValueError as exc:  # a bad string, or an int past the digit limit
        raise ValidationError(f"plan is not valid JSON: {exc}") from None
    raise ValidationError(f"plan is not valid JSON: unexpected text at char {pos}")


def parse_plan(text: str) -> ContractionPlan:
    """Parse a plan file; raises ``ValidationError`` on malformed input."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise ValidationError(f"plan is not valid JSON: {exc}") from None
    except RecursionError:
        obj = _read_deep(text)
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("plan file must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "linear":
        order = obj.get("order")
        if not isinstance(order, list):
            raise ValidationError("linear plan must have an 'order' list")
        if not set(map(type, order)) <= _ID_TYPES:
            bad = next(v for v in order if type(v) not in _ID_TYPES)
            raise ValidationError(
                f"plan node id must be an integer or string, got {_echo(bad)}"
            )
        return LinearPlan(tuple(order))
    if kind == "tree":
        if "root" not in obj:
            raise ValidationError("tree plan must have a 'root' field")
        return TreePlan(_tree_from_obj(obj["root"]))
    raise ValidationError(f"unknown plan type {_echo(kind)}")


def validate_plan(net: TensorNetwork, plan: ContractionPlan) -> None:
    """Check that the plan covers every network node exactly once."""
    if isinstance(plan, LinearPlan):
        seq = plan.order
    elif isinstance(plan, TreePlan):
        seq = tree_leaves(plan.root)
    else:
        raise ValidationError(f"not a contraction plan: {_echo(plan)}")
    seen: set[NodeId] = set()
    for v in seq:
        # exact types first: True == 1, and a list is unhashable
        if type(v) not in _ID_TYPES or v not in net.open_mult:
            raise ValidationError(f"plan references unknown node id {_echo(v)}")
        if v in seen:
            raise ValidationError(f"plan lists node {_echo(v)} more than once")
        seen.add(v)
    if len(seen) != len(net.nodes):
        missing = next(v for v in net.nodes if v not in seen)
        raise ValidationError(f"plan is missing node {_echo(missing)}")
