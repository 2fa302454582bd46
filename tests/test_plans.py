import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tnorder import LinearPlan, TreePlan, ValidationError, parse_plan
from tnorder.plans import _read_deep, _tree_from_obj, tree_leaves, validate_plan


def test_linear_plan_json_round_trip():
    plan = LinearPlan(("T4", "T3", "T2", "T5", "T1"))
    doc = json.loads(plan.to_json())
    assert doc == {"type": "linear", "order": ["T4", "T3", "T2", "T5", "T1"]}
    again = parse_plan(plan.to_json())
    assert again == plan


def test_tree_plan_json_round_trip():
    plan = TreePlan((("A", "B"), ("C", ("D", "E"))))
    assert plan.to_json() == '{"type": "tree", "root": [["A", "B"], ["C", ["D", "E"]]]}'
    again = parse_plan(plan.to_json())
    assert again == plan
    assert isinstance(again, TreePlan)


def _random_tree(rng, leaves):
    # a random full binary tree over leaves, built without recursion
    trees = list(leaves)
    while len(trees) > 1:
        k = rng.randrange(len(trees) - 1)
        trees[k:k + 2] = [(trees[k], trees[k + 1])]
    return trees[0]


def test_tree_plan_json_matches_json_dumps():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 60)
        # large ints, escapes, non-ASCII and astral characters
        pool = [rng.randint(-10**40, 10**40), f"T{n}", 'q"\\\n\t', "\u00e9\u4e2d", "\U0001f600"]
        leaves = [f"{rng.choice(pool)}{i}" if rng.random() < 0.5 else rng.choice(pool)
                  for i in range(n)]
        root = _random_tree(rng, leaves)
        assert TreePlan(root).to_json() == json.dumps({"type": "tree", "root": root})
    for root in (("T\u00df", "T\u2603"), (("T\u2603", 3), ("T\u00df", -7)), (1, 2)):
        assert TreePlan(root).to_json() == json.dumps({"type": "tree", "root": root})
    # what parse_plan never builds is written as json.dumps writes it
    for root in ((), ("a",), ("a", "b", "c"), (["a", ("b", 1)], 2.5), (None, True)):
        assert TreePlan(root).to_json() == json.dumps({"type": "tree", "root": root})


def _deep_trees(n):
    """Left-deep and right-deep pair trees over T0..T{n-1}, with the
    JSON text json.dumps would write for each, built without recursion."""
    ids = [f"T{i}" for i in range(n)]
    left, right = ids[0], ids[-1]
    for v in ids[1:]:
        left = (left, v)
    for v in reversed(ids[:-1]):
        right = (v, right)
    left_text = "[" * (n - 1) + '"T0"' + "".join(f', "{v}"]' for v in ids[1:])
    right_text = "".join(f'["{v}", ' for v in ids[:-1]) + f'"{ids[-1]}"' + "]" * (n - 1)
    return (left, left_text), (right, right_text)


def test_deep_tree_plans_dump_without_recursion():
    # 5,000 levels, far past the recursion limit json.dumps runs into
    for root, text in _deep_trees(5000):
        assert TreePlan(root).to_json() == '{"type": "tree", "root": ' + text + "}"


def test_tree_plan_repr_matches_the_named_tuple_repr():
    # what a NamedTuple writes, on shallow trees and on what parse_plan
    # never builds
    rng = random.Random(12)
    for _ in range(200):
        leaves = [rng.choice([f"T{i}", i, 'q"\\\n', "\u00e9"]) for i in range(rng.randint(1, 30))]
        root = _random_tree(rng, leaves)
        assert repr(TreePlan(root)) == f"TreePlan(root={root!r})"
    for root in ((), ("a",), ("a", "b", "c"), ((("a",), ()), 2.5), (["a", ("b", 1)], None)):
        assert repr(TreePlan(root)) == f"TreePlan(root={root!r})"
    assert repr(TreePlan((("a", "b"), "c"))) == "TreePlan(root=(('a', 'b'), 'c'))"


def test_deep_tree_plans_repr_without_recursion():
    # 5,000 levels: tuple.__repr__ recurses once per level and raises
    # RecursionError past about 1,000
    for root, text in _deep_trees(5000):
        assert repr(TreePlan(root)) == "TreePlan(root=" + text.replace('"', "'").replace(
            "[", "(").replace("]", ")") + ")"


def test_deep_tree_plans_round_trip_within_the_parser_limit():
    # within json.loads' own depth limit, parse_plan reads through it;
    # deeper plans go to _read_deep (see
    # test_parse_plan_reads_trees_nested_past_the_recursion_limit)
    for root, _text in _deep_trees(500):
        plan = TreePlan(root)
        assert parse_plan(plan.to_json()) == plan


def test_parse_plan_rejects_unknown_type():
    with pytest.raises(ValidationError, match="type"):
        parse_plan('{"type": "bushy", "order": []}')


def test_parse_plan_rejects_bad_tree_arity():
    with pytest.raises(ValidationError):
        parse_plan('{"type": "tree", "root": [["a", "b", "c"], "d"]}')


def test_parse_plan_reads_trees_nested_past_the_recursion_limit():
    # json.loads recurses and gives out near the limit; past it the plan
    # is read by _read_deep, into the same plan
    limit = sys.getrecursionlimit()
    for depth in (*range(limit - 200, limit + 50, 10), 5000):
        text = '{"type": "tree", "root": ' + "[" * depth + '"L"'
        text += ', "R"]' * depth + "}"
        plan = parse_plan(text)
        assert plan.to_json() == text
        assert tree_leaves(plan.root) == ("L",) + ("R",) * depth
    for root, text in _deep_trees(5000):
        dump = TreePlan(root).to_json()
        assert parse_plan(dump) == TreePlan(root)
        assert parse_plan(dump).to_json() == dump
        spaced = '\n{"root":' + text.replace(", ", " ,\t") + ' , "type" : "tree"}\n'
        assert parse_plan(spaced).to_json() == dump


def test_deep_tree_plans_compare_and_hash_without_recursion():
    # 5,000 levels: equal plans built apart, and plans that differ only
    # at their deepest leaf
    for root, _text in _deep_trees(5000):
        twin = parse_plan(TreePlan(root).to_json())
        assert twin == TreePlan(root) and not twin != TreePlan(root)
        assert hash(twin) == hash(TreePlan(root))
    left, right = ("T0", "T1"), ("T0", "T1")
    for v in range(2, 5000):
        left, right = (left, v), (right, v)
    assert TreePlan(left) == TreePlan(right)
    right = ("X", "T1")
    for v in range(2, 5000):
        right = (right, v)
    assert TreePlan(left) != TreePlan(right)
    assert not TreePlan(left) == TreePlan(right)
    assert TreePlan(left) != LinearPlan(left) and TreePlan(left) != (left,)


def test_a_million_level_tree_plan_compares_and_hashes():
    # in a child process: the C tuple hash recursed once per level and
    # crashed the interpreter at this depth
    script = """
from tnorder import TreePlan
node = "L"
for v in range(10**6):
    node = (node, v)
plan, twin = TreePlan(node), TreePlan(node)
assert plan == twin and hash(plan) == hash(twin)
assert plan != TreePlan(("R", node))
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_parse_plan_rejects_malformed_deep_text():
    deep = "[" * 3000 + '"L"' + ', "R"]' * 3000
    faults = {
        "truncated": '{"type": "tree", "root": ' + deep[:-1] + "}",
        "a triple": '{"type": "tree", "root": ' + deep.replace('"L"', '"L", "M", "N"') + "}",
        "a float leaf": '{"type": "tree", "root": ' + deep.replace('"L"', "2.5") + "}",
        "a bad escape": '{"type": "tree", "root": ' + deep.replace('"L"', '"\\q"') + "}",
        "trailing text": '{"type": "tree", "root": ' + deep + "} x",
        "a missing comma": '{"type": "tree", "root": ' + deep.replace(', "R"]', ' "R"]', 1) + "}",
        "a linear plan": '{"type": "linear", "order": ' + deep + "}",
    }
    for fault, text in faults.items():
        with pytest.raises(ValidationError) as exc:
            parse_plan(text)
        assert len(str(exc.value)) < 300, fault


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES, st.sampled_from([None, 0, 2]), st.data())
def test_deep_reader_reads_what_json_loads_reads(value, indent, data):
    # the fallback reader against the fast path on shallow text: the same
    # objects for valid JSON, and ValidationError exactly where json.loads
    # raises, also on text cut short or with one character changed
    text = json.dumps(value, indent=indent, ensure_ascii=data.draw(st.booleans()))
    assert _read_deep(text) == json.loads(text)
    cut = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from('[]{},:"0-.e tn\\x'))
    for mutated in (text[:cut], text[:cut] + char + text[cut + 1 :]):
        try:
            expected = json.loads(mutated)
        except ValueError:
            with pytest.raises(ValidationError):
                _read_deep(mutated)
        else:
            assert _read_deep(mutated) == expected


def test_tree_conversion_has_no_depth_limit():
    # 5000 levels each way, built here rather than by json.loads
    left, right = "L0", "R0"
    for i in range(1, 5000):
        left, right = [left, f"L{i}"], [f"R{i}", right]
    converted = _tree_from_obj([left, right])
    assert tree_leaves(converted[0])[:3] == ("L0", "L1", "L2")
    assert tree_leaves(converted[1])[-3:] == ("R2", "R1", "R0")


def _recursive_tree_from_obj(obj):
    if isinstance(obj, list):
        if len(obj) != 2:
            raise ValidationError(f"tree node must be a pair, got {obj!r:.200}")
        return (_recursive_tree_from_obj(obj[0]), _recursive_tree_from_obj(obj[1]))
    if type(obj) is int or type(obj) is str:
        return obj
    raise ValidationError(f"tree leaf must be a node id, got {obj!r:.200}")


def _outcome(convert, obj):
    try:
        return convert(obj)
    except ValidationError as exc:
        return str(exc)


def test_tree_conversion_reports_faults_in_left_first_order():
    rng = random.Random(11)
    leaves = ["a", 7, 2.5, None, True, [], [1], [1, 2, 3], ["x", "y"], ["x", 2.5]]

    def draw(depth):
        if depth > 5 or rng.random() < 0.3:
            return rng.choice(leaves)
        return [draw(depth + 1) for _ in range(rng.choice((2, 2, 2, 2, 1, 3)))]

    for _ in range(3000):
        obj = draw(0)
        assert _outcome(_tree_from_obj, obj) == _outcome(_recursive_tree_from_obj, obj)


def test_tree_leaves_in_left_to_right_order():
    assert tree_leaves((("A", ("B", "C")), "D")) == ("A", "B", "C", "D")
    assert tree_leaves("solo") == ("solo",)


def test_tree_leaves_rejects_non_pair():
    with pytest.raises(ValidationError):
        tree_leaves(("a",))
    with pytest.raises(ValidationError):
        tree_leaves((("a", "b"), 2.5))


HUGE = list(range(200_000))  # its repr is about 1.49 MB


@pytest.mark.parametrize("doc, start", [
    ({"type": "tree", "root": [HUGE, "a"]}, "tree node must be a pair, got [0, 1, 2,"),
    ({"type": "tree", "root": ["a", [HUGE, "b"]]},
     "tree node must be a pair, got [0, 1, 2,"),
    ({"type": "tree", "root": [{"big": HUGE}, "a"]},
     "tree leaf must be a node id, got {'big': [0, 1, 2,"),
    ({"type": "tree", "root": ["a", {"big": HUGE}]},
     "tree leaf must be a node id, got {'big': [0, 1, 2,"),
    ({"type": "linear", "order": ["a", HUGE]},
     "plan node id must be an integer or string, got [0, 1, 2,"),
    ({"type": HUGE}, "unknown plan type [0, 1, 2,"),
])
def test_parse_plan_cuts_a_huge_echoed_value(doc, start):
    with pytest.raises(ValidationError) as exc:
        parse_plan(json.dumps(doc))
    message = str(exc.value)
    assert message.startswith(start)
    assert len(message) < 300


def test_plan_checks_cut_a_huge_echoed_value(five_tensor_net):
    with pytest.raises(ValidationError) as exc:
        tree_leaves(("a", frozenset(HUGE)))
    assert str(exc.value).startswith("tree leaf must be a node id, got frozenset(")
    assert len(str(exc.value)) < 300
    with pytest.raises(ValidationError) as exc:
        validate_plan(five_tensor_net, LinearPlan(("T1", "x" * 200_000)))
    assert str(exc.value).startswith("plan references unknown node id 'xxx")
    assert len(str(exc.value)) < 300


def test_validate_plan_accepts_exact_cover(five_tensor_net):
    validate_plan(five_tensor_net, LinearPlan(("T1", "T2", "T3", "T4", "T5")))
    validate_plan(five_tensor_net, TreePlan((("T1", "T2"), (("T3", "T4"), "T5"))))


def test_validate_plan_missing_node(five_tensor_net):
    with pytest.raises(ValidationError, match="T5"):
        validate_plan(five_tensor_net, LinearPlan(("T1", "T2", "T3", "T4")))


def test_validate_plan_duplicate_node(five_tensor_net):
    with pytest.raises(ValidationError, match="more than once"):
        validate_plan(
            five_tensor_net, LinearPlan(("T1", "T2", "T3", "T4", "T4"))
        )


def test_validate_plan_unknown_node(five_tensor_net):
    with pytest.raises(ValidationError, match="T9"):
        validate_plan(
            five_tensor_net, LinearPlan(("T1", "T2", "T3", "T4", "T9"))
        )


def test_plans_are_immutable():
    plan = LinearPlan(("a", "b"))
    with pytest.raises(AttributeError):
        plan.order = ("b", "a")


def test_plan_types_keep_equality_hashing_and_json_bytes():
    order = ("T4", "T3", 7)
    linear, tree = LinearPlan(order), TreePlan((("T4", "T3"), 7))
    assert linear == LinearPlan(tuple(order)) and not linear != LinearPlan(order)
    assert hash(linear) == hash(LinearPlan(order))
    assert hash(tree) == hash(TreePlan((("T4", "T3"), 7)))
    # a plan equals only a plan of its own type
    assert LinearPlan(("a", "b")) != TreePlan(("a", "b"))
    assert LinearPlan(order) != (order,) and (order,) != LinearPlan(order)
    assert len({LinearPlan(("a", "b")), TreePlan(("a", "b"))}) == 2
    for plan, field in ((linear, "order"), (tree, "root")):
        with pytest.raises(AttributeError):
            setattr(plan, field, ())
        with pytest.raises(AttributeError):
            plan.other = 1
    assert linear.to_json() == '{"type": "linear", "order": ["T4", "T3", 7]}'
    assert tree.to_json() == '{"type": "tree", "root": [["T4", "T3"], 7]}'
    assert repr(linear) == "LinearPlan(order=('T4', 'T3', 7))"
