import copy
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dockerspec import evaluation
from dockerspec.dockerfile_syntax import (
    Node,
    ast_size,
    ast_to_json,
    ast_to_text,
    build_ast,
    parse_dockerfile,
)
from dockerspec.errors import (
    EmptyCandidate,
    EmptyInput,
    EmptyManifest,
    EmptySample,
    InferenceIncomplete,
    ParseError,
)
from dockerspec.evaluation import (
    SubtreePairMemo,
    adherence,
    benjamini_hochberg,
    bleu4,
    cliffs_delta,
    compare_systems,
    evaluate_pair,
    evaluate_run,
    evaluate_systems,
    infer_spec_for_generated,
    layer_match,
    mann_whitney_u,
    normalized_distance,
    prepare_target,
    tree_edit_distance,
)
from dockerspec.spec_inference import infer_spec
from dockerspec.spec_model import SPEC_FIELDS, DockerSpec
from conftest import write_benchmark_evaluate
from oracles import (
    direct_cliffs_delta,
    naive_tree_edit_distance,
    permutation_mann_whitney_p,
    random_tree,
    random_valid_spec,
    zhang_shasha_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestAdherence:
    def test_identity_all_ones(self):
        spec = DockerSpec(os="alpine", pkg_manager="apk",
                          dependencies=frozenset({"git"}), uses_env=True)
        report = adherence(spec, spec)
        assert all(v == 1.0 for v in report.field_scores.values())

    def test_dependency_recall(self):
        target = DockerSpec(dependencies=frozenset({"a", "b"}))
        obtained = DockerSpec(dependencies=frozenset({"a"}))
        assert adherence(target, obtained).field_scores["dependencies"] == 0.5

    def test_empty_target_dependencies(self):
        target = DockerSpec()
        obtained = DockerSpec(dependencies=frozenset({"x", "y"}))
        assert adherence(target, obtained).field_scores["dependencies"] == 1.0

    def test_extra_obtained_dependencies_do_not_hurt(self):
        target = DockerSpec(dependencies=frozenset({"a"}))
        obtained = DockerSpec(dependencies=frozenset({"a", "b", "c"}))
        assert adherence(target, obtained).field_scores["dependencies"] == 1.0

    def test_scores_are_binary_outside_dependencies(self):
        target = DockerSpec(os="alpine", uses_env=True)
        obtained = DockerSpec(os="debian10", uses_cmd=True)
        report = adherence(target, obtained)
        for name, value in report.field_scores.items():
            if name != "dependencies":
                assert value in (0.0, 1.0)
        assert report.field_scores["os"] == 0.0
        assert report.field_scores["uses_env"] == 0.0
        assert report.field_scores["uses_label"] == 1.0

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10 ** 6))
    def test_identity_property(self, seed):
        spec = random_valid_spec(random.Random(seed))
        assert all(v == 1.0 for v in adherence(spec, spec).field_scores.values())


def tree(label, *children):
    return Node(label, list(children))


class TestTreeEditDistance:
    def test_identical(self):
        a = tree("f", tree("a"), tree("b"))
        assert tree_edit_distance(a, a) == 0

    def test_single_node_relabel(self):
        assert tree_edit_distance(Node("a"), Node("b")) == 1

    def test_single_insert(self):
        assert tree_edit_distance(tree("f"), tree("f", tree("a"))) == 1

    def test_classic_zhang_shasha_example(self):
        # f(d(a c(b)) e)  ->  f(c(d(a b)) e): distance 2
        left = tree("f", tree("d", tree("a"), tree("c", tree("b"))), tree("e"))
        right = tree("f", tree("c", tree("d", tree("a"), tree("b"))), tree("e"))
        assert tree_edit_distance(left, right) == 2

    def test_small_trees_match_oracle(self):
        rng = random.Random(123)
        for _ in range(60):
            a = random_tree(rng, 5)
            b = random_tree(rng, 5)
            assert tree_edit_distance(a, b) == naive_tree_edit_distance(a, b)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(7)
        trees = [random_tree(rng, 5) for _ in range(8)]
        for a in trees:
            for b in trees:
                assert tree_edit_distance(a, b) == tree_edit_distance(b, a)
        for a in trees[:4]:
            for b in trees[:4]:
                for c in trees[:4]:
                    assert tree_edit_distance(a, c) <= \
                        tree_edit_distance(a, b) + tree_edit_distance(b, c)


def labels_of(node):
    return {node.label}.union(*(labels_of(c) for c in node.children))


def edited(root, rng, edits, labels=("RUN", "apt-get", "curl", "x")):
    """A copy of ``root`` after ``edits`` random relabels, node deletions
    (the children move up) and node insertions (over a run of siblings)."""
    root = copy.deepcopy(root)
    for _ in range(edits):
        places = []
        stack = [root]
        while stack:
            node = stack.pop()
            places.extend((node, index) for index in range(len(node.children)))
            stack.extend(node.children)
        action = rng.choice(("relabel", "delete", "insert"))
        if action == "delete" and places:
            parent, index = rng.choice(places)
            parent.children[index:index + 1] = parent.children[index].children
        elif action == "insert" and places:
            parent, start = rng.choice(places)
            stop = rng.randint(start, len(parent.children))
            parent.children[start:stop] = [Node(rng.choice(labels),
                                                 parent.children[start:stop])]
        else:
            node = rng.choice([root] + [parent.children[i] for parent, i in places])
            node.label = rng.choice(labels)
    return root


def reverse_some_children(root, rng):
    """Reverse the children of one node that has several, in place: the
    copy then holds subtrees equal to the original's up to child order."""
    stack, parents = [root], []
    while stack:
        node = stack.pop()
        if len(node.children) > 1:
            parents.append(node)
        stack.extend(node.children)
    if parents:
        rng.choice(parents).children.reverse()


@st.composite
def small_tree_pairs(draw):
    """Two random trees of 1-7 nodes over one shared alphabet of 1-2 labels."""
    labels = draw(st.sampled_from(["a", "ab"]))

    def one_tree():
        nodes = [Node(draw(st.sampled_from(labels)))]
        for k in range(1, draw(st.integers(1, 7))):
            child = Node(draw(st.sampled_from(labels)))
            nodes[draw(st.integers(0, k - 1))].children.append(child)
            nodes.append(child)
        return nodes[0]

    return one_tree(), one_tree()


@pytest.fixture(scope="module")
def fixture_trees():
    trees = {path.stem: build_ast(parse_dockerfile(path.read_text()))
             for path in sorted(FIXTURES.glob("*.Dockerfile"))}
    ffmpeg = trees["tomcat-ffmpeg"]
    trees["merged"] = Node("dockerfile", copy.deepcopy(
        ffmpeg.children + trees["debian-slim"].children + ffmpeg.children[:5]))
    return trees


class TestTreeEditDistanceExactness:
    """The tuned tree_edit_distance against the plain Zhang-Shasha of
    tests/oracles.py on real Dockerfile trees, and against the naive
    recursion on tiny ones."""

    def test_fixtures_against_each_other(self, fixture_trees):
        for a in fixture_trees.values():
            for b in fixture_trees.values():
                assert tree_edit_distance(a, b) == zhang_shasha_reference(a, b)

    @pytest.mark.parametrize("name", ["tomcat-ffmpeg", "merged"])
    def test_fixture_against_edited_copies(self, fixture_trees, name):
        rng = random.Random(name)
        original = fixture_trees[name]
        assert 60 <= ast_size(original) <= 150
        copies = [edited(original, rng, edits) for edits in (1, 4, 12)]
        for a, b in [(original, c) for c in copies] + [(copies[0], copies[2])]:
            expected = zhang_shasha_reference(a, b)
            assert tree_edit_distance(a, b) == expected
            assert tree_edit_distance(b, a) == expected

    @settings(max_examples=300, deadline=None)
    @given(pair=small_tree_pairs())
    def test_tiny_trees_match_naive_oracle(self, pair):
        a, b = pair
        assert tree_edit_distance(a, b) == naive_tree_edit_distance(a, b)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), label=st.sampled_from("abcd"),
           alphabet=st.sampled_from(["a", "ab", "abc"]), max_nodes=st.sampled_from([30, 80]))
    def test_leaf_identity(self, seed, label, alphabet, max_nodes):
        # one-letter alphabets repeat a leaf label all over the tree, and
        # "d" (and often "c" or "b") is absent from it
        other = random_tree(random.Random(seed), max_nodes, alphabet)
        expected = ast_size(other) - 1 + (label not in labels_of(other))
        memo = SubtreePairMemo()
        assert tree_edit_distance(Node(label), other, memo) == expected
        assert tree_edit_distance(other, Node(label), memo) == expected
        assert tree_edit_distance(Node(label), other, memo) == expected


def shape_id(memo, node):
    """The shape id that ``memo`` interned for the subtree of ``node``."""
    return memo.shapes[node.label, tuple(shape_id(memo, child) for child in node.children)]


def with_root_label(node, label):
    node.label = label
    return node


class TestRootLabels:
    """Equal root labels are scored as the child forests, any other pair as
    the child forests of two wrapper roots: both against the plain
    Zhang-Shasha."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), sizes=st.sampled_from([1, 7, 40]).flatmap(
        lambda size: st.tuples(st.just(size), st.sampled_from([1, 7, 40]))),
        roots=st.sampled_from([("r", "r"), ("r", "s"), ("a", "a"), ("a", "b")]))
    def test_both_branches_match_reference(self, seed, sizes, roots):
        # roots "a" and "b" also label inner nodes, "r" and "s" never do
        rng = random.Random(seed)
        a = with_root_label(random_tree(rng, sizes[0], "abc"), roots[0])
        b = with_root_label(random_tree(rng, sizes[1], "abc"), roots[1])
        memo = SubtreePairMemo()
        expected = zhang_shasha_reference(a, b)
        assert tree_edit_distance(a, b, memo) == expected
        assert tree_edit_distance(b, a, memo) == expected
        assert tree_edit_distance(a, b) == expected

    @pytest.mark.parametrize("root", ["r", None])
    def test_one_node_tree_on_either_side(self, root):
        rng = random.Random(11)
        for _ in range(40):
            other = with_root_label(random_tree(rng, 40, "abc"), "r")
            single = Node(root or rng.choice("abc"))
            expected = zhang_shasha_reference(single, other)
            assert tree_edit_distance(single, other) == expected
            assert tree_edit_distance(other, single) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_equal_roots_store_no_root_column(self, seed):
        rng = random.Random(seed)
        a = Node("r", [random_tree(rng, 13, "abc") for _ in range(rng.randint(1, 3))])
        b = with_root_label(edited(a, rng, rng.randint(0, 5), labels="abc"), "r")
        if not b.children:
            b.children.append(Node("a"))
        for x, y in ((a, b), (b, a)):
            memo = SubtreePairMemo()
            assert tree_edit_distance(x, y, memo) == zhang_shasha_reference(x, y)
            roots = {shape_id(memo, x), shape_id(memo, y)}
            assert not roots.intersection(shape for pair in memo.tables for shape in pair)

    def test_different_roots_are_scored_under_wrapper_roots(self):
        a = tree("r", tree("a", tree("b")), tree("c"))
        b = tree("s", tree("a", tree("c")), tree("b"))
        memo = SubtreePairMemo()
        assert tree_edit_distance(a, b, memo) == zhang_shasha_reference(a, b) == \
            tree_edit_distance(tree("w", a), tree("w", b))
        # under the wrappers each tree is its root's one child, so the one
        # table stored is that of the two trees
        assert list(memo.tables) == [(shape_id(memo, a), shape_id(memo, b))]


def chain(length, label="a"):
    """A tree of ``length`` nodes of one label, each the only child of the
    one before."""
    root = node = Node(label)
    for _ in range(length - 1):
        node.children.append(Node(label))
        node = node.children[0]
    return root


class TestDeepTrees:
    def test_chains_deeper_than_the_recursion_limit(self):
        report = normalized_distance(chain(1200), chain(1199))
        assert (report.raw_distance, report.size_a, report.size_b) == (1, 1200, 1199)

    def test_text_of_a_chain_deeper_than_the_recursion_limit(self):
        lines = ast_to_text(chain(1200)).split("\n")
        assert lines == ["  " * depth + "a" for depth in range(1200)]

    def test_json_of_a_chain_deeper_than_the_recursion_limit(self):
        node, depth = ast_to_json(chain(1200)), 1
        while node["children"]:
            assert list(node) == ["label", "children"] and node["label"] == "a"
            (node,), depth = node["children"], depth + 1
        assert node == {"label": "a", "children": []} and depth == 1200


class TestSkippedKeyroots:
    """Trees in which one shape lies on the left path of an earlier
    keyroot and is again a keyroot off a later left path, scored both ways
    against ``zhang_shasha_reference``."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), alphabet=st.sampled_from(["a", "ab", "abc"]),
           roots=st.sampled_from(["r", "s"]), copy_output=st.booleans())
    def test_shape_first_seen_on_a_later_left_path(self, seed, alphabet, roots, copy_output):
        rng = random.Random(seed)

        def some(count):
            return [random_tree(rng, 6, alphabet) for _ in range(count)]

        shape = Node("s", some(rng.randint(1, 2)))
        # postorder: the first copy of ``shape``, on ``outer``'s left path
        # (and the root's), then ``middle``'s first child, then the second
        # copy, a keyroot off ``middle``'s left path, then ``middle`` and
        # ``outer``, the keyroots that come after it
        middle = Node(rng.choice(alphabet), some(1) + some(rng.randint(0, 1))
                      + [copy.deepcopy(shape)] + some(rng.randint(0, 1)))
        outer = Node(rng.choice(alphabet), [shape] + some(rng.randint(0, 1)) + [middle])
        a = Node("r", [outer] + some(rng.randint(0, 2)))
        b = (edited(a, rng, rng.randint(1, 5), labels=alphabet) if copy_output
             else random_tree(rng, 40, alphabet))
        b.label = roots
        memo = SubtreePairMemo()
        for x, y in ((a, b), (b, a), (a, b)):
            assert tree_edit_distance(x, y, memo) == zhang_shasha_reference(x, y)


class TestSubtreePairMemo:
    """Distances that share one memo, as the outputs scored against one
    target do, against the plain Zhang-Shasha and the naive recursion."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), max_nodes=st.sampled_from([7, 40]),
           outputs=st.integers(2, 4))
    def test_outputs_of_one_target_share_a_memo(self, seed, max_nodes, outputs):
        rng = random.Random(seed)
        target = random_tree(rng, max_nodes)
        copies = [edited(target, rng, rng.randint(0, 5), labels="abcd")
                  for _ in range(outputs)]
        for copy_ in copies[1:]:
            reverse_some_children(copy_, rng)
        memo = SubtreePairMemo()
        for copy_ in rng.sample(copies, len(copies)):
            a, b = (target, copy_) if rng.random() < 0.75 else (copy_, target)
            distance = tree_edit_distance(a, b, memo)
            assert distance == zhang_shasha_reference(a, b)
            if ast_size(a) <= 7 and ast_size(b) <= 7:
                assert distance == naive_tree_edit_distance(a, b)

    def test_target_walked_once_for_its_outputs(self, monkeypatch, word_lists,
                                                tomcat_ffmpeg_text):
        walks = []
        postorder = evaluation._postorder

        def counting(root, memo):
            walks.append(root)
            return postorder(root, memo)

        monkeypatch.setattr(evaluation, "_postorder", counting)
        target = prepare_target(tomcat_ffmpeg_text, word_lists)
        outputs = [GENERATED_GOOD, GENERATED_PARTIAL]
        results = [evaluate_pair(n, target, text, word_lists) for n, text in enumerate(outputs)]
        # the target once, then each output
        assert len(walks) == 3
        assert walks[0] is target.tree
        assert all(walk is not target.tree for walk in walks[1:])
        for result, text in zip(results, outputs):
            assert result.error is None
            assert result.distance == normalized_distance(
                target.tree, build_ast(parse_dockerfile(text)))
        # roots of differing labels are measured under wrapper roots, built
        # anew for each distance, so the target is walked again
        memo, other = SubtreePairMemo(), Node("other", [Node("x")])
        walks.clear()
        for _ in range(2):
            assert tree_edit_distance(target.tree, other, memo) == \
                zhang_shasha_reference(target.tree, other)
        assert len(walks) == 4

    def test_memo_shared_across_unrelated_targets(self, fixture_trees):
        rng = random.Random(3)
        first, second = fixture_trees["tomcat-ffmpeg"], random_tree(rng, 60, "ab")
        pairs = [(first, edited(first, rng, 6)), (second, edited(second, rng, 6, "abc")),
                 (first, second), (second, edited(second, rng, 2, "ab")),
                 (first, edited(first, rng, 1))]
        memo = SubtreePairMemo()
        for a, b in pairs + pairs[::-1]:
            assert tree_edit_distance(a, b, memo) == zhang_shasha_reference(a, b)

    @pytest.mark.parametrize("name", ["tomcat-ffmpeg", "merged"])
    def test_fixture_edited_copies_share_a_memo(self, fixture_trees, name):
        rng = random.Random(name)
        original = fixture_trees[name]
        assert 60 <= ast_size(original) <= 150
        memo = SubtreePairMemo()
        for edits in (1, 4, 12, 0, 4):
            copy_ = edited(original, rng, edits)
            assert tree_edit_distance(original, copy_, memo) == \
                zhang_shasha_reference(original, copy_)

    def test_child_order_is_part_of_a_shape(self):
        a = tree("r", tree("p", tree("x"), tree("y")))
        b = tree("r", tree("p", tree("y"), tree("x")))
        memo = SubtreePairMemo()
        assert tree_edit_distance(a, a, memo) == 0
        assert tree_edit_distance(a, b, memo) == zhang_shasha_reference(a, b) == 2

    def test_repeated_pair_stores_no_new_column(self, fixture_trees):
        """A pair measured again against the same memo gives the same
        distance and adds no table and no subtree entry."""
        a = fixture_trees["merged"]
        b = edited(a, random.Random(5), 8)
        memo = SubtreePairMemo()
        first = tree_edit_distance(a, b, memo)
        stored = (len(memo.tables), len(memo.subtrees))
        assert stored[0] > 0
        assert tree_edit_distance(a, copy.deepcopy(b), memo) == first
        assert (len(memo.tables), len(memo.subtrees)) == stored

    def test_repeated_output_fills_only_the_last_table(self, fixture_trees, monkeypatch):
        """Every pair of root children that an output measured again
        needs finds its table in the memo: no subtree table is computed and
        no keyroot forest is filled, only the band of the child-forest table
        of the equal roots, which no memo stores."""
        calls = []

        def counted(name, function):
            def call(*args):
                calls.append(name)
                return function(*args)
            return call

        for name in ("_table", "_forest"):
            monkeypatch.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
        a = fixture_trees["merged"]
        b = with_root_label(edited(a, random.Random(6), 8), a.label)
        memo = SubtreePairMemo()
        first = tree_edit_distance(a, b, memo)
        assert calls.count("_table") > 1 and calls.count("_forest") > 1
        calls.clear()
        assert tree_edit_distance(a, copy.deepcopy(b), memo) == first
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_equal_and_different_roots_share_a_memo(self, seed):
        """Outputs equal but for the root label, one of them with the
        target's: under the root rule the target's root has no row, so a
        column stored without it must not serve the whole-tree pair, nor
        the other way round."""
        rng = random.Random(seed)
        a = Node("r", [random_tree(rng, 13, "abc") for _ in range(rng.randint(1, 3))])
        same = with_root_label(edited(a, rng, rng.randint(0, 5), labels="abc"), "r")
        other = with_root_label(copy.deepcopy(same), "s")
        for outputs in ((same, other), (other, same)):
            memo = SubtreePairMemo()
            for b in outputs + outputs:
                assert tree_edit_distance(a, b, memo) == zhang_shasha_reference(a, b)
                assert tree_edit_distance(b, a, memo) == zhang_shasha_reference(b, a)

    def test_equal_shapes_share_an_id_and_labels_tell_shapes_apart(self):
        memo = SubtreePairMemo()
        same = [tree("RUN", tree("apt-get", tree("curl"))) for _ in range(2)]
        other = tree("RUN", tree("apt-get", tree("git")))
        tree_edit_distance(tree("dockerfile", *same), other, memo)
        # curl, apt-get(curl), RUN(apt-get(curl)) once for both copies, the
        # root, git, apt-get(git), RUN(apt-get(git)), and the two wrapper
        # roots that the different root labels take
        assert len(memo.shapes) == 9
        assert tree_edit_distance(same[0], other, memo) == 1


def dockerfile_like(rng, children, alphabet="abcd"):
    """A tree shaped like ``build_ast``'s: a root of ``children`` children,
    each a leaf or a node whose children are leaves or nodes of leaves (an
    instruction of words, or a RUN of statements), so depth is at most 3.
    Four labels make shapes repeat."""
    def node(depth):
        count = rng.randint(0, 3 if depth == 1 else 2) if depth < 3 else 0
        return Node(rng.choice(alphabet), [node(depth + 1) for _ in range(count)])

    return Node("r", [node(1) for _ in range(children)])


class TestBand:
    """The band of the last forest table, bounded by the alignment of the
    roots' children, and the subtree tables it reads, against the plain
    Zhang-Shasha and the naive recursion."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), children=st.integers(1, 30),
           copies=st.integers(1, 3))
    def test_dockerfile_like_trees_share_a_memo(self, seed, children, copies):
        rng = random.Random(seed)
        target = dockerfile_like(rng, children)
        outputs = [edited(target, rng, rng.randint(0, 6), labels="abcd") for _ in range(copies)]
        outputs.append(dockerfile_like(rng, rng.randint(1, 30)))
        memo = SubtreePairMemo()
        pairs = [(target, output) for output in outputs] + [(outputs[0], target)]
        for a, b in rng.sample(pairs, len(pairs)):
            distance = tree_edit_distance(a, b, memo)
            assert distance == zhang_shasha_reference(a, b)
            if ast_size(a) <= 7 and ast_size(b) <= 7:
                assert distance == naive_tree_edit_distance(a, b)

    @pytest.mark.parametrize("other", [
        tree("r"), tree("r", tree("a")), tree("r", tree("a", tree("b")), tree("c")),
        tree("s"), tree("s", tree("r"))])
    def test_root_only_tree_on_either_side(self, other):
        single = tree("r")
        expected = zhang_shasha_reference(single, other)
        assert expected == naive_tree_edit_distance(single, other)
        memo = SubtreePairMemo()
        assert tree_edit_distance(single, other, memo) == expected
        assert tree_edit_distance(other, single, memo) == expected

    def test_roots_of_different_labels(self):
        a = tree("r", tree("x", tree("p")), tree("y"))
        b = tree("s", tree("x", tree("p")), tree("y"), tree("z"))
        assert tree_edit_distance(a, b) == zhang_shasha_reference(a, b) == 2
        assert tree_edit_distance(b, a) == 2

    def test_single_child_roots(self):
        a = tree("r", tree("x", tree("p"), tree("q")))
        for b, expected in ((tree("r", tree("x", tree("p"))), 1),
                            (tree("r", tree("y", tree("q"), tree("p"))), 3),
                            (tree("r", tree("x", tree("p"), tree("q")), tree("x")), 1)):
            assert tree_edit_distance(a, b) == zhang_shasha_reference(a, b) == expected
            assert tree_edit_distance(b, a) == expected

    def test_alignment_bound_above_the_distance(self, monkeypatch):
        # the best alignment of the children matches X(p, q) with p at 2
        # and inserts q at 1, 3 in all; deleting X alone costs 1, a mapping
        # that no alignment of whole children makes. The band of width 3
        # still holds that mapping's path
        a = tree("r", tree("X", tree("p"), tree("q")))
        b = tree("r", tree("p"), tree("q"))
        bands = []
        band = evaluation._band

        def recorded(width, delta):
            bands.append((width, delta))
            return band(width, delta)

        monkeypatch.setattr(evaluation, "_band", recorded)
        assert tree_edit_distance(a, b) == zhang_shasha_reference(a, b) == 1
        assert bands[-1] == (3, -1)
        bands.clear()
        assert tree_edit_distance(b, a) == 1
        assert bands[-1] == (3, 1)


@pytest.fixture(scope="module")
def benchmark_evaluate_trees(tmp_path_factory):
    """The first 8 targets of the benchmark's seed-1 evaluate input, each
    with the trees of its two systems' ``<nl>`` outputs."""
    directory = tmp_path_factory.mktemp("benchmark_evaluate")
    write_benchmark_evaluate(directory, 1)

    def tree_of(path):
        return build_ast(parse_dockerfile(path.read_text(encoding="utf-8")))

    return [(tree_of(path), [tree_of(directory / system / path.name) for system in "ab"])
            for path in sorted((directory / "targets").iterdir())[:8]]


class TestBenchmarkTrees:
    """Trees of the benchmark's shape: one root label, depth up to 4,
    60-280 nodes."""

    def test_outputs_share_a_memo_as_in_evaluate(self, benchmark_evaluate_trees):
        sizes = [ast_size(target) for target, _ in benchmark_evaluate_trees]
        # the three size classes, of about 60, 130 and 230 nodes
        assert min(sizes) < 90 and any(100 < size < 180 for size in sizes) \
            and max(sizes) > 200
        for target, outputs in benchmark_evaluate_trees:
            memo = SubtreePairMemo()
            for output in outputs:
                assert tree_edit_distance(target, output, memo) == \
                    zhang_shasha_reference(target, output)
                roots = {shape_id(memo, target), shape_id(memo, output)}
                assert not roots.intersection(shape for pair in memo.tables for shape in pair)


class TestNormalizedDistance:
    def test_identical_zero(self, tomcat_ffmpeg_text):
        a = build_ast(parse_dockerfile(tomcat_ffmpeg_text))
        report = normalized_distance(a, a)
        assert report.normalized == 0.0
        assert report.raw_distance == 0

    def test_two_singletons(self):
        report = normalized_distance(Node("a"), Node("b"))
        assert report.normalized == 0.5

    def test_symmetric(self):
        rng = random.Random(11)
        a, b = random_tree(rng, 5), random_tree(rng, 5)
        assert normalized_distance(a, b).normalized == \
            normalized_distance(b, a).normalized

    def test_in_unit_interval(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b = random_tree(rng, 6), random_tree(rng, 6)
            assert 0.0 <= normalized_distance(a, b).normalized < 1.0

    def test_zero_only_for_identical_trees(self):
        a = tree("f", tree("x"))
        b = tree("f", tree("y"))
        assert normalized_distance(a, b).normalized > 0.0
        assert normalized_distance(a, a).normalized == 0.0


class TestBleu4:
    def test_identity(self):
        tokens = "FROM alpine RUN apk add git".split()
        assert bleu4(tokens, tokens) == pytest.approx(1.0)

    def test_disjoint_tokens_near_zero(self):
        candidate = [f"c{i}" for i in range(10)]
        reference = [f"r{i}" for i in range(10)]
        # every precision smooths to 1/(2*10), brevity penalty 1
        assert bleu4(candidate, reference) == pytest.approx(0.05)
        assert bleu4(candidate, reference) < 0.051

    def test_hand_worked_six_token_example(self):
        candidate = "the cat sat on the mat".split()
        reference = "the cat sat on a mat".split()
        # precisions: 5/6, 3/5, 2/4, 1/3; brevity penalty 1
        expected = (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
        assert bleu4(candidate, reference) == pytest.approx(expected, abs=1e-12)

    def test_empty_candidate(self):
        with pytest.raises(EmptyCandidate):
            bleu4([], ["a"])

    def test_brevity_penalty(self):
        reference = "a b c d e f g h".split()
        short = "a b c d".split()
        value = bleu4(short, reference)
        assert value < bleu4(reference, reference)
        assert 0.0 < value < 1.0

    def test_replacing_matching_token_never_increases(self):
        rng = random.Random(5)
        reference = [rng.choice("abcdef") for _ in range(12)]
        candidate = list(reference)
        previous = bleu4(candidate, reference)
        for position in (3, 7, 0, 11):
            candidate[position] = f"junk{position}"
            current = bleu4(candidate, reference)
            assert current <= previous + 1e-12
            previous = current


class TestLayerMatch:
    def test_identical_manifests(self):
        layers = ["sha256:aa", "sha256:bb"]
        report = layer_match(layers, list(layers), "sha256:img", "sha256:img")
        assert report.digest_equal is True
        assert report.matching_layer_ratio == 1.0

    def test_disjoint(self):
        report = layer_match(["a", "b"], ["c"], "x", "y")
        assert report.digest_equal is False
        assert report.matching_layer_ratio == 0.0

    def test_quarter_overlap(self):
        report = layer_match(["a", "b", "c", "d"], ["a", "z"], "x", "y")
        assert report.matching_layer_ratio == 0.25

    def test_empty_original(self):
        with pytest.raises(EmptyManifest):
            layer_match([], ["a"], "x", "y")

    def test_inconsistent_manifests_rejected(self):
        with pytest.raises(ValueError):
            layer_match(["a"], ["b"], "same", "same")

    def test_unknown_digests_never_equal(self):
        report = layer_match(["a"], ["a"], "", "")
        assert report.digest_equal is False


class TestMannWhitney:
    def test_identical_constant_samples(self):
        u, p = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0])
        assert p == 1.0
        assert u == 3.0  # n_a * n_b / 2 under full ties

    def test_rank_arithmetic_example(self):
        u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
        assert u == 0.0
        assert p == pytest.approx(1 / 3)

    def test_exact_matches_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            n_a = rng.randint(1, 5)
            n_b = rng.randint(1, 5)
            a = [rng.randint(0, 4) / 2.0 for _ in range(n_a)]
            b = [rng.randint(0, 4) / 2.0 for _ in range(n_b)]
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(permutation_mann_whitney_p(a, b), abs=1e-9)

    def test_normal_approximation_branch(self):
        a = [float(i) for i in range(12)]
        b = [float(i) + 20 for i in range(12)]
        _, p = mann_whitney_u(a, b)
        assert 0.0 < p < 0.001

    def test_normal_approximation_all_tied(self):
        _, p = mann_whitney_u([1.0] * 12, [1.0] * 12)
        assert p == 1.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mann_whitney_u([], [1.0])


class TestBenjaminiHochberg:
    def test_single_p_unchanged(self):
        assert benjamini_hochberg([0.03]) == [0.03]

    def test_hand_worked_pair(self):
        assert benjamini_hochberg([0.01, 0.04]) == pytest.approx([0.02, 0.04])

    def test_all_equal_unchanged(self):
        assert benjamini_hochberg([0.2, 0.2, 0.2]) == pytest.approx([0.2, 0.2, 0.2])

    def test_empty(self):
        assert benjamini_hochberg([]) == []

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_adjusted_at_least_raw_and_capped(self, p_values):
        adjusted = benjamini_hochberg(p_values)
        for raw, adj in zip(p_values, adjusted):
            assert adj >= raw - 1e-12
            assert adj <= 1.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    def test_monotone_on_sorted_input(self, p_values):
        ordered = sorted(p_values)
        adjusted = benjamini_hochberg(ordered)
        assert adjusted == sorted(adjusted)


class TestCliffsDelta:
    def test_identical_samples(self):
        delta, magnitude = cliffs_delta([1.0, 2.0], [1.0, 2.0])
        assert delta == 0.0
        assert magnitude == "negligible"

    def test_strict_dominance(self):
        delta, magnitude = cliffs_delta([5.0, 6.0], [1.0, 2.0])
        assert delta == 1.0
        assert magnitude == "large"

    def test_balanced_example(self):
        delta, _ = cliffs_delta([1.0, 3.0], [2.0])
        assert delta == 0.0

    def test_magnitude_thresholds(self):
        assert cliffs_delta([1.0] * 10 + [2.0], [1.0] * 10)[1] == "negligible"
        # delta = 0.2 -> small; 0.4 -> medium; 0.6 -> large
        assert cliffs_delta([0.0, 2.0, 2.0], [1.0] * 5 + [3.0] * 2, )[0] != 0
        for wins, label in ((2, "small"), (4, "medium"), (6, "large")):
            a = [2.0] * wins + [1.0] * (10 - wins)
            delta, magnitude = cliffs_delta(a, [1.0])
            assert delta == pytest.approx(wins / 10)
            assert magnitude == label

    def test_matches_direct_enumeration(self):
        rng = random.Random(17)
        for _ in range(30):
            a = [rng.randint(0, 5) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(0, 5) for _ in range(rng.randint(1, 8))]
            assert cliffs_delta(a, b)[0] == direct_cliffs_delta(a, b)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_antisymmetric(self, a, b):
        assert cliffs_delta(a, b)[0] == -cliffs_delta(b, a)[0]

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            cliffs_delta([1.0], [])


TARGET = """FROM ubuntu:20.04

# Install nginx certbot
RUN apt-get update && apt-get install -y nginx certbot
EXPOSE 80
"""

GENERATED_GOOD = """FROM ubuntu:20.04

RUN apt-get update && apt-get install -y nginx certbot
EXPOSE 80
"""

GENERATED_PARTIAL = """FROM debian:10-slim

RUN apt-get update && apt-get install -y nginx
"""


class TestInferSpecForGenerated:
    def test_dependency_met_by_install_arg(self, word_lists):
        spec = infer_spec_for_generated(parse_dockerfile(GENERATED_GOOD), word_lists,
                                        frozenset({"nginx", "certbot"}))
        assert spec.dependencies == frozenset({"nginx", "certbot"})
        assert spec.uses_expose is True

    def test_dependency_met_by_from_word(self, word_lists):
        spec = infer_spec_for_generated(parse_dockerfile("FROM tomcat:9-jre8\n"), word_lists,
                                        frozenset({"tomcat", "ffmpeg"}))
        assert spec.dependencies == frozenset({"tomcat"})

    def test_unmet_dependency_excluded(self, word_lists):
        spec = infer_spec_for_generated(parse_dockerfile(GENERATED_PARTIAL), word_lists,
                                        frozenset({"nginx", "certbot"}))
        assert spec.dependencies == frozenset({"nginx"})


class TestEvaluateRun:
    def test_identity_outputs(self, word_lists, tomcat_ffmpeg_text):
        pairs = [(TARGET, TARGET), (tomcat_ffmpeg_text, tomcat_ffmpeg_text)]
        report = evaluate_run(pairs, word_lists)
        assert report.failed_pairs == 0
        assert all(v == 1.0 for v in report.adherence_means.values())
        assert report.distance_summary["max"] == 0.0
        assert report.bleu_mean == pytest.approx(1.0)

    def test_empty_pairs(self, word_lists):
        with pytest.raises(EmptyInput):
            evaluate_run([], word_lists)

    def test_pair_failure_recorded_not_fatal(self, word_lists):
        pairs = [(TARGET, GENERATED_GOOD), (TARGET, "")]
        report = evaluate_run(pairs, word_lists)
        assert report.failed_pairs == 1
        assert report.evaluated_pairs == 1
        assert report.pair_results[1].error is not None

    def test_no_evaluated_pair_gives_null_bleu_mean(self, word_lists):
        report = evaluate_run([(TARGET, ""), (TARGET, "")], word_lists)
        assert report.evaluated_pairs == 0
        assert report.bleu_mean is None
        assert report.distance_summary == {}

    def test_each_file_parsed_once(self, monkeypatch, word_lists):
        from dockerspec import evaluation

        parsed = []
        original = evaluation.parse_dockerfile
        monkeypatch.setattr(evaluation, "parse_dockerfile",
                            lambda text: parsed.append(text) or original(text))
        target = evaluation.prepare_target(TARGET, word_lists)
        result = evaluation.evaluate_pair(0, target, GENERATED_GOOD, word_lists)
        assert result.error is None
        assert parsed == [TARGET, GENERATED_GOOD]

    @pytest.mark.parametrize("bad_target, error", [
        ("this is not a Dockerfile\n", ParseError), ("RUN echo hi\n", InferenceIncomplete)])
    def test_failed_target_gives_every_system_its_error(self, word_lists, bad_target, error):
        with pytest.raises(error) as raised:
            infer_spec(parse_dockerfile(bad_target), word_lists)
        expected = f"{type(raised.value).__name__}: {raised.value}"
        reports = evaluate_systems([(TARGET, {"a": TARGET, "b": GENERATED_GOOD}),
                                    (bad_target, {"a": TARGET, "b": GENERATED_PARTIAL})],
                                   word_lists)
        for report in reports.values():
            assert [r.error for r in report.pair_results] == [None, expected]
            assert [r.index for r in report.pair_results] == [0, 1]
        assert prepare_target(bad_target, word_lists).error == expected

    def test_shell_error_reported_before_missing_from(self, word_lists):
        # the RUN split comes first, as in corpus ingest's filter
        text = "RUN echo 'open\n"
        assert prepare_target(text, word_lists).error.startswith("ShellSyntaxError: ")
        target = prepare_target(TARGET, word_lists)
        assert evaluate_pair(0, target, text, word_lists).error.startswith("ShellSyntaxError: ")

    def test_systems_score_only_the_targets_they_have(self, word_lists):
        reports = evaluate_systems([(TARGET, {"a": GENERATED_GOOD}),
                                    (TARGET, {"a": TARGET, "b": GENERATED_PARTIAL})],
                                   word_lists)
        assert reports["a"].evaluated_pairs == 2
        assert reports["b"].evaluated_pairs == 1
        expected = evaluate_run([(TARGET, GENERATED_PARTIAL)], word_lists)
        assert reports["b"].pair_results == expected.pair_results

    def test_three_pair_composition(self, word_lists):
        pairs = [(TARGET, GENERATED_GOOD), (TARGET, GENERATED_PARTIAL),
                 (TARGET, TARGET)]
        report = evaluate_run(pairs, word_lists)
        target_spec = infer_spec(parse_dockerfile(TARGET), word_lists)
        by_hand = []
        for _, generated in pairs:
            obtained = infer_spec_for_generated(parse_dockerfile(generated), word_lists,
                                                target_spec.dependencies)
            by_hand.append(adherence(target_spec, obtained))
        for name in SPEC_FIELDS:
            expected = sum(r.field_scores[name] for r in by_hand) / 3
            assert report.adherence_means[name] == pytest.approx(expected)
        expected_distances = [
            normalized_distance(build_ast(parse_dockerfile(TARGET)),
                                build_ast(parse_dockerfile(generated))).normalized
            for _, generated in pairs
        ]
        assert report.distance_summary["mean"] == \
            pytest.approx(sum(expected_distances) / 3)
        expected_bleu = [bleu4(g.split(), t.split()) for t, g in pairs]
        assert report.bleu_mean == pytest.approx(sum(expected_bleu) / 3)

    def test_readme_library_example(self, tmp_path, monkeypatch):
        # README's python block, run where it expects app.Dockerfile: the
        # file retrieves itself, so its one pair is at distance 0
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        code = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
        (tmp_path / "app.Dockerfile").write_bytes(
            (FIXTURES / "tomcat-ffmpeg.Dockerfile").read_bytes())
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        report = namespace["report"]
        assert (report.evaluated_pairs, report.failed_pairs) == (1, 0)
        assert report.pair_results[0].distance.raw_distance == 0


class TestCompareSystems:
    def test_shape_and_adjustment(self):
        distances = {
            "system-a": [0.1, 0.2, 0.3, 0.4],
            "system-b": [0.5, 0.6, 0.7, 0.8],
            "system-c": [0.1, 0.2, 0.3, 0.4],
        }
        results = compare_systems(distances)
        assert len(results) == 3
        for item in results:
            assert set(item) == {"systems", "u_statistic", "p_value",
                                 "p_adjusted", "delta", "magnitude"}
            assert item["p_adjusted"] >= item["p_value"] - 1e-12
        identical = next(r for r in results
                         if r["systems"] == ["system-a", "system-c"])
        assert identical["delta"] == 0.0
        assert identical["p_value"] == 1.0

    def test_system_without_distances_left_out(self):
        results = compare_systems({"system-a": [0.1, 0.2], "system-b": [0.5, 0.6],
                                   "failed": []})
        assert [r["systems"] for r in results] == [["system-a", "system-b"]]
        assert compare_systems({"system-a": [0.1], "failed": []}) == []
