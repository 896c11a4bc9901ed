import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from treegrow.errors import DomainError, ParseError
from treegrow.oracle import enumerate_plane_trees, enumerate_subtrees
from treegrow.treespace import (PlaneTree, RootedSubtree, child_count_word, child_sizes, format_tree,
                                from_child_count_word, is_bouquet_addition, is_right_leaning_leaf_addition,
                                parse_tree, to_dot, word_from_text, word_to_text)


def pt(*words):
    return PlaneTree(words)


def rs(*words):
    return RootedSubtree(words)


class TestConstruction:
    def test_plane_requires_root(self):
        with pytest.raises(DomainError):
            PlaneTree([(1,)])

    def test_plane_requires_parent_closure(self):
        with pytest.raises(DomainError):
            PlaneTree([(), (1, 1)])

    def test_plane_requires_left_siblings(self):
        with pytest.raises(DomainError):
            PlaneTree([(), (2,)])

    def test_subtree_allows_gaps(self):
        tau = rs((), (2,), (5,), (2, 3))
        assert len(tau) == 4

    def test_subtree_still_parent_closed(self):
        with pytest.raises(DomainError):
            RootedSubtree([(), (2, 3)])

    def test_letters_positive(self):
        with pytest.raises(DomainError):
            PlaneTree([(), (0,)])

    def test_value_semantics(self):
        a = pt((), (1,))
        b = pt((1,), ())
        assert a == b and hash(a) == hash(b)
        assert a != rs((), (1,))


@st.composite
def word_lists(draw):
    """Words of length 0-3 over {0, 1, 2, 3} and bad letters, often closed under parents and siblings.

    Words over {1, 2, 3} are closed under prefixes (and left siblings) or
    not; then a word may gain a twin, placed before or after it, with one
    letter turned into a float, a bool or a list; then a few letters turn
    into 0 or "x", and the root may go.
    """
    words = draw(st.lists(st.lists(st.sampled_from([1, 2, 3]), max_size=3).map(tuple), max_size=8))
    closure = draw(st.sampled_from(["none", "parents", "parents and siblings"]))
    if closure != "none":
        words += [u[:i] for u in words for i in range(len(u))]
    if closure == "parents and siblings":
        words += [u[:-1] + (j,) for u in words if u for j in range(1, u[-1])]
    twins = [u for u in words if u]
    if twins and draw(st.booleans()):
        u = draw(st.sampled_from(twins))
        k = draw(st.integers(0, len(u) - 1))
        letter = draw(st.sampled_from([float, bool, lambda x: [x]]))(u[k])
        words.insert(draw(st.integers(0, len(words))), u[:k] + (letter,) + u[k + 1:])
    for _ in range(draw(st.integers(0, 2)) if words else 0):
        i = draw(st.integers(0, len(words) - 1))
        if words[i]:
            k = draw(st.integers(0, len(words[i]) - 1))
            words[i] = words[i][:k] + (draw(st.sampled_from([0, "x"])),) + words[i][k + 1:]
    if draw(st.integers(0, 3)) == 0:
        words = [u for u in words if u]
    return words


class TestOnePassCheck:
    """The letter pass and the word pass accept and refuse what the three-pass reference does."""

    @settings(max_examples=400, deadline=None)
    @given(word_lists(), st.booleans())
    # an equal float or bool letter must not merge into an int word, and a list letter is never hashed
    @example([(), (1,), (1.0,)], True)
    @example([(), (1.0,), (1,)], False)
    @example([(), (1,), (1.0, 1)], True)
    @example([(), (True,)], False)
    @example([(), ([1],)], True)
    def test_same_trees_as_three_passes(self, words, plane):
        cls = PlaneTree if plane else RootedSubtree
        try:
            vertices, kids = helpers.three_pass_tree_check(words, plane)
        except DomainError as exc:
            with pytest.raises(DomainError) as refused:
                cls(words)
            assert type(refused.value) is type(exc)
            if len(helpers.tree_rule_breaks(words, plane)) == 1:
                assert str(refused.value) == str(exc)
            return
        tree = cls(words)
        assert tree.vertices == vertices
        assert {u: tree.children_count(u) for u in vertices} == kids


class TestChildrenCount:
    def test_single_vertex(self):
        assert pt(()).children_count(()) == 0

    def test_direct_count(self):
        assert pt((), (1,), (2,), (1, 1)).children_count(()) == 2

    def test_subtree_count(self):
        assert rs((), (2,), (5,), (2, 3)).children_count(()) == 2

    def test_missing_vertex(self):
        with pytest.raises(DomainError):
            pt(()).children_count((1,))


class TestGrowthPredicates:
    def test_first_child(self):
        assert is_right_leaning_leaf_addition(pt(()), pt((), (1,)))

    def test_next_sibling(self):
        assert is_right_leaning_leaf_addition(pt((), (1,)), pt((), (1,), (2,)))

    def test_two_added(self):
        small = pt((), (1,), (2,))
        big = pt((), (1,), (2,), (3,), (1, 1))
        assert not is_right_leaning_leaf_addition(small, big)

    def test_left_leaning_rejected(self):
        # adding (1,1) to a tree where vertex 1 already has a child at 1 is fine,
        # but adding a *middle* position cannot even produce a plane tree; instead
        # check a non-rightmost parent choice: new leaf at root position 1 when
        # the root already has two children is position 3, not 1.
        small = pt((), (1,), (2,))
        big = pt((), (1,), (2,), (1, 1))
        assert is_right_leaning_leaf_addition(small, big)  # rightmost at vertex (1,)

    def test_bouquet_at_root(self):
        assert is_bouquet_addition(pt(()), pt((), (1,), (2,)), 2)

    def test_bouquet_at_child(self):
        small = pt((), (1,), (2,))
        big = pt((), (1,), (2,), (1, 1), (1, 2))
        assert is_bouquet_addition(small, big, 2)

    def test_single_leaf_is_not_a_pair(self):
        assert not is_bouquet_addition(pt(()), pt((), (1,)), 2)

    def test_split_bouquet_rejected(self):
        small = pt((), (1,), (2,))
        big = pt((), (1,), (2,), (3,), (1, 1))
        assert not is_bouquet_addition(small, big, 2)

    def test_leaf_addition_is_size_one_inclusion(self):
        for n in range(1, 6):
            for small in enumerate_plane_trees(n):
                for big in enumerate_plane_trees(n + 1):
                    if is_right_leaning_leaf_addition(small, big):
                        assert small.vertices < big.vertices
                        assert len(big) == len(small) + 1


class TestRootDecomposition:
    """A tree's child-count word is its root's count followed by its subtrees' words: how trees are enumerated."""

    def test_compose_empty(self):
        assert child_count_word(pt(())) == (0,) and from_child_count_word((0,)) == pt(())

    def test_compose_two_leaves(self):
        assert from_child_count_word((2,) + (0,) + (0,)) == pt((), (1,), (2,))

    def test_compose_path(self):
        assert from_child_count_word((1,) + (1, 0)) == pt((), (1,), (1, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 41)), max_size=4))
    def test_graft_is_the_checked_tree(self, picks):
        """Concatenated words give the tree the checked constructor builds from the grafted words."""
        subtrees = [enumerate_plane_trees(n)[i % len(enumerate_plane_trees(n))] for n, i in picks]
        word = (len(subtrees),) + sum((child_count_word(sub) for sub in subtrees), ())
        built = from_child_count_word(word)
        checked = PlaneTree([()] + [(j,) + u for j, sub in enumerate(subtrees, start=1) for u in sub.vertices])
        assert type(built) is PlaneTree and child_count_word(checked) == word
        assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
        assert {u: built.children_count(u) for u in checked.vertices} == \
            {u: checked.children_count(u) for u in checked.vertices}

    def test_other_word_sets_are_checked(self):
        with pytest.raises(DomainError, match="only a plane tree"):
            child_count_word(rs((), (2,)))


class TestChildCountWords:
    def test_preorder(self):
        tree = pt((), (1,), (2,), (1, 1), (1, 2), (2, 1))
        assert child_count_word(tree) == (2, 2, 0, 0, 1, 0)
        assert child_sizes((2, 2, 0, 0, 1, 0)) == [(3, 2), (1, 1), (), (), (1,), ()]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 3), st.integers(0, 4861))
    def test_round_trip(self, n, d, pick):
        """word -> tree -> word is the identity, and the tree is the one the checked constructor builds."""
        trees = enumerate_plane_trees(n, d)
        if not trees:
            return
        tree = trees[pick % len(trees)]
        word = child_count_word(tree)
        built = from_child_count_word(word)
        checked = PlaneTree(tree.sorted_vertices())
        assert type(built) is PlaneTree and child_count_word(built) == word and len(word) == n
        assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
        assert {u: built.children_count(u) for u in checked.vertices} == \
            {u: checked.children_count(u) for u in checked.vertices}
        sizes = child_sizes(word)
        for i, u in enumerate(checked.sorted_vertices()):
            kids = [v for v in checked.vertices if v[:-1] == u and v]
            assert sizes[i] == tuple(sum(1 for x in checked.vertices if x[:len(v)] == v) for v in sorted(kids))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=8))
    @example([])
    @example([0, 0])
    @example([2, 0])
    @example([1, 0, 0])
    def test_exactly_the_words_of_trees_are_accepted(self, counts):
        """A sequence is a tree's word iff each proper prefix has more children than vertices past the root."""
        partial = [sum(counts[:i]) - i for i in range(1, len(counts) + 1)]
        is_word = bool(counts) and partial[-1] == -1 and all(p >= 0 for p in partial[:-1])
        if is_word:
            assert child_count_word(from_child_count_word(counts)) == tuple(counts)
            assert len(child_sizes(counts)) == len(counts)
        else:
            with pytest.raises(DomainError, match="invalid child-count word"):
                from_child_count_word(counts)
            with pytest.raises(DomainError, match="invalid child-count word"):
                child_sizes(counts)

    @pytest.mark.parametrize("counts", [(1.0, 0), (True, 0), (-1,)], ids=["float", "bool", "negative"])
    def test_counts_must_be_non_negative_ints(self, counts):
        with pytest.raises(DomainError, match="invalid child-count word"):
            from_child_count_word(counts)


class TestSerialization:
    def test_root_text(self):
        assert word_to_text(()) == "e"
        assert word_from_text("e") == ()
        assert word_from_text("1.2") == (1, 2)

    def test_bad_word(self):
        with pytest.raises(ParseError):
            word_from_text("1.x")
        with pytest.raises(ParseError):
            word_from_text("0")

    def test_parse_root_only(self):
        assert parse_tree("e") == pt(())

    def test_parse_example(self):
        assert parse_tree("e,1,2,1.1") == pt((), (1,), (2,), (1, 1))

    def test_parse_missing_sibling(self):
        with pytest.raises(ParseError) as err:
            parse_tree("e,2")
        assert "2" in str(err.value)

    def test_parse_subtree_kind(self):
        assert parse_tree("e,2,5,2.3", kind="subtree") == rs((), (2,), (5,), (2, 3))

    def test_round_trip_plane_trees(self):
        for n in range(1, 8):
            for tree in enumerate_plane_trees(n):
                assert parse_tree(format_tree(tree)) == tree

    def test_round_trip_subtrees(self):
        for n in range(1, 6):
            for tau in enumerate_subtrees(n, dmax=3):
                assert parse_tree(format_tree(tau), kind="subtree") == tau

    def test_dot_output(self):
        dot = to_dot(pt((), (1,), (2,)))
        assert '"e" -> "1"' in dot and '"e" -> "2"' in dot

    @given(st.lists(st.integers(1, 4), min_size=0, max_size=5))
    @settings(max_examples=100)
    def test_word_text_round_trip(self, letters):
        word = tuple(letters)
        assert word_from_text(word_to_text(word)) == word
