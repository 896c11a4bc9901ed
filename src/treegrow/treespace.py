"""Ulam-Harris words, plane trees and rooted subtrees.

Every tree in this package is a finite set of words of positive integers;
the empty word is the root.  A *plane tree* is closed under taking parents
and left siblings, so the children of a vertex occupy positions 1..k
exactly.  A *rooted subtree* is closed under taking parents only, so
children may sit at arbitrary positions.

Both containers are immutable value types: they hash and compare by their
vertex set and are safe to share between threads.

A plane tree is also its *child-count word*: the child counts of its
vertices in preorder, a tuple of n ints for n vertices (the Lukasiewicz
word).  The exact oracles enumerate, weigh and push trees as these words
and build a ``PlaneTree`` only to show one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from .errors import DomainError, ParseError

Word = Tuple[int, ...]

# A plane tree's child counts in preorder: one int per vertex (see child_count_word)
CountWord = Tuple[int, ...]

ROOT: Word = ()


def word_to_text(u: Word) -> str:
    """Render a word, the root as ``e`` and e.g. ``(1, 2)`` as ``1.2``."""
    return "e" if not u else ".".join(str(i) for i in u)


def word_from_text(text: str) -> Word:
    text = text.strip()
    if not text:
        raise ParseError("empty word")
    if text == "e":
        return ROOT
    letters = []
    for token in text.split("."):
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"malformed word {text!r}: bad letter {token!r}") from None
        if value < 1:
            raise ParseError(f"malformed word {text!r}: letters must be positive")
        letters.append(value)
    return tuple(letters)


class _WordSet:
    """Common storage and behaviour of plane trees and rooted subtrees.

    Every letter is checked before the words are hashed, so ``1.0`` or
    ``True`` cannot stand in for ``1``.  Then one pass checks each word's
    parent and, in a plane tree, its left sibling.
    """

    __slots__ = ("_vertices", "_kids")

    kind = "tree"
    closed_under_left_siblings = False

    def __init__(self, vertices: Iterable[Word]):
        words = [tuple(u) for u in vertices]
        for u in words:
            for letter in u:
                if type(letter) is not int or letter < 1:
                    raise DomainError(f"invalid word {u!r}: letters must be positive integers")
        vs = frozenset(words)
        if ROOT not in vs:
            raise DomainError("a tree must contain the root (empty word)")
        kids: Dict[Word, int] = dict.fromkeys(vs, 0)
        for u in vs:
            if u:
                last, p = u[-1], u[:-1]
                if p not in kids:
                    raise DomainError(f"{self.kind} not closed under parents: {word_to_text(u)} present, parent missing")
                if last > 1 and self.closed_under_left_siblings and p + (last - 1,) not in kids:
                    raise DomainError(f"{self.kind} not closed under left siblings: {word_to_text(u)} present, "
                                      f"{word_to_text(p + (last - 1,))} missing")
                kids[p] += 1
        self._vertices = vs
        self._kids = kids

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    def sorted_vertices(self) -> List[Word]:
        """Vertices in canonical order: lexicographic, prefixes first."""
        return sorted(self._vertices)

    def children_count(self, u: Word) -> int:
        u = tuple(u)
        if u not in self._vertices:
            raise DomainError(f"vertex {word_to_text(u)} is not in the {self.kind}")
        return self._kids[u]

    def children_positions(self, u: Word) -> Tuple[int, ...]:
        u = tuple(u)
        if u not in self._vertices:
            raise DomainError(f"vertex {word_to_text(u)} is not in the {self.kind}")
        return tuple(sorted(v[-1] for v in self._vertices if len(v) == len(u) + 1 and v[:-1] == u))

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.sorted_vertices())

    def __contains__(self, u) -> bool:
        return tuple(u) in self._vertices

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._vertices))

    def __repr__(self):
        return f"{type(self).__name__}({format_tree(self)!r})"


class RootedSubtree(_WordSet):
    """A finite parent-closed set of Ulam-Harris words."""

    kind = "rooted subtree"


class PlaneTree(_WordSet):
    """A finite parent- and left-sibling-closed set of Ulam-Harris words."""

    kind = "plane tree"
    closed_under_left_siblings = True


def is_right_leaning_leaf_addition(tree: PlaneTree, bigger: PlaneTree) -> bool:
    """True iff ``bigger`` is ``tree`` plus one new rightmost child of some vertex."""
    return is_bouquet_addition(tree, bigger, 1)


def is_bouquet_addition(tree: PlaneTree, bigger: PlaneTree, d: int) -> bool:
    """True iff ``bigger`` is ``tree`` plus d new rightmost sibling leaves at one vertex."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    small, big = tree.vertices, bigger.vertices
    return small < big and adds_bouquet(tree._kids, big - small, d)


def adds_bouquet(kids: Mapping[Word, int], added: Set[Word], d: int) -> bool:
    """True iff the words ``added`` are d new rightmost sibling leaves of one vertex.

    ``kids`` maps every vertex of a plane tree to its number of children,
    and ``added`` holds words outside that tree.  With ``d = 1`` this is a
    right-leaning leaf addition.
    """
    if len(added) != d:
        return False
    parents = {u[:-1] for u in added if u}
    if len(parents) != 1:
        return False
    (v,) = parents
    k = kids.get(v)
    return k is not None and {u[-1] for u in added} == set(range(k + 1, k + d + 1))


def child_count_word(tree: PlaneTree) -> CountWord:
    """The child counts of the vertices of a plane tree in canonical order, which is preorder.

    This is the tree's Lukasiewicz word: a plane tree is its child-count
    word, and the word of a tree of n vertices holds n small ints.
    """
    if not isinstance(tree, PlaneTree):
        raise DomainError("only a plane tree has a child-count word")
    kids = tree._kids
    return tuple([kids[u] for u in sorted(tree._vertices)])


def from_child_count_word(word: Sequence[int]) -> PlaneTree:
    """The plane tree whose child-count word is ``word``; a sequence that is no tree's word is refused.

    Child j of the vertex at position i sits after the vertex and the
    subtrees of its j - 1 left siblings (``child_sizes``), so every vertex
    is named in one pass and the tree needs no closure check.
    """
    if any(type(k) is not int for k in word):
        raise DomainError(f"invalid child-count word {tuple(word)!r}: counts must be integers")
    vertices = [ROOT] * len(word)
    for i, parts in enumerate(child_sizes(word)):
        start = i + 1
        for j, size in enumerate(parts, start=1):
            vertices[start] = vertices[i] + (j,)
            start += size
    kids = dict(zip(vertices, word))
    tree = object.__new__(PlaneTree)
    tree._vertices, tree._kids = frozenset(kids), kids
    return tree


def child_sizes(word: CountWord) -> List[Tuple[int, ...]]:
    """For each position of a child-count word, the subtree sizes of that vertex's children, left to right.

    One pass from the end: a vertex with k children closes the k subtrees
    read last, and its own subtree, of one plus their sizes, opens.  The
    subtree of the vertex at position i spans ``word[i:i + 1 + sum(parts)]``
    and its child j starts at ``i + 1 + sum(parts[:j])``.  A sequence that
    is not a tree's word is refused.
    """
    open_sizes: List[int] = []  # sizes of the subtrees read so far that have no parent yet, leftmost last
    parts: List[Tuple[int, ...]] = [()] * len(word)
    for i in range(len(word) - 1, -1, -1):
        k = word[i]
        if not 0 <= k <= len(open_sizes):
            break
        if k:
            below = parts[i] = tuple(open_sizes[:-k - 1:-1])
            del open_sizes[-k:]
            open_sizes.append(1 + sum(below))
        else:
            open_sizes.append(1)
    else:
        if len(open_sizes) == 1:
            return parts
    raise DomainError(f"invalid child-count word {tuple(word)!r}: not the word of a plane tree")


def format_tree(tree: _WordSet) -> str:
    """Comma-separated canonical word list, e.g. ``e,1,2,1.1``."""
    return ",".join(word_to_text(u) for u in tree.sorted_vertices())


class GrowingText:
    """The canonical text of a growing word set, kept up to date one word at a time.

    ``str()`` equals :func:`format_tree` of the words added so far.  Words
    stay sorted as tuples, which is not the order of their texts: ``(2,)``
    comes before ``(10,)``, while ``"10"`` sorts before ``"2"``.
    """

    __slots__ = ("_words", "_texts")

    def __init__(self):
        self._words: List[Word] = [ROOT]
        self._texts: List[str] = ["e"]

    def add(self, u: Word, text: str):
        """Insert a word that is not present yet, with its text ``word_to_text(u)``.

        The caller passes the text it has already rendered, for a label or
        to check a token, so each new word is rendered once.
        """
        i = bisect_left(self._words, u)
        self._words.insert(i, u)
        self._texts.insert(i, text)

    def __str__(self) -> str:
        return ",".join(self._texts)


def parse_tree(text: str, kind: str = "plane"):
    """Parse the word-list format into a :class:`PlaneTree` or :class:`RootedSubtree`.

    Closure violations are reported as parse errors naming the offending
    word.
    """
    if kind not in ("plane", "subtree"):
        raise DomainError(f"unknown tree kind {kind!r}")
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError("empty tree text")
    words = [word_from_text(t) for t in tokens]
    cls = PlaneTree if kind == "plane" else RootedSubtree
    try:
        return cls(words)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def to_dot(tree: _WordSet, name: str = "tree") -> str:
    """GraphViz rendering: one node per word, edges parent -> child in position order."""
    lines = [f"digraph {name} {{"]
    order = tree.sorted_vertices()
    for u in order:
        lines.append(f'  "{word_to_text(u)}";')
    for u in order:
        if u:
            lines.append(f'  "{word_to_text(u[:-1])}" -> "{word_to_text(u)}";')
    lines.append("}")
    return "\n".join(lines)
