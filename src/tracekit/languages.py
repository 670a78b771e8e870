"""Word and tree universes, and depth-truncated languages.

A truncated language is a total table from all words up to a fixed depth to
output values; it is the finite stand-in for the infinite language spaces
the engines converge to.  It is held as one column of values in
`enumerate_words` order, the one word order, which only this module knows
(`unfold_words`, `word_position`, `word_at`).  The words up to length k are
the first entries of every longer list, so a word has the same position in
every column deep enough to hold it.  Trees up to a height are unfolded
here too, the way words are: `unfold_trees` folds every tree from its
kids' values, one layer of trees from the layer below, each layer counted
before it is built.  `enumerate_trees`, the tree engine's columns and the
report's tree names (`tree_name`) are all that one fold, in its one order.
The truncation depth is always an explicit parameter.  Trace sets have no
type here: the fixpoint engine returns each state's traces as a plain
branching value over (word, terminal) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping

from tracekit.kernel import KernelError, Universe, canon_key

#: Hard ceiling on enumerated objects, shared by words and trees.
DEFAULT_GUARD = 20_000
#: Hard ceiling on the letters of the words up to a depth, summed over the
#: words, and on the nodes of the trees up to a height, summed over the
#: trees.  Within `DEFAULT_GUARD` words an alphabet of two or more letters
#: reaches at most 196,610 letters (two letters at depth 13), so only a
#: one-letter alphabet meets this ceiling: after depth 631.  The trees of
#: one constant and one unary symbol meet it after the same height.
LETTER_GUARD = 200_000


class SizeGuardError(KernelError):
    """An enumeration would exceed the configured object bound."""


class ShapeMismatchError(KernelError):
    """Two languages with different alphabet/depth/signature were compared."""


# ---------------------------------------------------------------------------
# words

Word = tuple  # a word is a tuple of letters


def count_words(letters: int, depth: int, guard: int = DEFAULT_GUARD) -> int:
    """The number of words of length <= depth over `letters` letters,
    counted without building them; `SizeGuardError` when it exceeds `guard`,
    or when their letters, summed, exceed `LETTER_GUARD`.  Each length is
    checked in turn, its words before its letters."""
    if depth < 0:
        raise KernelError("depth must be >= 0")
    count, level, total = 0, 1, 0  # words up to some length, words of that length, letters
    for length in range(depth + 1):
        count += level
        if count > guard:
            raise SizeGuardError(f"more than {guard} words up to length {depth}")
        total += level * length
        if total > LETTER_GUARD:
            raise SizeGuardError(f"more than {LETTER_GUARD} letters in the words up to length "
                                 f"{depth} (limits: {guard} words, {LETTER_GUARD} letters)")
        level *= letters
        if not level:
            break
    return count


def unfold_words(alphabet: Universe, depth: int, root, step: Callable) -> list:
    """`root` at the empty word and `step(value at w, a)` at `w + (a,)`, for
    every word of length <= depth, listed in `enumerate_words` order."""
    letters = alphabet.elements
    n = len(letters)
    values = [root]
    for i in range(count_words(n, depth) - 1):
        # each length lists its words prefix by prefix, so word i + 1 is word i // n
        # followed by letter i % n
        values.append(step(values[i // n], letters[i % n]))
    return values


def enumerate_words(alphabet: Universe, depth: int) -> list[tuple]:
    """All words of length <= depth, in length-then-alphabet order."""
    return unfold_words(alphabet, depth, (), lambda w, a: w + (a,))


def word_position(alphabet: Universe, word: tuple) -> int:
    """The position of `word` in `enumerate_words(alphabet, depth)` for
    every depth >= len(word)."""
    n = len(alphabet)
    shorter, rank, level = 0, 0, 1
    for a in word:
        shorter += level
        level *= n
        rank = rank * n + alphabet.index(a)
    return shorter + rank


def word_at(alphabet: Universe, i: int) -> tuple:
    """The word at position `i` of `enumerate_words`: `word_position`'s inverse."""
    n, length, level = len(alphabet), 0, 1
    while i >= level:  # skip the shorter words
        i, length, level = i - level, length + 1, level * n
    return tuple(alphabet.elements[i // n ** (length - 1 - k) % n] for k in range(length))


def explore_subsets(states: Universe, successors: Callable[[frozenset], Iterable[tuple]],
                    guard: int = DEFAULT_GUARD) -> tuple[list, dict]:
    """The subset construction's reachable part, breadth first from the
    singletons of `states` in state order.

    `successors(u)` yields (edge, subset) pairs for subset `u`, in the order
    its successors are discovered; it is called once per subset, in
    discovery order.  Returns the subsets in discovery order and
    `{edge: subset}` in the same order.  `SizeGuardError` once more than
    `guard` subsets are found.
    """
    subsets = [frozenset([x]) for x in states]
    found = set(subsets)
    edges: dict = {}
    for u in subsets:  # the list grows as successors are discovered
        if len(subsets) > guard:
            raise SizeGuardError(f"more than {guard} subsets")
        for edge, v in successors(u):
            edges[edge] = v
            if v not in found:
                found.add(v)
                subsets.append(v)
    return subsets, edges


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class Tree:
    """A finite node-labelled tree over an operation/arity signature."""

    symbol: str
    children: tuple = ()

    def _canon_key_(self):
        return (12, canon_key(self.symbol), canon_key(self.children))

    def __repr__(self):
        return tree_name(self.symbol, tuple(map(repr, self.children)))


def tree_name(symbol, kids: tuple) -> str:
    """The name of the tree `symbol(kids)` from its kids' names: `symbol`
    alone for a leaf."""
    return f"{symbol}({', '.join(kids)})" if kids else str(symbol)


def unfold_trees(signature: Mapping[str, int], depth: int, node: Callable,
                 guard: int = DEFAULT_GUARD) -> list:
    """`node(symbol, kid values)` at every tree of height <= depth, listed in
    `enumerate_trees` order; empty when the signature has no nullary symbol.

    Each layer, the trees up to one height, is built from the layer below:
    a symbol over every tuple of its trees, symbols in `canon_key` order,
    which is the trees' own order.  Before it is built, the layer's trees
    are counted against `guard` and then their nodes, summed over the
    trees, against `LETTER_GUARD`; `SizeGuardError` when either is
    exceeded.  A layer that adds no tree ends the unfolding.
    """
    if depth < 1:
        raise KernelError("tree depth must be >= 1")
    arities = [(s, signature[s]) for s in sorted(signature, key=canon_key)]
    values, total = [], 0  # the trees' values and their nodes, summed
    for _ in range(depth):
        n = len(values)
        count = sum(n ** a for _, a in arities)
        if count > guard:
            raise SizeGuardError(f"{count} trees exceeds guard {guard}")
        # a tree has one node more than its kids, and each of a symbol's a kid
        # positions holds every tree of the layer below n ** (a - 1) times
        total = sum(n ** a + (a and a * n ** (a - 1) * total) for _, a in arities)
        if total > LETTER_GUARD:
            raise SizeGuardError(
                f"more than {LETTER_GUARD} nodes in the trees up to height {depth}")
        if count == n:  # a fixpoint: deeper layers add nothing either
            break
        values = [node(s, kids) for s, a in arities for kids in product(values, repeat=a)]
    return values


def enumerate_trees(signature: Mapping[str, int], depth: int, guard: int = DEFAULT_GUARD) -> list[Tree]:
    """All trees of height <= depth, in a deterministic structural order:
    `canon_key` order.  Empty when the signature has no nullary symbol."""
    return unfold_trees(signature, depth, Tree, guard)


# ---------------------------------------------------------------------------
# truncated languages


@dataclass
class TruncatedLanguage:
    """Total map from words of length <= depth to output values, held as
    the column `values`: entry i is the value of word i of
    `enumerate_words(alphabet, depth)`."""

    alphabet: Universe
    depth: int
    values: list

    def __post_init__(self):
        """An engine's column is checked by its length.  Anything else is a
        table from outside, `{word: value}`, which must be total; it becomes
        the column."""
        if isinstance(self.values, list):
            if len(self.values) != count_words(len(self.alphabet), self.depth):
                raise ShapeMismatchError(
                    f"column must hold one value per word of length <= {self.depth}")
            return
        table, words = self.values, enumerate_words(self.alphabet, self.depth)
        try:
            if len(table) == len(words):
                self.values = [table[w] for w in words]
                return
        except KeyError:
            pass
        raise ShapeMismatchError(f"table must be total on words of length <= {self.depth}")

    @property
    def table(self) -> dict:
        return dict(self.items())

    def value(self, word: tuple):
        word = tuple(word)
        if len(word) > self.depth:
            raise KernelError(f"word {word!r} beyond truncation depth {self.depth}")
        return self.values[word_position(self.alphabet, word)]

    def items(self):
        return zip(enumerate_words(self.alphabet, self.depth), self.values)


def language_equal(l1: TruncatedLanguage, l2: TruncatedLanguage):
    """Column equality; on failure also return the first differing word."""
    if l1.alphabet != l2.alphabet or l1.depth != l2.depth:
        raise ShapeMismatchError("languages have different alphabet or depth")
    if l1.values == l2.values:
        return True, None
    i = next(i for i, (u, v) in enumerate(zip(l1.values, l2.values)) if u != v)
    return False, word_at(l1.alphabet, i)
