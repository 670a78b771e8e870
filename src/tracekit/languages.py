"""Word and tree universes, and depth-truncated languages.

A truncated language is a total table from all words up to a fixed depth to
output values; it is the finite stand-in for the infinite language spaces
the engines converge to.  It is held as one column in `enumerate_words`
order, the one word order, which only this module knows (`unfold_words`,
`word_position`, `word_at`).  The words up to length k are the first
entries of every longer list, so a word has the same position in every
column deep enough to hold it.  A boolean column holds the values.  A
rational column holds integers: entry i is a numerator over `D * L**k`,
k the length of word i, and the language carries `(D, L)` -- on a
subdistribution machine these are the step view's denominators, so the
engines hand over the integers they compute and two of their columns
compare as integer lists; a rational table from outside is held the same
way, over `(lcm of its denominators, 1)`.  `Fraction`s appear only when a
value is read.  Trees up to a height are unfolded
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
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Iterable, Mapping, Optional

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
    which is the trees' own order.  `node` runs once per tree: a tree that
    a lower layer already holds keeps its value, found by its symbol and
    its kids' places in `values`.  Before it is built, the layer's trees
    are counted against `guard` and then their nodes, summed over the
    trees, against `LETTER_GUARD`; `SizeGuardError` when either is
    exceeded.  A layer that adds no tree ends the unfolding.
    """
    if depth < 1:
        raise KernelError("tree depth must be >= 1")
    arities = [(s, signature[s]) for s in sorted(signature, key=canon_key)]
    values: list = []  # every tree's value, each tree once, in the order first built
    place: dict = {}  # (symbol, kids' places in values) -> the tree's place in values
    layer, total = [], 0  # the places of the trees up to a height; their nodes, summed
    for _ in range(depth):
        n = len(layer)
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
        nxt = []
        for s, a in arities:
            for kids in product(layer, repeat=a):
                i = place.get((s, kids))
                if i is None:
                    i = place[s, kids] = len(values)
                    values.append(node(s, tuple(values[k] for k in kids)))
                nxt.append(i)
        layer = nxt
    return [values[i] for i in layer]


def enumerate_trees(signature: Mapping[str, int], depth: int, guard: int = DEFAULT_GUARD) -> list[Tree]:
    """All trees of height <= depth, in a deterministic structural order:
    `canon_key` order.  Empty when the signature has no nullary symbol."""
    return unfold_trees(signature, depth, Tree, guard)


# ---------------------------------------------------------------------------
# truncated languages


@dataclass(eq=False)
class TruncatedLanguage:
    """Total map from words of length <= depth to output values, held as
    the column `column`: entry i is the value of word i of
    `enumerate_words(alphabet, depth)`.

    `over` is `None` on a boolean column, whose entries are the values.  On
    a rational column it is `(D, L)`, and entry i is an integer: the value's
    numerator over `D * L**len(word i)`.  `.value`, `.table` and `.items()`
    give the values as `Fraction`s; `==` is value equality, whatever the
    denominators.
    """

    alphabet: Universe
    depth: int
    column: list
    over: Optional[tuple] = None

    def __post_init__(self):
        """An engine's column is checked by its length.  Anything else is a
        table from outside, `{word: value}`, which must be total; it becomes
        the column.  A column of values that does not start with a boolean,
        from outside or from a list without `over`, is rational: it is held
        over `(D, 1)`, `D` the lcm of its denominators."""
        column = self.column
        if isinstance(column, list):
            if len(column) != count_words(len(self.alphabet), self.depth):
                raise ShapeMismatchError(
                    f"column must hold one value per word of length <= {self.depth}")
        else:
            table, words = column, enumerate_words(self.alphabet, self.depth)
            try:
                if len(table) != len(words):
                    raise KeyError
                column = [table[w] for w in words]
            except KeyError:
                raise ShapeMismatchError(
                    f"table must be total on words of length <= {self.depth}") from None
        if self.over is None and type(column[0]) is not bool:
            for i, v in enumerate(column):
                if type(v) is bool or not isinstance(v, (int, Fraction)):
                    raise KernelError(f"entry {v!r} at word {word_at(self.alphabet, i)!r} "
                                      "is not a rational, as the column's first entry is")
            d = lcm(*(v.denominator for v in column))
            column = [v.numerator * (d // v.denominator) for v in column]
            self.over = (d, 1)
        self.column = column

    def denominators(self) -> list:
        """Each entry's denominator `D * L**k`, in column order: one power
        per length.  Rational columns only."""
        d, scale = self.over
        n, dens = len(self.alphabet), []
        for k in range(self.depth + 1):
            dens += [d * scale ** k] * n ** k
        return dens

    @property
    def table(self) -> dict:
        return dict(self.items())

    def value(self, word: tuple):
        word = tuple(word)
        if len(word) > self.depth:
            raise KernelError(f"word {word!r} beyond truncation depth {self.depth}")
        v = self.column[word_position(self.alphabet, word)]
        if self.over is None:
            return v
        d, scale = self.over
        return Fraction(v, d * scale ** len(word))

    def items(self):
        words = enumerate_words(self.alphabet, self.depth)
        if self.over is None:
            return zip(words, self.column)
        return zip(words, map(Fraction, self.column, self.denominators()))

    def __eq__(self, other):
        if not isinstance(other, TruncatedLanguage):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.depth == other.depth
                and (self.over is None) == (other.over is None)
                and _first_difference(self, other) is None)


def _first_difference(l1: TruncatedLanguage, l2: TruncatedLanguage) -> Optional[int]:
    """The first position at which two columns of one shape and one kind
    differ in value, or `None`.  Columns over the same denominators compare
    entry by entry; others cross-multiply, one length at a time."""
    a, b = l1.column, l2.column
    if l1.over == l2.over:
        if a == b:
            return None
        return next(i for i, (u, v) in enumerate(zip(a, b)) if u != v)
    (d1, s1), (d2, s2) = l1.over, l2.over
    n, start, level = len(l1.alphabet), 0, 1
    for k in range(l1.depth + 1):
        # a[i] / (d1 * s1**k) == b[i] / (d2 * s2**k), for the words of length k
        f, g = d2 * s2 ** k, d1 * s1 ** k
        for i in range(start, start + level):
            if a[i] * f != b[i] * g:
                return i
        start, level = start + level, level * n
    return None


def language_equal(l1: TruncatedLanguage, l2: TruncatedLanguage):
    """Value equality of two columns; on failure also return the first
    differing word.  `ShapeMismatchError` unless both have one alphabet,
    one depth, and are both boolean or both rational."""
    if l1.alphabet != l2.alphabet or l1.depth != l2.depth:
        raise ShapeMismatchError("languages have different alphabet or depth")
    if (l1.over is None) != (l2.over is None):
        raise ShapeMismatchError("a boolean and a rational language were compared")
    i = _first_difference(l1, l2)
    return (True, None) if i is None else (False, word_at(l1.alphabet, i))
