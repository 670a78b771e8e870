"""Word and tree universes, and depth-truncated languages.

A truncated language is a total table from all words up to a fixed depth to
output values; it is the finite stand-in for the infinite language spaces
the engines converge to.  Trees up to a height are enumerated here too, once
per report: the tree engine evaluates each state on that one list, with no
table class of its own.  The truncation depth is always an explicit
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from tracekit.kernel import KernelError, MonadKind, MonadValue, Universe, canon_key

#: Hard ceiling on enumerated objects, shared by words and trees.
DEFAULT_GUARD = 20_000


class SizeGuardError(KernelError):
    """An enumeration would exceed the configured object bound."""


class ShapeMismatchError(KernelError):
    """Two languages with different alphabet/depth/signature were compared."""


# ---------------------------------------------------------------------------
# words

Word = tuple  # a word is a tuple of letters


def count_words(letters: int, depth: int, guard: int = DEFAULT_GUARD) -> int:
    """The number of words of length <= depth over `letters` letters,
    counted without building them; `SizeGuardError` when it exceeds `guard`."""
    if depth < 0:
        raise KernelError("depth must be >= 0")
    count, level = 0, 1  # words up to some length, words of that length
    for _ in range(depth + 1):
        count += level
        if count > guard:
            raise SizeGuardError(f"more than {guard} words up to length {depth}")
        level *= letters
        if not level:
            break
    return count


def enumerate_words(alphabet: Universe, depth: int, guard: int = DEFAULT_GUARD) -> list[tuple]:
    """All words of length <= depth, in length-then-alphabet order."""
    count_words(len(alphabet), depth, guard)
    words: list[tuple] = [()]
    level: list[tuple] = [()]
    for _ in range(depth):
        level = [w + (a,) for w in level for a in alphabet]
        if not level:
            break
        words.extend(level)
    return words


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

    @property
    def height(self) -> int:
        if not self.children:
            return 1
        return 1 + max(c.height for c in self.children)

    def __repr__(self):
        if not self.children:
            return str(self.symbol)
        return f"{self.symbol}({', '.join(repr(c) for c in self.children)})"


def enumerate_trees(signature: Mapping[str, int], depth: int, guard: int = DEFAULT_GUARD) -> list[Tree]:
    """All trees of height <= depth, in a deterministic structural order.

    Empty when the signature has no nullary symbol.
    """
    if depth < 1:
        raise KernelError("tree depth must be >= 1")
    symbols = sorted(signature, key=canon_key)
    trees: list[Tree] = [Tree(s) for s in symbols if signature[s] == 0]
    for _ in range(depth - 1):
        layer = list(trees)
        for s in symbols:
            n = signature[s]
            if n == 0:
                continue
            stack: list[list[Tree]] = [[]]
            for _slot in range(n):
                stack = [partial + [t] for partial in stack for t in layer]
            for children in stack:
                cand = Tree(s, tuple(children))
                if cand not in trees:
                    trees.append(cand)
        if len(trees) > guard:
            raise SizeGuardError(f"{len(trees)} trees exceeds guard {guard}")
        if len(trees) == len(layer):  # a fixpoint: deeper layers add nothing either
            break
    return sorted(trees, key=canon_key)


# ---------------------------------------------------------------------------
# truncated languages


@dataclass
class TruncatedLanguage:
    """Total map from words of length <= depth to output values."""

    alphabet: Universe
    depth: int
    table: dict

    def __post_init__(self):
        """Check that the table is total, and keep it in `enumerate_words`
        order, so that iterating it visits words in that order."""
        words = enumerate_words(self.alphabet, self.depth)
        if list(self.table) != words:
            if len(self.table) != len(words) or not all(w in self.table for w in words):
                raise ShapeMismatchError(
                    f"table must be total on words of length <= {self.depth}"
                )
            self.table = {w: self.table[w] for w in words}

    @classmethod
    def tabulate(cls, alphabet: Universe, depth: int, fn: Callable[[tuple], object]):
        return cls(alphabet, depth, {w: fn(w) for w in enumerate_words(alphabet, depth)})

    def value(self, word: tuple):
        try:
            return self.table[tuple(word)]
        except KeyError:
            raise KernelError(f"word {word!r} beyond truncation depth {self.depth}") from None

    def items(self):
        return self.table.items()


def language_equal(l1: TruncatedLanguage, l2: TruncatedLanguage):
    """Table equality; on failure also return the first differing word."""
    if l1.alphabet != l2.alphabet or l1.depth != l2.depth:
        raise ShapeMismatchError("languages have different alphabet or depth")
    other = l2.table
    for w, v in l1.table.items():
        if v != other[w]:
            return False, w
    return True, None


@dataclass
class TruncatedTraceSet:
    """Branching value over complete traces (word, terminal) of length <= depth."""

    kind: MonadKind
    depth: int
    payload: MonadValue

    def __post_init__(self):
        if self.payload.kind is not self.kind:
            raise ShapeMismatchError("trace payload kind disagrees with declared kind")
        for word, _terminal in self.payload.support:
            if len(word) > self.depth:
                raise ShapeMismatchError(f"trace {word!r} longer than depth {self.depth}")

    def retained_mass(self):
        """Total mass kept after truncation (subdistributions only)."""
        return self.payload.mass()
