"""Enumeration order, truncated-language invariants and guards."""

import random
from fractions import Fraction

import pytest

from tests import gen
from tracekit import languages
from tracekit.engines import em_language, logic_language, step_view
from tracekit.kernel import KernelError, MonadKind, Universe, canon_key
from tracekit.languages import (
    ShapeMismatchError,
    SizeGuardError,
    Tree,
    TruncatedLanguage,
    enumerate_trees,
    enumerate_words,
    explore_subsets,
    language_equal,
    word_at,
    word_position,
)


def test_enumerate_words_two_letters():
    assert enumerate_words(Universe(["a", "b"]), 1) == [(), ("a",), ("b",)]


def test_enumerate_words_unary():
    assert enumerate_words(Universe(["a"]), 3) == [(), ("a",), ("a", "a"), ("a", "a", "a")]


def test_enumerate_words_empty_alphabet():
    assert enumerate_words(Universe([]), 5) == [()]


def test_enumerate_words_prefix_complete():
    words = enumerate_words(Universe(["a", "b"]), 3)
    ws = set(words)
    assert all(w[:-1] in ws for w in words if w)


def test_enumerate_words_guard():
    with pytest.raises(SizeGuardError):
        enumerate_words(Universe(list("abcdefgh")), 6)


def test_enumerate_words_guard_stops_counting_at_the_guard():
    # 1 + 19,999 words, exactly the word guard, of 19,999 letters in all
    assert len(enumerate_words(Universe([f"a{i}" for i in range(19_999)]), 1)) == 20_000
    # 20,000 words over one letter hold 19,999 * 20,000 / 2 letters
    with pytest.raises(SizeGuardError, match="more than 200000 letters"):
        enumerate_words(Universe(["a"]), 19_999)
    with pytest.raises(SizeGuardError, match="more than 20000 words"):
        enumerate_words(Universe(["a", "b"]), 10**9)
    assert enumerate_words(Universe([]), 10**9) == [()]


def _shift_successors(u: frozenset):
    """Subsets of 0..3: letter "a" adds 1 to every member, "b" also keeps 0."""
    yield (u, "a"), frozenset(x + 1 for x in u if x < 3)
    yield (u, "b"), frozenset(x + 1 for x in u if x < 3) | {0}


def test_explore_subsets_order_singletons_then_successors():
    subsets, edges = explore_subsets(Universe([2, 0]), _shift_successors)
    assert subsets[:4] == [frozenset({2}), frozenset({0}), frozenset({3}),
                           frozenset({0, 3})]
    assert list(edges)[:2] == [(frozenset({2}), "a"), (frozenset({2}), "b")]
    assert [u for u, _ in edges][::2] == subsets
    assert set(edges.values()) <= set(subsets)


def test_explore_subsets_guard():
    assert len(explore_subsets(Universe([0]), _shift_successors)[0]) == 16
    with pytest.raises(SizeGuardError):
        explore_subsets(Universe([0]), _shift_successors, guard=15)


def test_enumerate_trees_stops_at_a_fixpoint():
    assert enumerate_trees({"c": 0, "d": 0}, 10**9) == [Tree("c"), Tree("d")]


def test_enumerate_trees_single_constant():
    assert enumerate_trees({"c": 0}, 2) == [Tree("c")]


def test_enumerate_trees_constant_and_binary():
    got = enumerate_trees({"c": 0, "f": 2}, 2)
    assert got == [Tree("c"), Tree("f", (Tree("c"), Tree("c")))]


def test_enumerate_trees_counts_each_layer_exactly():
    # trees of height <= h: 1 leaf + (height <= h - 1) + (height <= h - 1) ** 2,
    # that is 1, 3, 13, 183; the guard admits exactly that many
    sig = {"c": 0, "f": 1, "g": 2}
    assert [len(enumerate_trees(sig, h)) for h in (1, 2, 3, 4)] == [1, 3, 13, 183]
    assert len(enumerate_trees(sig, 4, guard=183)) == 183
    with pytest.raises(SizeGuardError, match="183 trees exceeds guard 182"):
        enumerate_trees(sig, 4, guard=182)


@pytest.mark.parametrize("signature, depth", [
    ({"c": 0, "f": 1, "g": 2}, 4), ({"d": 0, "c": 0, "h": 3}, 3), ({"c": 0, "g": 1}, 12),
    ({"c": 0, "f": 2}, 5), ({"b": 0, "a": 1, "z": 0, "k": 2}, 3),
])
def test_enumerate_trees_lists_canon_key_order_and_counts_its_nodes(signature, depth, monkeypatch):
    # the layers are built in order, not sorted; their nodes are counted, not
    # built, and the budget admits exactly the trees' nodes
    def size(t):
        return 1 + sum(map(size, t.children))

    trees = enumerate_trees(signature, depth)
    assert trees == sorted(trees, key=canon_key)
    nodes = sum(map(size, trees))
    monkeypatch.setattr(languages, "LETTER_GUARD", nodes)
    assert enumerate_trees(signature, depth) == trees
    monkeypatch.setattr(languages, "LETTER_GUARD", nodes - 1)
    with pytest.raises(SizeGuardError, match=f"more than {nodes - 1} nodes"):
        enumerate_trees(signature, depth)


def test_enumerate_trees_no_nullary():
    assert enumerate_trees({"f": 2}, 3) == []


def test_enumerate_trees_subtree_complete():
    trees = set(enumerate_trees({"c": 0, "f": 2}, 3))

    def subtrees(t):
        yield t
        for child in t.children:
            yield from subtrees(child)

    assert all(s in trees for t in trees for s in subtrees(t))


def test_enumeration_deterministic():
    sig = {"c": 0, "g": 1, "f": 2}
    assert enumerate_trees(sig, 3) == enumerate_trees(dict(reversed(sig.items())), 3)
    assert enumerate_words(Universe(["a", "b"]), 3) == enumerate_words(Universe(["a", "b"]), 3)


def test_language_requires_total_table():
    with pytest.raises(KernelError):
        TruncatedLanguage(Universe(["a"]), 1, {(): False})


def test_language_keeps_its_table_in_word_order():
    A = Universe(["a", "b"])
    words = enumerate_words(A, 2)
    given = {w: len(w) % 2 == 1 for w in reversed(words)}
    lang = TruncatedLanguage(A, 2, given)
    assert list(lang.table) == [w for w, _ in lang.items()] == words
    assert lang.table == given and list(given) == words[::-1]
    with pytest.raises(KernelError, match="total"):
        TruncatedLanguage(A, 1, dict(given))
    with pytest.raises(KernelError, match="total"):
        TruncatedLanguage(A, 2, {w: True for w in words[1:]})
    other = TruncatedLanguage(A, 2, {w: w in (("b",), ("a", "b")) for w in words})
    assert language_equal(lang, other) == (False, ("a",))


def test_word_position_places_every_word():
    for letters in ([], ["a"], ["a", "b"], ["x", "y", "z"]):
        A = Universe(letters)
        for i, w in enumerate(enumerate_words(A, 4)):
            assert word_position(A, w) == i and word_at(A, i) == w


def test_column_of_the_wrong_length_is_rejected():
    A = Universe(["a", "b"])
    assert TruncatedLanguage(A, 2, [True] * 7).table == dict.fromkeys(enumerate_words(A, 2), True)
    for n in (0, 3, 6, 8):
        with pytest.raises(ShapeMismatchError, match="one value per word"):
            TruncatedLanguage(A, 2, [True] * n)


def _changed(v):
    return not v if isinstance(v, bool) else v / 2 + Fraction(1, 7)


def test_language_equal_finds_the_first_changed_word():
    # columns of random machines with one or two entries changed: the first
    # difference is the word a plain scan in `enumerate_words` order meets first
    rng = random.Random(0)
    for seed in range(10):
        machines = [gen.random_moore(seed, config) for config in gen.CONFIGS]
        machines += [gen.random_generative(seed, kind)
                     for kind in (MonadKind.POW, MonadKind.SUBDIST)]
        for m in machines:
            view = step_view(m)
            langs = (logic_language(view, 3) if m.kind is MonadKind.DOUBLE_POW
                     else em_language(view, 3))
            for lang in langs.values():
                words, given = enumerate_words(lang.alphabet, 3), lang.table
                assert language_equal(lang, TruncatedLanguage(lang.alphabet, 3, given)) \
                    == (True, None)
                for _ in range(4):
                    table = dict(given)
                    for w in rng.sample(words, rng.randint(1, 2)):
                        table[w] = _changed(table[w])
                    first = next(w for w in words if table[w] != given[w])
                    other = TruncatedLanguage(lang.alphabet, 3, table)
                    assert language_equal(lang, other) == language_equal(other, lang) \
                        == (False, first)


def test_language_equal_reflexive_and_first_difference():
    A = Universe(["a"])
    l1 = TruncatedLanguage(A, 0, [False])
    l2 = TruncatedLanguage(A, 0, [True])
    assert language_equal(l1, l1) == (True, None)
    assert language_equal(l1, l2) == (False, ())


def test_language_equal_shape_mismatch():
    A = Universe(["a"])
    l1 = TruncatedLanguage(A, 0, [False])
    l2 = TruncatedLanguage(A, 1, [False, False])
    with pytest.raises(KernelError):
        language_equal(l1, l2)
