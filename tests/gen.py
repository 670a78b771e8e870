"""Seeded random machine generators for the randomized suites."""

from __future__ import annotations

import random
from fractions import Fraction

from tracekit.engines import (
    GeneralizedCoalgebra,
    GenerativeCoalgebra,
    MooreCoalgebra,
    StrangeCoalgebra,
    TreeCoalgebra,
)
from tracekit.kernel import (
    CHECK,
    MODALITY_KIND,
    STAR,
    Done,
    Modality,
    MonadKind,
    Move,
    Universe,
    double_pow,
    pow_value,
    sub_dist,
)
from tracekit.languages import TruncatedLanguage, enumerate_words
from tracekit.strategies import IOSignature, IOSystem

GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))

CONFIGS = ("nda-exists", "nda-forall", "pa")


def _states(rng: random.Random, max_n: int = 5) -> Universe:
    return Universe([f"s{i}" for i in range(rng.randint(1, max_n))])


def _alphabet(rng: random.Random, max_n: int = 3) -> Universe:
    return Universe(list("abc")[: rng.randint(1, max_n)])


def _random_subdist(rng: random.Random, elems: list, full_mass: bool = False):
    support = [e for e in elems if rng.random() < 0.6]
    if not support and elems and (full_mass or rng.random() < 0.5):
        support = [rng.choice(elems)]
    weights = [rng.choice(GRID[1:]) for _ in support]
    total = sum(weights, Fraction(0))
    if total > 1 or (full_mass and total > 0):
        weights = [w / total for w in weights]
    return sub_dist(zip(support, weights))


def random_moore(seed: int, config: str) -> MooreCoalgebra:
    rng = random.Random(("moore", config, seed).__repr__())
    states = _states(rng)
    alphabet = _alphabet(rng)
    if config == "pa":
        kind, alg = MonadKind.SUBDIST, Modality.EXPECT
        out = {x: rng.choice(GRID) for x in states}
        trans = {x: {a: _random_subdist(rng, list(states)) for a in alphabet}
                 for x in states}
    else:
        kind = MonadKind.POW
        alg = Modality.JOIN if config == "nda-exists" else Modality.MEET
        out = {x: rng.random() < 0.5 for x in states}
        trans = {x: {a: pow_value(y for y in states if rng.random() < 0.4)
                     for a in alphabet}
                 for x in states}
    return MooreCoalgebra(states, alphabet, kind, alg, out, trans)


def random_alternating(seed: int) -> MooreCoalgebra:
    """Double-powerset Moore machine read by join-meet: each move offers a
    few conjunct sets of states, some of them empty."""
    rng = random.Random(("alternating", seed).__repr__())
    states = _states(rng)
    alphabet = _alphabet(rng)
    out = {x: rng.random() < 0.5 for x in states}
    trans = {x: {a: double_pow([y for y in states if rng.random() < 0.4]
                               for _ in range(rng.randint(0, 3)))
                 for a in alphabet}
             for x in states}
    return MooreCoalgebra(states, alphabet, MonadKind.DOUBLE_POW, Modality.JOIN_MEET,
                          out, trans)


def random_generative(seed: int, kind: MonadKind) -> GenerativeCoalgebra:
    rng = random.Random(("generative", kind.value, seed).__repr__())
    states = _states(rng)
    labels = _alphabet(rng)
    c = {}
    for x in states:
        moves = [Move(a, y) for a in labels for y in states if rng.random() < 0.3]
        entries = list(moves)
        if rng.random() < 0.5:
            entries.append(Done(CHECK))
        if kind is MonadKind.POW:
            c[x] = pow_value(entries)
        else:
            weights = [rng.choice(GRID[1:]) for _ in entries]
            total = sum(weights, Fraction(0))
            if total > 1:
                weights = [w / total for w in weights]
            c[x] = sub_dist(zip(entries, weights))
    return GenerativeCoalgebra(states, labels, kind, c)


def random_tree_automaton(seed: int, alg: Modality = Modality.JOIN) -> TreeCoalgebra:
    """A tree machine read by `alg` over a constant and at most one more
    symbol: a few of the (symbol, child states) nodes per state, as a set, a
    subdistribution or a few conjunct sets (some empty) as `alg` needs.
    Under meet, a node of another symbol than the tree's fails the state, so
    each state's nodes share one symbol."""
    key = ("tree", seed) if alg is Modality.JOIN else ("tree", alg.value, seed)
    rng = random.Random(key.__repr__())
    signature = {"c": 0}
    if rng.random() < 0.8:
        signature[rng.choice("fg")] = rng.randint(1, 2)
    states = Universe([f"s{i}" for i in range(rng.randint(1, 4))])
    nodes = [(sym, kids)
             for sym, n in signature.items()
             for kids in _tuples(list(states), n)]
    if alg is Modality.EXPECT:
        c = {x: _random_subdist(rng, nodes) for x in states}
    elif alg is Modality.JOIN_MEET:
        c = {x: double_pow([nd for nd in nodes if rng.random() < 0.35]
                           for _ in range(rng.randint(0, 3)))
             for x in states}
    elif alg is Modality.MEET:
        c = {}
        for x in states:
            sym = rng.choice(list(signature))
            c[x] = pow_value(nd for nd in nodes if nd[0] == sym and rng.random() < 0.35)
    else:
        c = {x: pow_value(nd for nd in nodes if rng.random() < 0.35) for x in states}
    return TreeCoalgebra(states, signature, MODALITY_KIND[alg], alg, c)


def random_strange(seed: int) -> StrangeCoalgebra:
    """Each state may stop (STAR) and moves to a few of the states."""
    rng = random.Random(("strange", seed).__repr__())
    states = _states(rng)
    c = {}
    for x in states:
        stop = [STAR] if rng.random() < 0.5 else []
        c[x] = pow_value(stop + [y for y in states if rng.random() < 0.4])
    return StrangeCoalgebra(states, c)


def _tuples(elems: list, n: int) -> list:
    out = [()]
    for _ in range(n):
        out = [t + (e,) for t in out for e in elems]
    return out


def random_io_system(seed: int, mode: str) -> IOSystem:
    rng = random.Random(("io", mode, seed).__repr__())
    states = Universe([f"s{i}" for i in range(rng.randint(1, 4))])
    ops = Universe(["k", "l"][: rng.randint(1, 2)])
    arity = {k: Universe([f"{k}{j}" for j in range(rng.randint(1, 2))]) for k in ops}
    sig = IOSignature(ops, arity)
    trans: dict = {}
    for x in states:
        if mode == "generative":
            entries = []
            for k in ops:
                for _ in range(rng.randint(0, 2)):
                    entries.append((k, tuple(rng.choice(states.elements)
                                             for _ in arity[k])))
            trans[x] = frozenset(entries)
        else:
            trans[x] = {k: frozenset((i, rng.choice(states.elements))
                                     for i in arity[k] if rng.random() < 0.5)
                        for k in ops}
    return IOSystem(states, sig, mode, trans)


def random_generalized(seed: int, config: str, lang_depth: int) -> GeneralizedCoalgebra:
    """Graft random semantic-state languages onto a random Moore machine."""
    rng = random.Random(("generalized", config, seed).__repr__())
    moore = random_moore(seed, config)
    semantic = [x for x in moore.states
                if rng.random() < 0.4 and len(moore.states) > 1]
    c = {}
    for x in moore.states:
        if x in semantic:
            if config == "pa":
                table = {w: rng.choice(GRID)
                         for w in enumerate_words(moore.alphabet, lang_depth)}
            else:
                table = {w: rng.random() < 0.5
                         for w in enumerate_words(moore.alphabet, lang_depth)}
            c[x] = ("lang", TruncatedLanguage(moore.alphabet, lang_depth, table))
        else:
            c[x] = ("node", (moore.out[x], dict(moore.trans[x])))
    return GeneralizedCoalgebra(moore.states, moore.alphabet, moore.kind, moore.alg, c)
