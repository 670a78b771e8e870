"""Seeded machine generators for the benchmark workloads.

Every generator takes a `random.Random` and explicit sizes and returns a
machine built through tracekit's own constructors, so constructor validation
is part of the measured set-up.  State names are `s0`, `s1`, ...: they never
contain a comma, so the subset names in determinised DOT output stay
unambiguous for the checks that parse it.
"""

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

WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))
OUTPUTS = (Fraction(0),) + WEIGHTS


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _weights(rng: random.Random, support: list) -> list:
    """Grid weights on `support`, rescaled to mass 1 when they exceed it.

    Rescaling produces unreduced denominators such as 4/13, which is the
    `Fraction` load real machines bring.
    """
    ws = [rng.choice(WEIGHTS) for _ in support]
    total = sum(ws, Fraction(0))
    if total > 1:
        ws = [w / total for w in ws]
    return list(zip(support, ws))


def moore_subdist(rng: random.Random, n: int, letters: int) -> MooreCoalgebra:
    """Every transition spreads its mass over exactly two successors."""
    states = _names("s", n)
    alphabet = list("abc")[:letters]
    out = {x: rng.choice(OUTPUTS) for x in states}
    trans = {x: {a: sub_dist(_weights(rng, rng.sample(states, min(2, n))))
                 for a in alphabet}
             for x in states}
    return MooreCoalgebra(Universe(states), Universe(alphabet), MonadKind.SUBDIST,
                          Modality.EXPECT, out, trans)


def moore_pow(rng: random.Random, n: int, letters: int, alg: Modality) -> MooreCoalgebra:
    """Every transition has 0 to 3 successors."""
    states = _names("s", n)
    alphabet = list("abc")[:letters]
    out = {x: rng.random() < 0.5 for x in states}
    trans = {x: {a: pow_value(rng.sample(states, rng.randint(0, min(3, n))))
                 for a in alphabet}
             for x in states}
    return MooreCoalgebra(Universe(states), Universe(alphabet), MonadKind.POW, alg, out, trans)


def moore_doublepow(rng: random.Random, n: int, letters: int) -> MooreCoalgebra:
    """Alternating machine: each move is a choice (join) of conjunctions (meet)."""
    states = _names("s", n)
    alphabet = list("abc")[:letters]
    out = {x: rng.random() < 0.5 for x in states}
    trans = {x: {a: double_pow([rng.sample(states, rng.randint(1, min(2, n)))
                                for _ in range(rng.randint(0, 2))])
                 for a in alphabet}
             for x in states}
    return MooreCoalgebra(Universe(states), Universe(alphabet), MonadKind.DOUBLE_POW,
                          Modality.JOIN_MEET, out, trans)


def generative(rng: random.Random, kind: MonadKind, n: int, labels: int) -> GenerativeCoalgebra:
    """Each state has exactly two moves and may terminate (probability 0.6).

    A fixed branching factor keeps the number of traces, and so the cost of
    a job, close to a function of the size alone.
    """
    states = _names("s", n)
    alphabet = list("abc")[:labels]
    candidates = [Move(a, y) for a in alphabet for y in states]
    c = {}
    for x in states:
        entries = rng.sample(candidates, min(2, len(candidates)))
        if rng.random() < 0.6:
            entries.append(Done(CHECK))
        c[x] = pow_value(entries) if kind is MonadKind.POW else sub_dist(_weights(rng, entries))
    return GenerativeCoalgebra(Universe(states), Universe(alphabet), kind, c)


def strange(rng: random.Random, n: int) -> StrangeCoalgebra:
    states = _names("s", n)
    c = {x: pow_value(rng.sample(states, rng.randint(0, min(2, n)))
                      + ([STAR] if rng.random() < 0.5 else []))
         for x in states}
    return StrangeCoalgebra(Universe(states), c)


def tree(rng: random.Random, n: int) -> TreeCoalgebra:
    """Tree acceptor over a constant and one binary symbol."""
    states = _names("s", n)
    signature = {"c": 0, "f": 2}
    nodes = [("c", ())] + [("f", (y, z)) for y in states for z in states]
    c = {x: pow_value(nd for nd in nodes if rng.random() < 0.4) for x in states}
    return TreeCoalgebra(Universe(states), signature, MonadKind.POW, Modality.JOIN, c)


def io_system(rng: random.Random, mode: str, n: int) -> IOSystem:
    """Two operations with two answers each."""
    states = _names("s", n)
    ops = ["k", "l"]
    arity = {k: Universe([f"{k}{j}" for j in range(2)]) for k in ops}
    trans: dict = {}
    for x in states:
        if mode == "generative":
            trans[x] = frozenset((k, tuple(rng.choice(states) for _ in arity[k]))
                                 for k in ops for _ in range(rng.randint(0, 2)))
        else:
            trans[x] = {k: frozenset((i, rng.choice(states)) for i in arity[k]
                                     if rng.random() < 0.6)
                        for k in ops}
    return IOSystem(Universe(states), IOSignature(Universe(ops), arity), mode, trans)


def generalized(rng: random.Random, kind: MonadKind, n: int, letters: int,
                lang_depth: int) -> GeneralizedCoalgebra:
    """A Moore machine whose last state is replaced by a random language table."""
    states = _names("s", n)
    alphabet = Universe(list("abc")[:letters])
    alg = Modality.JOIN if kind is MonadKind.POW else Modality.EXPECT
    values = (False, True) if kind is MonadKind.POW else OUTPUTS
    c: dict = {}
    for x in states[:-1]:
        if kind is MonadKind.POW:
            fam = {a: pow_value(rng.sample(states, rng.randint(0, 2))) for a in alphabet}
        else:
            fam = {a: sub_dist(_weights(rng, rng.sample(states, rng.randint(1, 2))))
                   for a in alphabet}
        c[x] = ("node", (rng.choice(values), fam))
    table = {w: rng.choice(values) for w in enumerate_words(alphabet, lang_depth)}
    c[states[-1]] = ("lang", TruncatedLanguage(alphabet, lang_depth, table))
    return GeneralizedCoalgebra(Universe(states), alphabet, kind, alg, c)
