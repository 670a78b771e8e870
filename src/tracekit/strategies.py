"""Partial-trace strategies for transition systems with output/input rounds.

A play alternates operations (outputs) and answers (inputs).  Generative
systems move first: their plays end on an operation.  Reactive systems answer
an operation from outside: their plays end on an answer and always include
the empty play.  A strategy is a prefix-closed set of such plays, bounded
here by the number of output moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from tracekit.kernel import KernelError, Universe, canon_key
from tracekit.laws import Counterexample, LawReport


@dataclass
class IOSignature:
    """Operation symbols with an ordered, finite answer set for each."""

    operations: Universe
    arity: dict  # operation -> Universe of answers

    def __post_init__(self):
        for k in self.operations:
            if k not in self.arity:
                raise KernelError(f"missing arity for operation {k!r}")

    def answers(self, k) -> Universe:
        self.operations.require(k)
        return self.arity[k]


@dataclass
class IOSystem:
    states: Universe
    signature: IOSignature
    mode: str  # "generative" | "reactive"
    trans: dict
    # generative: state -> frozenset of (operation, tuple of targets per answer)
    # reactive:   state -> {operation: frozenset of (answer, target)}

    def __post_init__(self):
        if self.mode not in ("generative", "reactive"):
            raise KernelError(f"unknown mode {self.mode!r}")
        for x in self.states:
            row = self.trans.get(x)
            if row is None:
                raise KernelError(f"missing transitions for state {x!r}")
            if self.mode == "generative":
                for k, targets in row:
                    answers = self.signature.answers(k)
                    if len(targets) != len(answers):
                        raise KernelError(f"transition {k!r} from {x!r} must list "
                                          f"{len(answers)} continuations")
                    for y in targets:
                        self.states.require(y)
            else:
                for k in self.signature.operations:
                    if k not in row:
                        raise KernelError(f"missing answer set for ({x!r}, {k!r})")
                    for i, y in row[k]:
                        self.signature.answers(k).require(i)
                        self.states.require(y)

    def continuation(self, x, k, i):
        """Targets reachable by answering i after x outputs k (generative)."""
        answers = self.signature.answers(k)
        pos = answers.index(i)
        return [targets[pos] for op, targets in self.trans[x] if op == k]


@dataclass(frozen=True)
class Strategy:
    """Prefix-closed set of passive-ending plays with at most `bound` outputs."""

    mode: str
    bound: int
    plays: frozenset

    def sorted_plays(self) -> list[tuple]:
        return sorted(self.plays, key=lambda p: (len(p), canon_key(p)))

    def is_prefix_closed(self) -> bool:
        if self.mode == "generative":
            return all(len(p) % 2 == 1 and (len(p) == 1 or p[:-2] in self.plays)
                       for p in self.plays)
        return () in self.plays and all(
            len(p) % 2 == 0 and (len(p) == 0 or p[:-2] in self.plays)
            for p in self.plays)


def io_traces(sys: IOSystem, x, bound: int) -> Strategy:
    """All witnessed passive-ending plays from x with at most `bound` outputs."""
    sys.states.require(x)
    memo: dict = {}

    def gen_plays(y, budget: int) -> frozenset:
        key = (y, budget)
        if key not in memo:
            plays = set()
            if budget >= 1:
                for k, targets in sys.trans[y]:
                    plays.add((k,))
                    answers = sys.signature.answers(k)
                    for pos, i in enumerate(answers):
                        for s in gen_plays(targets[pos], budget - 1):
                            plays.add((k, i) + s)
            memo[key] = frozenset(plays)
        return memo[key]

    def re_plays(y, budget: int) -> frozenset:
        key = (y, budget)
        if key not in memo:
            plays = {()}
            if budget >= 1:
                for k in sys.signature.operations:
                    for i, z in sys.trans[y][k]:
                        for s in re_plays(z, budget - 1):
                            plays.add((k, i) + s)
            memo[key] = frozenset(plays)
        return memo[key]

    plays = gen_plays(x, bound) if sys.mode == "generative" else re_plays(x, bound)
    return Strategy(sys.mode, bound, plays)


def strat_init(sigma: Strategy) -> frozenset:
    """Operations the strategy can open with."""
    if sigma.mode != "generative":
        raise KernelError("initial operations are defined for generative strategies")
    return frozenset(p[0] for p in sigma.plays if len(p) == 1)


def strat_residual(sigma: Strategy, k, i) -> Strategy:
    """What remains of the strategy after it outputs k and hears i."""
    if k not in strat_init(sigma):
        raise KernelError(f"operation {k!r} is not initial in this strategy")
    rest = frozenset(p[2:] for p in sigma.plays if len(p) >= 2 and p[0] == k and p[1] == i)
    return Strategy(sigma.mode, sigma.bound - 1, rest)


def check_strategy_coalgebra(sys: IOSystem, bound: int,
                             residual_bound: Optional[Callable[[int], int]] = None) -> LawReport:
    """The trace map is a coalgebra morphism: initials match the outgoing
    operations, and residuals match the traces of the continuations one
    bound lower.

    `residual_bound` overrides the continuation bound (mutation fixtures).
    """
    rb = residual_bound if residual_bound is not None else (lambda b: b - 1)
    checked = 0
    sizes = [len(sys.states)]

    if sys.mode == "generative":
        for x in sys.states:
            sigma = io_traces(sys, x, bound)
            checked += 1
            expected_init = frozenset(k for k, _ in sys.trans[x]) if bound >= 1 else frozenset()
            got_init = strat_init(sigma)
            if got_init != expected_init:
                return LawReport("strategy_coalgebra", sizes, False,
                                 Counterexample((x,), ("init", x), got_init, expected_init),
                                 checked)
            for k in sorted(got_init, key=canon_key):
                for i in sys.signature.answers(k):
                    checked += 1
                    lhs = strat_residual(sigma, k, i).plays
                    rhs = frozenset().union(*[io_traces(sys, y, rb(bound)).plays
                                              for y in sys.continuation(x, k, i)] or [frozenset()])
                    if lhs != rhs:
                        return LawReport("strategy_coalgebra", sizes, False,
                                         Counterexample((x,), ("residual", x, k, i), lhs, rhs),
                                         checked)
    else:
        for x in sys.states:
            sigma = io_traces(sys, x, bound)
            checked += 1
            for k in sys.signature.operations:
                answered = frozenset(i for i, _ in sys.trans[x][k]) if bound >= 1 else frozenset()
                got = frozenset(p[1] for p in sigma.plays if len(p) == 2 and p[0] == k)
                if got != answered:
                    return LawReport("strategy_coalgebra", sizes, False,
                                     Counterexample((x,), ("answers", x, k), got, answered),
                                     checked)
                for i in sorted(answered, key=canon_key):
                    checked += 1
                    lhs = frozenset(p[2:] for p in sigma.plays
                                    if len(p) >= 2 and p[0] == k and p[1] == i)
                    rhs = frozenset().union(*[io_traces(sys, y, rb(bound)).plays
                                              for ans, y in sys.trans[x][k] if ans == i]
                                            or [frozenset()])
                    if lhs != rhs:
                        return LawReport("strategy_coalgebra", sizes, False,
                                         Counterexample((x,), ("residual", x, k, i), lhs, rhs),
                                         checked)
    return LawReport("strategy_coalgebra", sizes, True, None, checked)


# ---------------------------------------------------------------------------
# the one-step collapse and its packed/unpacked forms


def sigma_sharp(values: Mapping, joins: Mapping, r: Iterable) -> tuple:
    """Collapse a set of tagged elements to (live tags, per-tag supremum).

    `values[j]` maps elements of the j-th component to a join-semilattice,
    `joins[j]` is that carrier's binary join, and `r` is a set of (j, x)
    pairs.  Each live tag gets the supremum of the values of its members.
    """
    pairs = sorted(set(r), key=canon_key)
    live = []
    sups: dict = {}
    for j, x in pairs:
        v = values[j][x]
        if j not in sups:
            live.append(j)
            sups[j] = v
        else:
            sups[j] = joins[j](sups[j], v)
    return frozenset(live), sups


def pack_tagged(live: Iterable, families: Mapping) -> frozenset:
    """(tags, per-tag nonempty sets) -> one set of (tag, element) pairs."""
    out = set()
    for j in live:
        members = families[j]
        if not members:
            raise KernelError(f"tag {j!r} carries an empty component")
        out.update((j, x) for x in members)
    return frozenset(out)


def unpack_tagged(r: Iterable) -> tuple:
    """One set of (tag, element) pairs -> (tags, per-tag nonempty sets)."""
    live: dict = {}
    for j, x in r:
        live.setdefault(j, set()).add(x)
    return frozenset(live), {j: frozenset(s) for j, s in live.items()}


# ---------------------------------------------------------------------------
# determinisation


@dataclass
class DeterminisedIO:
    """Subset system built from a generative transition system."""

    signature: IOSignature
    subsets: list  # reachable frozensets, discovery order
    init: dict  # frozenset -> frozenset of operations
    succ: dict  # (frozenset, operation, answer) -> frozenset

    def traces(self, start: frozenset, bound: int) -> Strategy:
        memo: dict = {}

        def walk(u: frozenset, budget: int) -> frozenset:
            key = (u, budget)
            if key not in memo:
                plays = set()
                if budget >= 1:
                    for k in sorted(self.init[u], key=canon_key):
                        plays.add((k,))
                        for i in self.signature.answers(k):
                            for s in walk(self.succ[(u, k, i)], budget - 1):
                                plays.add((k, i) + s)
                memo[key] = frozenset(plays)
            return memo[key]

        return Strategy("generative", bound, walk(start, bound))


def determinise_io(sys: IOSystem) -> DeterminisedIO:
    """Subset construction: per answer, continuations of all members merge.

    The empty subset appears as an explicit deadlock state whenever it is
    reachable.
    """
    if sys.mode != "generative":
        raise KernelError("only generative systems determinise this way")
    agenda = [frozenset([x]) for x in sys.states]
    subsets: list = []
    init: dict = {}
    succ: dict = {}
    while agenda:
        u = agenda.pop(0)
        if u in init:  # `init` is keyed by the subsets found so far
            continue
        subsets.append(u)
        ops = frozenset(k for x in u for k, _ in sys.trans[x])
        init[u] = ops
        for k in sorted(ops, key=canon_key):
            for i in sys.signature.answers(k):
                target = frozenset(y for x in u for y in sys.continuation(x, k, i))
                succ[(u, k, i)] = target
                if target not in init:
                    agenda.append(target)
    return DeterminisedIO(sys.signature, subsets, init, succ)
