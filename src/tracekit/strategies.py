"""Partial-trace strategies for transition systems with output/input rounds.

A play alternates operations (outputs) and answers (inputs).  Generative
systems move first: their plays end on an operation.  Reactive systems answer
an operation from outside: their plays end on an answer and always include
the empty play.  A strategy is a prefix-closed set of such plays, bounded
here by the number of output moves.

Both modes are read through one move table, built with the system: each
state maps to `{operation: {answer: [targets]}}`.  `io_traces` and
`check_strategy_coalgebra` have one body over it; the mode decides only
where a play may end and which first moves are checked (the initial
operations, or the answers to each operation).  `determinise_io` runs the
one subset exploration, `languages.explore_subsets`, over the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

from tracekit.kernel import KernelError, Universe, canon_key
from tracekit.languages import explore_subsets
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
        """Check the transitions and build the move table `moves`: state ->
        {operation: {answer: [targets]}}.  A generative row lists the offered
        operations in canonical order, each with every answer in signature
        order; a reactive row lists every operation in signature order, each
        with the answers it has targets for, in canonical order."""
        if self.mode not in ("generative", "reactive"):
            raise KernelError(f"unknown mode {self.mode!r}")
        self.moves: dict = {}
        for x in self.states:
            row = self.trans.get(x)
            if row is None:
                raise KernelError(f"missing transitions for state {x!r}")
            moves = self.moves[x] = {}
            if self.mode == "generative":
                for k, targets in sorted(row, key=canon_key):
                    answers = self.signature.answers(k)
                    if len(targets) != len(answers):
                        raise KernelError(f"transition {k!r} from {x!r} must list "
                                          f"{len(answers)} continuations")
                    by_answer = moves.setdefault(k, {})
                    for i, y in zip(answers, targets):
                        by_answer.setdefault(i, []).append(self.states.require(y))
            else:
                for k in self.signature.operations:
                    if k not in row:
                        raise KernelError(f"missing answer set for ({x!r}, {k!r})")
                    by_answer = moves[k] = {}
                    for i, y in sorted(row[k], key=canon_key):
                        self.signature.answers(k).require(i)
                        by_answer.setdefault(i, []).append(self.states.require(y))


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
    reactive = sys.mode == "reactive"
    memo: dict = {}

    def walk(y, budget: int) -> frozenset:
        key = (y, budget)
        if key not in memo:
            plays = {()} if reactive else set()
            if budget >= 1:
                for k, by_answer in sys.moves[y].items():
                    if not reactive:
                        plays.add((k,))
                    for i, targets in by_answer.items():
                        ki = (k, i)
                        for z in targets:
                            for s in walk(z, budget - 1):
                                plays.add(ki + s)
            memo[key] = frozenset(plays)
        return memo[key]

    return Strategy(sys.mode, bound, walk(x, bound))


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
    """The trace map is a coalgebra morphism: the first moves of the traces
    match the move table (the initial operations of a generative state, the
    answers to each operation of a reactive one), and residuals match the
    traces of the continuations one bound lower.

    `residual_bound` overrides the continuation bound (mutation fixtures).
    """
    rb = residual_bound if residual_bound is not None else (lambda b: b - 1)
    checked = 0
    sizes = [len(sys.states)]
    for x in sys.states:
        plays = io_traces(sys, x, bound).plays
        checked += 1
        moves = sys.moves[x] if bound >= 1 else {}
        # (note, first moves of the plays, first moves of the table, rows to unfold)
        if sys.mode == "generative":
            firsts = [(("init", x), frozenset(p[0] for p in plays if len(p) == 1),
                       frozenset(moves), moves)]
        else:
            firsts = [(("answers", x, k),
                       frozenset(p[1] for p in plays if len(p) == 2 and p[0] == k),
                       frozenset(moves.get(k, ())), {k: moves.get(k, {})})
                      for k in sys.signature.operations]
        for note, got, expected, rows in firsts:
            if got != expected:
                return LawReport("strategy_coalgebra", sizes, False,
                                 Counterexample((x,), note, got, expected), checked)
            for k, by_answer in rows.items():
                for i, targets in by_answer.items():
                    checked += 1
                    lhs = frozenset(p[2:] for p in plays
                                    if len(p) >= 2 and p[0] == k and p[1] == i)
                    rhs = frozenset().union(*[io_traces(sys, y, rb(bound)).plays
                                              for y in targets])
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
    succ: dict  # (frozenset, operation, answer) -> frozenset, discovery order

    @cached_property
    def system(self) -> IOSystem:
        """The subsets as a generative system, built once per determinisation."""
        trans = {u: frozenset((k, tuple(self.succ[(u, k, i)] for i in self.signature.answers(k)))
                              for k in self.init[u])
                 for u in self.subsets}
        return IOSystem(Universe(self.subsets), self.signature, "generative", trans)

    def traces(self, start: frozenset, bound: int) -> Strategy:
        """The plays of the subset system from `start`, by `io_traces`."""
        return io_traces(self.system, start, bound)


def determinise_io(sys: IOSystem) -> DeterminisedIO:
    """Subset construction: per answer, continuations of all members merge.

    The empty subset appears as an explicit deadlock state whenever it is
    reachable.  `SizeGuardError` past `DEFAULT_GUARD` subsets.
    """
    if sys.mode != "generative":
        raise KernelError("only generative systems determinise this way")

    init: dict = {}

    def successors(u: frozenset):
        init[u] = frozenset(k for x in u for k in sys.moves[x])
        for k in sorted(init[u], key=canon_key):
            for i in sys.signature.answers(k):
                yield (u, k, i), frozenset(y for x in u
                                           for y in sys.moves[x].get(k, {}).get(i, ()))

    subsets, succ = explore_subsets(sys.states, successors)
    return DeterminisedIO(sys.signature, subsets, init, succ)
