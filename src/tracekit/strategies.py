"""Partial-trace strategies for transition systems with output/input rounds.

A play alternates operations (outputs) and answers (inputs).  Generative
systems move first: their plays end on an operation.  Reactive systems answer
an operation from outside: their plays end on an answer and always include
the empty play.  A strategy is a prefix-closed set of such plays, bounded
here by the number of output moves.

Both modes are read through one move table, built with the system: each
state maps to `{operation: {answer: [targets]}}`.  The trace semantics is
one map: `io_traces` returns every state's strategy from one table over
(state, budget), within the shared size budget.  `check_strategy_coalgebra`
takes that map and tests its defining equation, the coalgebra-morphism
square: `strat_init` gives a strategy's first moves (the initial operations,
or the answers to each operation) and `strat_residual` what follows one
round, which must be the targets' strategies cut (`strat_cut`) to one output
fewer; the check reads every residual of a strategy from one grouping of its
plays by their first round.  The mode decides only where a play may end and
which first moves are compared.  `determinise_io` runs the one subset
exploration, `languages.explore_subsets`, over the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from tracekit.kernel import KernelError, Universe, canon_key
from tracekit.languages import DEFAULT_GUARD, SizeGuardError, explore_subsets
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
                        raise KernelError(f"transitions[{x!r}]: operation {k!r} must list "
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


def io_traces(sys: IOSystem, bound: int) -> dict:
    """Every state's strategy: all witnessed passive-ending plays with at
    most `bound` outputs, as `{state: Strategy}`.

    One table over (state, budget), filled one budget at a time for every
    state from the budget below, so no play set is built twice and nothing
    recurses; it stops early once a budget adds no play.  `SizeGuardError`
    once more than `DEFAULT_GUARD` plays have been built over all (state,
    budget) entries, counted as each set grows: a long cycle, whose plays
    grow one per budget but get longer each time, is stopped too.
    """
    reactive = sys.mode == "reactive"
    empty = frozenset({()}) if reactive else frozenset()
    layer = dict.fromkeys(sys.states, empty)  # budget 0
    built = len(layer) if reactive else 0
    for _ in range(bound):
        below, layer = layer, {}
        for y in sys.states:
            plays = set(empty)
            for k, by_answer in sys.moves[y].items():
                if not reactive:
                    plays.add((k,))
                for i, targets in by_answer.items():
                    ki = (k, i)
                    for z in targets:
                        plays.update(ki + s for s in below[z])
                        if built + len(plays) > DEFAULT_GUARD:
                            raise SizeGuardError(f"more than {DEFAULT_GUARD} plays "
                                                 f"up to {bound} outputs")
            built += len(plays)
            layer[y] = frozenset(plays)
        if layer == below:  # a fixpoint: higher budgets add nothing either
            break
    return {x: Strategy(sys.mode, bound, layer[x]) for x in sys.states}


def strat_init(sigma: Strategy, k=None) -> frozenset:
    """The strategy's first moves: the operations a generative strategy can
    open with, or the answers a reactive strategy accepts to operation `k`."""
    if sigma.mode == "generative":
        return frozenset(p[0] for p in sigma.plays if len(p) == 1)
    return frozenset(p[1] for p in sigma.plays if len(p) == 2 and p[0] == k)


def strat_residual(sigma: Strategy, k, i) -> Strategy:
    """What remains of the strategy after it outputs k and hears i; the
    first move (k, or i in reply to k) must be one of `strat_init`'s."""
    if ((k,) if sigma.mode == "generative" else (k, i)) not in sigma.plays:
        raise KernelError(f"({k!r}, {i!r}) does not open a round of this strategy")
    rest = frozenset(p[2:] for p in sigma.plays if len(p) >= 2 and p[0] == k and p[1] == i)
    return Strategy(sigma.mode, sigma.bound - 1, rest)


def _residuals(sigma: Strategy) -> dict:
    """Every `strat_residual` of the strategy at once, in one pass over its
    plays: `{(k, i): plays}` for each round (k, i) that some play opens."""
    rests: dict = {}
    for p in sigma.plays:
        if len(p) >= 2:
            rests.setdefault(p[:2], []).append(p[2:])
    return {ki: frozenset(r) for ki, r in rests.items()}


def strat_cut(sigma: Strategy, bound: int) -> Strategy:
    """The plays with at most `bound` outputs.  A play with n outputs has
    length 2n - 1 (generative) or 2n (reactive), so it has
    (length + 1) // 2 of them in either mode."""
    return Strategy(sigma.mode, bound,
                    frozenset(p for p in sigma.plays if (len(p) + 1) // 2 <= bound))


def check_strategy_coalgebra(sys: IOSystem, traces: Mapping) -> LawReport:
    """The trace map `traces` (state -> Strategy, as `io_traces` returns it)
    is a coalgebra morphism: each strategy's first moves match the move
    table (the initial operations of a generative state, the answers to each
    operation of a reactive one), and each residual is the union of the
    targets' strategies cut to one output fewer.  One pass over a state's
    plays gives all its residuals; the first-move check before them makes
    every round asked for one that `strat_residual` accepts.
    """
    checked = 0
    sizes = [len(sys.states)]
    lower = {y: strat_cut(sigma, sigma.bound - 1).plays for y, sigma in traces.items()}
    for x in sys.states:
        sigma = traces[x]
        residuals = _residuals(sigma)
        checked += 1
        moves = sys.moves[x] if sigma.bound >= 1 else {}
        # (note, first moves of the strategy, first moves of the table, rows to unfold)
        if sys.mode == "generative":
            firsts = [(("init", x), strat_init(sigma), frozenset(moves), moves)]
        else:
            firsts = [(("answers", x, k), strat_init(sigma, k),
                       frozenset(moves.get(k, ())), {k: moves.get(k, {})})
                      for k in sys.signature.operations]
        for note, got, expected, rows in firsts:
            if got != expected:
                return LawReport("strategy_coalgebra", sizes, False,
                                 Counterexample((x,), note, got, expected), checked)
            for k, by_answer in rows.items():
                for i, targets in by_answer.items():
                    checked += 1
                    lhs = residuals.get((k, i), frozenset())
                    rhs = frozenset().union(*[lower[y] for y in targets])
                    if lhs != rhs:
                        return LawReport("strategy_coalgebra", sizes, False,
                                         Counterexample((x,), ("residual", x, k, i), lhs, rhs),
                                         checked)
    return LawReport("strategy_coalgebra", sizes, True, None, checked)


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
