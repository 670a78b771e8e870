"""The three trace-semantics engines and the maps comparing them.

Every word machine -- Moore, generative (through `laws.canonical_rho2`) and
generalized -- is read through one `StepView`: an output and a per-letter
branching step for each ordinary state, a ready-made language for each
semantic state.  `step_view` builds it, together with the one integer
encoding of it that both word engines read (state index, successor masks,
integer rows, output mask or vector, denominators); two engines run on it:

* forward engine (`em_eval`, `em_language`): run the branching state
  forward (generalised subset / distribution construction) and collapse
  outputs at the end.  `em_eval` runs one word through `monad_bind`;
  `em_language(view, depth, states=None)` tabulates every state in one
  call, by one prefix pass (`languages.unfold_words`) per start state: a
  word's belief is its prefix's belief advanced by the last letter.  A
  subdistribution belief is an integer vector over `D * L**k` after k
  letters, a powerset belief a state mask whose successors are memoised
  across start states;
* logical engine (`logic_eval`, `logic_language`): evaluate a word as a
  test on its suffixes, looking the rest of the word up as soon as a
  semantic state is reached (the CLI's `--engine cia` on generalized
  machines).  One backward pass visits suffixes shortest first and computes
  every state's value on `a + w` from the values on `w` at once: a bitmask
  over the states on a boolean view, a vector of integer numerators over
  `D * L**len(w)` on an expectation view.  `logic_language` runs it over
  every word up to the depth, `logic_eval` over the suffixes of its word;
* fixpoint engine (`kleisli_traces`, collapsed by `kbar`): Kleene-iterate the
  complete-trace equations of a generative machine from bottom, semi-naively:
  iterate n + 1 adds only the traces of length n, and one pass,
  `_trace_deltas`, builds each of them once from the traces the previous
  iterate added.  A state's traces are a plain branching value (a
  `MonadValue` over (word, terminal) pairs): `kleisli_traces` unions every
  delta and builds one value per state, the last iterate of
  `kleisli_iterates`, which returns the cumulative unions, the chain itself.

Every word engine hands each state's language over as a column in the one
`enumerate_words` order (see `languages`), which the language checks by its
length only: an engine call builds at most one word list, never one per
state, and `kbar` places each trace's mass at its word's position.

Tree and strange machines have their own logical evaluators, each one
bottom-up pass for every state at once: `logic_eval_tree` over the trees,
one `languages.unfold_trees` fold whose value at a tree is every state's,
and `logic_eval_strange` one step count at a time.  Whole-machine results
are `{state: value}` maps.  The engines produce exactly equal truncated
languages on the machine classes where the connecting laws hold;
`compare_semantics` materialises that check along one path for Moore and
generative machines: one step view, each engine run once on it, every pair
of engines compared on every state.  Its report derives the summary (all
equal, retained mass, injectivity of the trace collapse) from the verdicts,
the trace values and one witness rule.  `determinise_bt` builds the subset
machine of a powerset Moore machine with `languages.explore_subsets`, the
one subset exploration that `strategies.determinise_io` also runs.

A machine's modality is checked against the kernel's `MODALITY_KIND`, and
every output by the kernel's `check_output`; a generative machine's
modality is its monad's own, `canonical_alg`.

`L` and `D` are the step view's common denominators (see `StepView`): every
transition weight is an integer over `L`, every output and semantic-table
value an integer over `D`.  A subdistribution language is a column of the
integers the engines compute, each over `D * L**k` for its word's length k,
and carries `(D, L)` (see `languages.TruncatedLanguage`): `em_language` and
`logic_language` hand over their numerators as they are, and `kbar` places
each trace's mass as such a numerator, exactly or not at all.  No column
entry is a `Fraction`; one is built only when a value is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import lcm
from operator import mul, or_
from typing import Optional

from tracekit.kernel import (
    CHECK,
    MODALITY_KIND,
    STAR,
    AlgebraMismatchError,
    Done,
    KernelError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    algebra_eval,
    algebra_map,
    canon_key,
    canonical_alg,
    check_output,
    monad_bind,
    monad_unit,
    omega_bot,
    omega_meet,
    pow_value,
    sub_dist,
)
from tracekit.languages import (
    DEFAULT_GUARD,
    SizeGuardError,
    TruncatedLanguage,
    count_words,
    enumerate_words,
    explore_subsets,
    language_equal,
    unfold_trees,
    unfold_words,
    word_position,
)
from tracekit.laws import canonical_rho2


def _check_modality(m) -> None:
    if MODALITY_KIND[m.alg] is not m.kind:
        raise AlgebraMismatchError(f"modality: {m.alg.value} does not evaluate {m.kind.value}")


# ---------------------------------------------------------------------------
# machine types


@dataclass
class MooreCoalgebra:
    """Finite machine with an output per state and branching successors per letter."""

    states: Universe
    alphabet: Universe
    kind: MonadKind
    alg: Modality
    out: dict
    trans: dict  # state -> letter -> MonadValue over states

    def __post_init__(self):
        _check_modality(self)
        out = {}
        for x in self.states:
            if x not in self.out:
                raise KernelError(f"missing output for state {x!r}")
            out[x] = check_output(self.alg, self.out[x], f"out[{x!r}]")
            row = self.trans.get(x)
            if row is None:
                raise KernelError(f"missing transitions for state {x!r}")
            _check_row(self, x, row)
        self.out = out  # normalised copy: the caller's dict is left as it was


def _base_states(mv: MonadValue):
    if mv.kind is MonadKind.DOUBLE_POW:
        return [y for s in mv.payload for y in s]
    return list(mv.support)


def _check_row(m, x, row: dict) -> None:
    """Every letter of `m` has a transition from `x` of `m`'s branching kind
    into `m`'s states."""
    for a in m.alphabet:
        mv = row.get(a)
        if mv is None:
            raise KernelError(f"missing transition ({x!r}, {a!r})")
        if mv.kind is not m.kind:
            raise KernelError(f"transition ({x!r}, {a!r}) has kind {mv.kind.value}")
        for y in _base_states(mv):
            m.states.require(y)


@dataclass
class GenerativeCoalgebra:
    """Machine whose single branching value per state mixes moves and terminals."""

    states: Universe
    labels: Universe
    kind: MonadKind
    c: dict  # state -> MonadValue over Move/Done
    terminals: Universe = field(default_factory=lambda: Universe([CHECK]))

    def __post_init__(self):
        if self.kind not in (MonadKind.POW, MonadKind.SUBDIST):
            raise KernelError("generative machines need a monad: pow or subdist")
        for x in self.states:
            mv = self.c.get(x)
            if mv is None:
                raise KernelError(f"missing behaviour for state {x!r}")
            if mv.kind is not self.kind:
                raise KernelError(f"behaviour of {x!r} has kind {mv.kind.value}")
            for u in mv.support:
                if isinstance(u, Move):
                    self.labels.require(u.label)
                    self.states.require(u.target)
                elif isinstance(u, Done):
                    self.terminals.require(u.terminal)
                else:
                    raise KernelError(f"behaviour of {x!r} contains {u!r}")

    @property
    def alg(self) -> Modality:
        return canonical_alg(self.kind)


@dataclass
class TreeCoalgebra:
    """Top-down tree machine: each state branches over (symbol, child states) nodes."""

    states: Universe
    signature: dict  # symbol -> arity
    kind: MonadKind
    alg: Modality
    c: dict  # state -> MonadValue over (symbol, tuple-of-states)

    def __post_init__(self):
        _check_modality(self)
        for x in self.states:
            mv = self.c.get(x)
            if mv is None:
                raise KernelError(f"missing behaviour for state {x!r}")
            if mv.kind is not self.kind:
                raise KernelError(f"behaviour of {x!r} has kind {mv.kind.value}")
            for u in _base_states(mv):
                sym, kids = u
                if sym not in self.signature:
                    raise KernelError(f"undeclared symbol {sym!r}")
                if len(kids) != self.signature[sym]:
                    raise KernelError(f"transitions[{x!r}]: arity mismatch at {sym!r}: {kids!r}")
                for y in kids:
                    self.states.require(y)


@dataclass
class StrangeCoalgebra:
    """Plain branching over successors-or-stop, read by the always-true stop logic."""

    states: Universe
    c: dict  # state -> MonadValue(POW) over states and STAR

    def __post_init__(self):
        for x in self.states:
            mv = self.c.get(x)
            if mv is None or mv.kind is not MonadKind.POW:
                raise KernelError(f"behaviour of {x!r} must be a powerset value")
            for u in mv.support:
                if u != STAR:
                    self.states.require(u)


@dataclass
class GeneralizedCoalgebra:
    """Moore machine in which some states are replaced by ready-made languages."""

    states: Universe
    alphabet: Universe
    kind: MonadKind
    alg: Modality
    c: dict  # state -> ("lang", TruncatedLanguage) | ("node", (output, {letter: MonadValue}))

    def __post_init__(self):
        _check_modality(self)
        for x in self.states:
            entry = self.c.get(x)
            if entry is None:
                raise KernelError(f"missing behaviour for state {x!r}")
            tag, body = entry
            if tag == "lang":
                if body.alphabet != self.alphabet:
                    raise KernelError(f"semantic state {x!r} uses a different alphabet")
                for w, value in body.items():
                    check_output(self.alg, value, f"semantic state {x!r} at {w!r}")
            elif tag == "node":
                om, fam = body
                check_output(self.alg, om, f"out[{x!r}]")
                _check_row(self, x, fam)
            else:
                raise KernelError(f"behaviour of {x!r} tagged {tag!r}")

    def semantic_states(self) -> list:
        return [x for x in self.states if self.c[x][0] == "lang"]


# ---------------------------------------------------------------------------
# step view: every word machine as one (output, step) pair


@dataclass
class StepView:
    """A word machine as plain tables: `out[y]` and `trans[y][a]` for its
    ordinary states, a ready-made language for each semantic state.

    The machine constructors have already checked every row's kind and
    every output.  The view also holds the one integer encoding both word
    engines read, built once here.  State `y` is position `index[y]` of
    `states` and bit `1 << index[y]` of a state mask; `succ[a]` lists a
    (bit, successor mask) pair for every ordinary state.

    * On a boolean view `out_mask` has the bits of the states whose output
      is true; on a double-powerset view `rows[a][i]` holds one mask per
      conjunct set of state i's step under `a`.
    * On a subdistribution view `scale` (`L`) is the lcm of every
      transition weight's denominator and `rows[a][i]` holds state i's
      (j, `L` * weight) pairs; `denom` (`D`) is the lcm of every output's
      denominator and of `D' * L'**depth` for each semantic column over
      `(D', L')` (for a table read from a file `L'` is 1 and `D'` the lcm
      of its values' denominators), so `D * L**k` is a multiple of every
      value's denominator after k letters; `int_out[i]` is `D` * output,
      `dens(k)` is `D * L**k`, and `over` is `(D, L)`, which the view's
      languages carry.

    `rows` and `int_out` are aligned with `states`; a semantic state has an
    empty row and output 0.
    """

    states: Universe
    alphabet: Universe
    kind: MonadKind
    alg: Modality
    out: dict  # ordinary state -> output
    trans: dict  # ordinary state -> letter -> MonadValue over states
    semantic: dict  # semantic state -> TruncatedLanguage
    index: dict = field(init=False)
    succ: dict = field(init=False)
    out_mask: int = field(init=False, default=0)
    rows: dict = field(init=False, default_factory=dict)
    scale: int = field(init=False, default=1)
    denom: int = field(init=False, default=1)
    int_out: list = field(init=False, default_factory=list)

    def __post_init__(self):
        self.index = {y: i for i, y in enumerate(self.states)}
        self.succ = {a: [(1 << self.index[y], self._mask(_base_states(row[a])))
                         for y, row in self.trans.items()]
                     for a in self.alphabet}
        if self.kind is not MonadKind.SUBDIST:
            self.out_mask = self._mask(y for y, v in self.out.items() if v)
            if self.kind is MonadKind.DOUBLE_POW:
                self.rows = self._rows(lambda mv: tuple(map(self._mask, mv.payload)))
            return
        self.scale = lcm(*(w.denominator for row in self.trans.values()
                           for mv in row.values() for _, w in mv.payload))
        self.rows = self._rows(lambda mv: tuple(
            (self.index[z], w.numerator * (self.scale // w.denominator)) for z, w in mv.payload))
        self.denom = lcm(*(v.denominator for v in self.out.values()),
                         *(lang.over[0] * lang.over[1] ** lang.depth
                           for lang in self.semantic.values()))
        self.int_out = [self.out[y].numerator * (self.denom // self.out[y].denominator)
                        if y in self.out else 0 for y in self.states]

    def _mask(self, ys) -> int:
        return reduce(or_, [1 << self.index[y] for y in ys], 0)

    def _rows(self, encode) -> dict:
        return {a: [encode(self.trans[y][a]) if y in self.trans else () for y in self.states]
                for a in self.alphabet}

    def dens(self, k: int) -> int:
        return self.denom * self.scale ** k

    @property
    def over(self) -> Optional[tuple]:
        return (self.denom, self.scale) if self.kind is MonadKind.SUBDIST else None


def step_view(machine) -> StepView:
    """Moore machines as they are; generative machines through the law-checked
    `canonical_rho2` (termination weight, per-label successors); generalized
    machines with their semantic states kept as lookups."""
    if isinstance(machine, MooreCoalgebra):
        return StepView(machine.states, machine.alphabet, machine.kind, machine.alg,
                        machine.out, machine.trans, {})
    out: dict = {}
    trans: dict = {}
    if isinstance(machine, GenerativeCoalgebra):
        rho2 = canonical_rho2(machine.kind, machine.labels)
        for y in machine.states:
            out[y], trans[y] = rho2(machine.c[y])
        return StepView(machine.states, machine.labels, machine.kind, machine.alg,
                        out, trans, {})
    if isinstance(machine, GeneralizedCoalgebra):
        semantic = {}
        for y in machine.states:
            tag, body = machine.c[y]
            if tag == "lang":
                semantic[y] = body
            else:
                out[y], trans[y] = body
        return StepView(machine.states, machine.alphabet, machine.kind, machine.alg,
                        out, trans, semantic)
    raise KernelError(f"{type(machine).__name__} has no step view")


# ---------------------------------------------------------------------------
# forward (determinising) engine


def _check_forward(view: StepView) -> None:
    if view.kind is MonadKind.DOUBLE_POW:
        raise KernelError("forward evaluation needs a monad; use the logical engine")
    if view.semantic:
        raise KernelError("forward evaluation needs transitions at every state; "
                          "use the logical engine for semantic states")


def em_eval(view: StepView, x, word) -> object:
    """Run the branching state forward through `word`, then collapse outputs."""
    _check_forward(view)
    u = monad_unit(view.kind, view.states.require(x))
    for a in word:
        view.alphabet.require(a)
        u = monad_bind(view.kind, u, lambda y: view.trans[y][a])
    return algebra_map(view.alg, view.out.__getitem__, u)


def em_language(view: StepView, depth: int, states=None) -> dict:
    """Tabulated forward semantics of every state, or of `states` only, from
    one `unfold_words` prefix pass per start state over every word up to
    `depth`: a word's belief is its prefix's belief advanced by the last
    letter.  A machine with no states has an empty semantics.

    Subdistribution beliefs are integer vectors over `D * L**k` after k
    letters, so a step multiplies by the view's integer rows, and an entry
    is the belief's dot product with the integer outputs: the numerator over
    `D * L**k` that the column holds, as the view's `over` says.  Powerset
    beliefs are state masks; a mask's successor under each letter is
    computed once for all start states, and its output is one `&` against
    the view's output mask.
    """
    states = view.states if states is None else [view.states.require(x) for x in states]
    if not states:
        return {}
    _check_forward(view)
    if view.kind is MonadKind.SUBDIST:
        rows, out = view.rows, view.int_out

        def start(i: int) -> list:
            belief = [0] * len(out)
            belief[i] = 1
            return belief

        def column(beliefs: list) -> list:
            return [sum(map(mul, b, out)) for b in beliefs]

        def advance(belief: list, a) -> list:
            nxt = [0] * len(out)
            for row, p in zip(rows[a], belief):
                if p:
                    for j, q in row:
                        nxt[j] += p * q
            return nxt
    else:
        out_mask = view.out_mask
        memo = {a: {} for a in view.alphabet}  # letter -> mask -> successor mask

        def start(i: int) -> int:
            return 1 << i

        if view.alg is Modality.JOIN:
            def column(beliefs: list) -> list:
                return [(u & out_mask) != 0 for u in beliefs]
        else:
            def column(beliefs: list) -> list:
                return [(u & out_mask) == u for u in beliefs]

        def advance(u: int, a) -> int:
            nxt = memo[a].get(u)
            if nxt is None:
                nxt = memo[a][u] = reduce(or_, [m for bit, m in view.succ[a] if u & bit], 0)
            return nxt

    return {x: TruncatedLanguage(view.alphabet, depth, column(
                unfold_words(view.alphabet, depth, start(view.index[x]), advance)), view.over)
            for x in states}


@dataclass
class DeterminisedMoore:
    """Subset machine produced from a powerset Moore machine."""

    alphabet: Universe
    alg: Modality
    subsets: list  # reachable frozensets, discovery order
    out: dict  # frozenset -> output
    trans: dict  # (frozenset, letter) -> frozenset, discovery order

    def language(self, start: frozenset, depth: int) -> TruncatedLanguage:
        subsets = unfold_words(self.alphabet, depth, start, lambda u, a: self.trans[(u, a)])
        return TruncatedLanguage(self.alphabet, depth, [self.out[u] for u in subsets])


def determinise_bt(m: MooreCoalgebra) -> DeterminisedMoore:
    """Subset construction from every singleton; outputs collapse by the
    modality.  `SizeGuardError` past `DEFAULT_GUARD` subsets."""
    if m.kind is not MonadKind.POW:
        raise KernelError("only powerset machines determinise to a finite subset machine")

    def successors(u: frozenset):
        for a in m.alphabet:
            yield (u, a), frozenset(z for y in u for z in m.trans[y][a].elements)

    subsets, trans = explore_subsets(m.states, successors)
    out = {u: algebra_eval(m.alg, pow_value(m.out[y] for y in u)) for u in subsets}
    return DeterminisedMoore(m.alphabet, m.alg, subsets, out, trans)


# ---------------------------------------------------------------------------
# fixpoint (complete-trace) engine


def _trace_deltas(gc: GenerativeCoalgebra, depth: int):
    """The traces each Kleene iterate adds, for every state: delta n is
    `{state: {(word, terminal): weight}}` over the traces of length n, the
    weight `True` on a powerset machine and the exact `Fraction` mass on a
    subdistribution one.  Delta 0 is each state's terminals; delta n is
    every move `(label, target)` prefixed to the target's delta n - 1, equal
    traces summed.  Yields delta 0 to delta `depth`, stopping early once a
    delta is empty for every state (all later ones are too).
    """
    pow_ = gc.kind is MonadKind.POW
    moves: dict = {}
    delta: dict = {}
    for x in gc.states:
        entries = [(u, True) for u in gc.c[x].payload] if pow_ else gc.c[x].payload
        moves[x] = [(u.label, u.target, w) for u, w in entries if isinstance(u, Move)]
        delta[x] = {((), u.terminal): w for u, w in entries if isinstance(u, Done)}
    for length in range(depth + 1):
        if length:
            below, delta = delta, {}
            for x in gc.states:
                added = delta[x] = {}
                for label, y, w in moves[x]:
                    for (word, s), v in below[y].items():
                        trace = ((label,) + word, s)
                        if pow_:
                            added[trace] = True
                        else:
                            old = added.get(trace)
                            added[trace] = w * v if old is None else old + w * v
        if not any(delta.values()):
            return
        yield delta


def _trace_value(kind: MonadKind, traces: dict) -> MonadValue:
    return pow_value(traces) if kind is MonadKind.POW else sub_dist(traces)


def kleisli_iterates(gc: GenerativeCoalgebra, depth: int, n_iters: int) -> list[dict]:
    """Kleene chain of per-state trace approximations, from the bottom element.

    Iterate k is the union of deltas 0 to k - 1 of `_trace_deltas`: the
    traces of length < k, none longer than `depth`, so the chain is
    stationary from iterate depth + 1 on.  One value per state and iterate.
    """
    union = {x: {} for x in gc.states}
    current = {x: _trace_value(gc.kind, {}) for x in gc.states}
    chain = [current]
    deltas = _trace_deltas(gc, depth)
    for _ in range(n_iters):
        delta = next(deltas, None)
        if delta is not None:
            for x in gc.states:
                union[x].update(delta[x])
            current = {x: _trace_value(gc.kind, union[x]) for x in gc.states}
        chain.append(current)
    return chain


def kleisli_traces(gc: GenerativeCoalgebra, depth: int) -> dict:
    """Exact set/subdistribution of complete traces of length <= depth, for
    every state, as `{state: MonadValue}` over (word, terminal) pairs: the
    least fixpoint of the trace equations, as the union of every delta of
    one `_trace_deltas` pass, with one value built per state at the end (the
    chain is monotone, so the final mass bounds every iterate's).  It equals
    the last entry of `kleisli_iterates(gc, depth, depth + 1)`.  Within the
    word budget of `enumerate_words` over the labels, checked before any
    trace is built."""
    count_words(len(gc.labels), depth)
    union = {x: {} for x in gc.states}
    for delta in _trace_deltas(gc, depth):
        for x in gc.states:
            union[x].update(delta[x])
    return {x: _trace_value(gc.kind, union[x]) for x in gc.states}


def kbar(ts: MonadValue, alphabet: Universe, depth: int,
         terminal=CHECK, over: Optional[tuple] = None) -> TruncatedLanguage:
    """Collapse a branching value over traces to the language of words that
    terminate.

    Only single-terminal machines are supported: the table is the
    characteristic function (powerset) or per-word termination mass
    (subdistribution) of traces ending in `terminal`, filled in at each
    trace's word position; traces longer than `depth` are left out.  A mass
    is placed as its numerator over `D * L**len(word)`, `(D, L)` being
    `over` (a step view's) or else (the lcm of the masses' denominators, 1);
    a mass whose denominator does not divide that raises `KernelError`.
    """
    pow_ = ts.kind is MonadKind.POW
    values = [False if pow_ else 0] * count_words(len(alphabet), depth)
    entries = [(t, True) for t in ts.payload] if pow_ else ts.payload
    if not pow_:
        d, scale = over or (lcm(*(m.denominator for (w, _), m in entries if len(w) <= depth)), 1)
        dens = [d * scale ** k for k in range(depth + 1)]
    for (w, s), m in entries:
        if s != terminal:
            raise KernelError(f"trace terminal {s!r} is not {terminal!r}; "
                              "multi-terminal trace sets have no language collapse")
        if len(w) > depth:
            continue
        if not pow_:
            q, r = divmod(dens[len(w)], m.denominator)
            if r:
                raise KernelError(f"trace mass {m} of word {w!r} is not a multiple "
                                  f"of 1/{dens[len(w)]}")
            m = m.numerator * q
        values[word_position(alphabet, w)] = m
    return TruncatedLanguage(alphabet, depth, values, None if pow_ else (d, scale))


# ---------------------------------------------------------------------------
# logical engine


def _suffix_pass(view: StepView, words: list, positions) -> tuple[dict, dict]:
    """The logical engine's one backward pass: every state's value on every
    word of `words`, which lists each word's tail `w[1:]` before the word;
    `positions` gives each word's `word_position`, where a semantic state's
    column holds its value.

    A word's value at an ordinary state is its output on the empty word, or
    the modality over its successors' values on the tail; a semantic state
    looks the word up.  The values of all states on one word form one
    vector, computed from the tail's vector at once with the view's
    encoding: on a boolean view a state mask (bit i set when state i
    answers true), on an expectation view a list of integer numerators over
    `view.dens(len(word))`.

    A semantic state asked for a word longer than its depth is poisoned at
    that word, and so is an ordinary state with a poisoned successor on the
    tail.  Returns the vectors and the nonzero poison masks, keyed by word.
    """
    succ, rows = view.succ, view.rows
    semantic = [(view.index[y], lang) for y, lang in view.semantic.items()]

    if view.alg is Modality.EXPECT:
        # a semantic column's numerator after k letters, over its own
        # D' * L'**k, times factor[i][k] is over the view's D * L**k
        factor = {i: [view.dens(k) // (lang.over[0] * lang.over[1] ** k)
                      for k in range(lang.depth + 1)] for i, lang in semantic}

        def start() -> list:
            return list(view.int_out)

        def step(a, tail: list) -> list:
            return [sum([q * tail[j] for j, q in row]) for row in rows[a]]

        def look_up(t: list, i: int, v: int, k: int) -> list:
            t[i] = v * factor[i][k]
            return t
    else:
        def start() -> int:
            return view.out_mask

        if view.alg is Modality.JOIN_MEET:
            def step(a, tail: int) -> int:
                return sum(1 << i for i, inner in enumerate(rows[a])
                           if any((m & tail) == m for m in inner))
        elif view.alg is Modality.MEET:
            def step(a, tail: int) -> int:
                return sum(bit for bit, m in succ[a] if (m & tail) == m)
        else:
            def step(a, tail: int) -> int:
                return sum(bit for bit, m in succ[a] if m & tail)

        def look_up(t: int, i: int, v, k: int) -> int:
            return t | (1 << i) if v else t

    vectors: dict = {}
    poison: dict = {}
    for w, pos in zip(words, positions):
        if w:
            a, tail = w[0], w[1:]
            t = step(a, vectors[tail])
            bad = poison.get(tail, 0)
            # a state reads its successors' entries: poison spreads along `succ`
            p = sum(bit for bit, m in succ[a] if m & bad) if bad else 0
        else:
            t, p = start(), 0
        for i, lang in semantic:
            if len(w) > lang.depth:
                p |= 1 << i
            else:
                t = look_up(t, i, lang.column[pos], len(w))
        vectors[w] = t
        if p:
            poison[w] = p
    return vectors, poison


def _underflow(view: StepView, poison: dict, y, w: tuple) -> KernelError:
    """The error of a poisoned entry: follow the first poisoned successor in
    `canon_key` order down to the semantic state that cannot answer."""
    while y not in view.semantic:
        mv, w = view.trans[y][w[0]], w[1:]
        y = min((z for z in _base_states(mv) if poison.get(w, 0) >> view.index[z] & 1),
                key=canon_key)
    return KernelError(f"semantic state {y!r} (depth {view.semantic[y].depth}) "
                       f"cannot answer a residual word of length {len(w)}")


def _state_column(view: StepView, vectors: dict, poison: dict, x, words) -> list:
    """State `x`'s column on `words`, in order, read from `_suffix_pass`
    results: booleans, or numerators over `view.dens(len(word))`; the first
    poisoned entry among them raises."""
    i = view.index[x]
    bit = 1 << i
    if poison:
        for w in words:
            if poison.get(w, 0) & bit:
                raise _underflow(view, poison, x, w)
    if view.alg is Modality.EXPECT:
        return [vectors[w][i] for w in words]
    return [(vectors[w] & bit) != 0 for w in words]


def logic_eval(view: StepView, x, word) -> object:
    """Evaluate one word as a test under the modality, looking the rest of
    the word up at a semantic state: one backward pass over the word's
    suffixes, shortest first.

    Works for any branching kind, including double powerset.
    """
    view.states.require(x)
    word = tuple(view.alphabet.require(a) for a in word)
    suffixes = [word[k:] for k in range(len(word), -1, -1)]
    vectors, poison = _suffix_pass(view, suffixes,
                                   [word_position(view.alphabet, w) for w in suffixes])
    value = _state_column(view, vectors, poison, x, [word])[0]
    return Fraction(value, view.dens(len(word))) if view.alg is Modality.EXPECT else value


def logic_language(view: StepView, depth: int, states=None) -> dict:
    """Tabulated logical semantics of every state, or of `states` only, from
    one backward pass over every word up to `depth`.

    A semantic state answers words only up to its own depth, so some states
    may have a language at `depth` while the machine as a whole has none;
    `states` asks for just those.
    """
    states = view.states if states is None else [view.states.require(x) for x in states]
    if not states:
        return {}
    words = enumerate_words(view.alphabet, depth)
    vectors, poison = _suffix_pass(view, words, range(len(words)))
    return {x: TruncatedLanguage(view.alphabet, depth,
                                 _state_column(view, vectors, poison, x, words), view.over)
            for x in states}


def logic_eval_tree(tc: TreeCoalgebra, depth: int) -> dict:
    """For every state, its value on every tree of height <= depth, as a
    column in `enumerate_trees` order: one bottom-up pass
    (`languages.unfold_trees`) whose value at a tree is every state's.

    A state's value on `symbol(kids)` collapses its nodes under the
    modality: a node of another symbol gives bottom, one of this symbol the
    meet of the kids' values at its child states.
    """
    alg, bot = tc.alg, omega_bot(tc.alg)

    def node(symbol, kids: tuple) -> dict:
        def match(nd):
            sym, ys = nd
            if sym != symbol:
                return bot
            return omega_meet(alg, (kid[y] for kid, y in zip(kids, ys)))
        return {x: algebra_map(alg, match, tc.c[x]) for x in tc.states}

    values = unfold_trees(tc.signature, depth, node)
    return {x: [v[x] for v in values] for x in tc.states}


def logic_eval_strange(sc: StrangeCoalgebra, depth: int) -> dict:
    """For every state, whether it can stop within n steps, for n = 0..depth:
    it can stop outright, or some successor can within n - 1.

    Computed bottom-up, one step count at a time for all states: the states
    that can stop within n steps but not within n - 1 are those not found
    yet with a successor found at step n - 1.  A state found at step k can
    stop within n steps exactly for n >= k.  Within the word budget of
    `enumerate_words` over one letter, checked before any table is built;
    the letter budget does not apply, since no word is built.
    """
    if depth >= DEFAULT_GUARD:
        raise SizeGuardError(f"more than {DEFAULT_GUARD} words up to length {depth}")
    preds: dict = {x: [] for x in sc.states}
    for x in sc.states:
        for z in sc.c[x].elements:
            if z != STAR:
                preds[z].append(x)
    layer = [x for x in sc.states if STAR in sc.c[x].elements]
    found = dict.fromkeys(layer, 0)  # state -> the step count at which it can first stop
    for n in range(1, depth + 1):
        nxt = []
        for x in layer:
            for y in preds[x]:
                if y not in found:
                    found[y] = n
                    nxt.append(y)
        layer = nxt
    never = depth + 1
    return {x: (False,) * found.get(x, never) + (True,) * (never - found.get(x, never))
            for x in sc.states}


def strange_to_generative(sc: StrangeCoalgebra) -> GenerativeCoalgebra:
    """Embed over the one-letter alphabet `a`: successors emit `a`, STAR terminates."""
    c = {x: pow_value([Done(CHECK) if u == STAR else Move("a", u)
                       for u in sc.c[x].elements])
         for x in sc.states}
    return GenerativeCoalgebra(sc.states, Universe(["a"]), MonadKind.POW, c)


# ---------------------------------------------------------------------------
# comparison report


@dataclass
class PairVerdict:
    engine_a: str
    engine_b: str
    state: object
    equal: bool
    first_difference: Optional[tuple]  # word, or step count for strange machines


@dataclass
class SemanticsReport:
    """What `compare_semantics` ran and found.  The summary fields are read
    off the verdicts, the trace values and the witnesses."""

    machine_kind: str
    depth: int
    engines: list[str]
    languages: dict  # engine -> state -> TruncatedLanguage (or {state: values})
    verdicts: list[PairVerdict]
    trace_sets: dict = field(default_factory=dict)  # state -> MonadValue over traces
    collapse_witnesses: list = field(default_factory=list)  # (x, y) equal-language, distinct-trace pairs

    @property
    def all_equal(self) -> bool:
        return all(v.equal for v in self.verdicts)

    @property
    def retained_mass(self) -> dict:
        """Each state's trace mass, on a subdistribution machine."""
        return {x: ts.mass() for x, ts in self.trace_sets.items() if ts.kind is MonadKind.SUBDIST}

    @property
    def collapse_injective(self) -> Optional[bool]:
        """Whether no two states have equal languages but distinct trace
        values; `None` on a Moore machine, which has no traces."""
        return None if self.machine_kind == "moore" else not self.collapse_witnesses


def compare_semantics(machine, depth: int) -> SemanticsReport:
    """Run every engine that applies to the machine and compare the results.

    Moore and generative machines are read through one step view, which the
    forward engine (not on double powerset) and the logical engine run on; a
    generative machine also runs the trace-set engine, collapsed to a
    language by `kbar`.  Every pair of engines is compared on every state.
    Strange machines compare, for every pair of states, whether the
    stop-logic and the trace sets tell them apart alike.  On generative and
    strange machines, states with equal languages but distinct trace values
    witness that the collapse from traces to languages is not injective.
    """
    traces: dict = {}
    if isinstance(machine, StrangeCoalgebra):
        kind, engines = "strange", ["logic", "kleisli"]
        logic = logic_eval_strange(machine, depth)
        langs = {"logic": logic}
        traces = kleisli_traces(strange_to_generative(machine), depth)
        verdicts = [PairVerdict("logic", "kleisli", (x, y),
                                (logic[x] == logic[y]) == (traces[x] == traces[y]), None)
                    for x, y in combinations(machine.states, 2)]
    elif isinstance(machine, (MooreCoalgebra, GenerativeCoalgebra)):
        generative = isinstance(machine, GenerativeCoalgebra)
        kind = "generative" if generative else "moore"
        if generative:
            if len(machine.terminals) != 1:
                raise KernelError("language comparison needs a single terminal")
            traces = kleisli_traces(machine, depth)
        view = step_view(machine)
        langs = {}
        if view.kind is not MonadKind.DOUBLE_POW:
            langs["em"] = em_language(view, depth)
        langs["logic"] = logic_language(view, depth)
        if generative:
            terminal = machine.terminals.elements[0]
            langs["kleisli"] = {x: kbar(traces[x], view.alphabet, depth, terminal, view.over)
                                for x in machine.states}
        engines = list(langs)
        verdicts = [PairVerdict(ea, eb, x, *language_equal(langs[ea][x], langs[eb][x]))
                    for ea, eb in combinations(engines, 2) for x in machine.states]
    else:
        raise KernelError(f"cannot compare semantics of {type(machine).__name__}")
    # the traces are keyed by the states in order; a Moore machine has none
    witnesses = [(x, y) for x, y in combinations(traces, 2)
                 if langs["logic"][x] == langs["logic"][y] and traces[x] != traces[y]]
    return SemanticsReport(kind, depth, engines, langs, verdicts, traces, witnesses)
