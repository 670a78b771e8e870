"""Brute-force oracles, written against the raw transition data.

These enumerate runs, paths and plays explicitly and share no evaluation
code with the engine implementations; tests compare engine output against
them value by value.
"""

from __future__ import annotations

from fractions import Fraction

from tracekit.kernel import Done, Modality, MonadKind, Move, STAR


def _successors(machine, y, a) -> list:
    """(target, weight) pairs of one Moore transition; weight 1 for powersets."""
    mv = machine.trans[y][a]
    if machine.kind is MonadKind.POW:
        return [(z, Fraction(1)) for z in mv.payload]
    return list(mv.payload)


def _complete_paths(machine, x, word) -> list:
    """Every state sequence following `word` from x, with its weight product."""
    paths = [((x,), Fraction(1))]
    for a in word:
        paths = [(seq + (z,), w * wz)
                 for seq, w in paths
                 for z, wz in _successors(machine, seq[-1], a)]
    return paths


def moore_value(machine, x, word):
    """Path-enumeration semantics of a Moore machine.

    Join: some complete path ends accepting.  Meet: every complete path ends
    accepting (vacuously true).  Expect: total path weight into each end
    state times its output.
    """
    paths = _complete_paths(machine, x, word)
    if machine.alg is Modality.JOIN:
        return any(machine.out[seq[-1]] for seq, _ in paths)
    if machine.alg is Modality.MEET:
        return all(machine.out[seq[-1]] for seq, _ in paths)
    return sum((w * machine.out[seq[-1]] for seq, w in paths), Fraction(0))


def _combine_end_states(machine, paths):
    if machine.alg is Modality.JOIN:
        return any(machine.out[seq[-1]] for seq, _ in paths)
    if machine.alg is Modality.MEET:
        return all(machine.out[seq[-1]] for seq, _ in paths)
    return sum((w * machine.out[seq[-1]] for seq, w in paths), Fraction(0))


def moore_language_by_paths(machine, x, depth: int) -> dict:
    """Word -> value table from explicit path lists shared along the word trie."""
    table: dict = {}

    def visit(word: tuple, paths: list):
        table[word] = _combine_end_states(machine, paths)
        if len(word) == depth:
            return
        for a in machine.alphabet:
            visit(word + (a,),
                  [(seq + (z,), w * wz) for seq, w in paths
                   for z, wz in _successors(machine, seq[-1], a)])

    visit((), [((x,), Fraction(1))])
    return table


def _gen_successors(gc, y, a) -> list:
    mv = gc.c[y]
    if gc.kind is MonadKind.POW:
        return [(u.target, Fraction(1)) for u in mv.payload
                if isinstance(u, Move) and u.label == a]
    return [(u.target, w) for u, w in mv.payload
            if isinstance(u, Move) and u.label == a]


def _gen_done_weight(gc, y) -> Fraction:
    mv = gc.c[y]
    if gc.kind is MonadKind.POW:
        return Fraction(1) if any(isinstance(u, Done) for u in mv.payload) else Fraction(0)
    return sum((w for u, w in mv.payload if isinstance(u, Done)), Fraction(0))


def generative_value(gc, x, word):
    """Path enumeration for generative machines: follow the word, then stop."""
    paths = [((x,), Fraction(1))]
    for a in word:
        paths = [(seq + (z,), w * wz)
                 for seq, w in paths
                 for z, wz in _gen_successors(gc, seq[-1], a)]
    if gc.kind is MonadKind.POW:
        return any(_gen_done_weight(gc, seq[-1]) == 1 for seq, _ in paths)
    return sum((w * _gen_done_weight(gc, seq[-1]) for seq, w in paths), Fraction(0))


def generative_language_by_paths(gc, x, depth: int) -> dict:
    """Word -> value table for generative machines, by explicit path lists."""
    table: dict = {}

    def visit(word: tuple, paths: list):
        if gc.kind is MonadKind.POW:
            table[word] = any(_gen_done_weight(gc, seq[-1]) == 1 for seq, _ in paths)
        else:
            table[word] = sum((w * _gen_done_weight(gc, seq[-1]) for seq, w in paths),
                              Fraction(0))
        if len(word) == depth:
            return
        for a in gc.labels:
            visit(word + (a,),
                  [(seq + (z,), w * wz) for seq, w in paths
                   for z, wz in _gen_successors(gc, seq[-1], a)])

    visit((), [((x,), Fraction(1))])
    return table


def generative_traces(gc, x, depth: int):
    """All complete runs of length <= depth, as {trace: weight}.

    For powerset machines every weight is 1.
    """
    out: dict = {}

    def walk(y, emitted: tuple, weight: Fraction):
        mv = gc.c[y]
        entries = [(u, Fraction(1)) for u in mv.payload] \
            if gc.kind is MonadKind.POW else list(mv.payload)
        for u, w in entries:
            if isinstance(u, Done):
                key = (emitted, u.terminal)
                if gc.kind is MonadKind.POW:
                    out[key] = Fraction(1)
                else:
                    out[key] = out.get(key, Fraction(0)) + weight * w
            elif len(emitted) < depth:
                walk(u.target, emitted + (u.label,), weight * w)

    walk(x, (), Fraction(1))
    return out


def tree_run_exists(tc, x, tree) -> bool:
    """Enumerate decorated run trees explicitly, one at a time, and test
    whether any survives: the enumeration stops at the first complete run."""
    def runs(y, t):
        for node in tc.c[y].payload:
            sym, kids = node
            if sym == t.symbol and len(kids) == len(t.children):
                for c in child_runs(kids, t.children):
                    yield (y, node, c)

    def child_runs(kids, children):
        if not children:
            yield ()
            return
        for run in runs(kids[0], children[0]):
            for rest in child_runs(kids[1:], children[1:]):
                yield (run,) + rest

    return next(runs(x, tree), None) is not None


def strange_reachable_stop(sc, x, n: int) -> bool:
    """Breadth-first search: can some state within n steps of x stop outright?"""
    frontier = {x}
    for _ in range(n + 1):
        if any(STAR in sc.c[y].payload for y in frontier):
            return True
        frontier = {z for y in frontier for z in sc.c[y].payload if z != STAR}
    return False


def io_play_witnessed(sys, x, play) -> bool:
    """Explicit run search for one candidate passive-ending play."""
    if sys.mode == "generative":
        def search(y, rest) -> bool:
            if not rest:
                return True
            k, tail = rest[0], rest[1:]
            for op, targets in sys.trans[y]:
                if op != k:
                    continue
                if not tail:
                    return True
                i, tail2 = tail[0], tail[1:]
                answers = list(sys.signature.answers(k))
                if i not in answers:
                    continue
                if search(targets[answers.index(i)], tail2):
                    return True
            return False
        return search(x, play)

    def search_r(y, rest) -> bool:
        if not rest:
            return True
        k, i, tail = rest[0], rest[1], rest[2:]
        return any(search_r(z, tail) for ans, z in sys.trans[y][k] if ans == i)

    return search_r(x, play)


def strategy_prefix_closed(sigma) -> bool:
    """Every play of the strategy is passive-ending and its prefix one
    exchange shorter is a play too; a reactive strategy holds the empty play."""
    if sigma.mode == "generative":
        return all(len(p) % 2 == 1 and (len(p) == 1 or p[:-2] in sigma.plays)
                   for p in sigma.plays)
    return () in sigma.plays and all(
        len(p) % 2 == 0 and (len(p) == 0 or p[:-2] in sigma.plays)
        for p in sigma.plays)


def io_all_candidate_plays(sys, bound: int) -> list:
    """Every well-formed passive-ending play over the signature, within bound."""
    sig = sys.signature
    plays = []
    if sys.mode == "generative":
        frontier = [()]
        for _ in range(bound):
            ending = [p + (k,) for p in frontier for k in sig.operations]
            plays.extend(ending)
            frontier = [p + (i,) for p in ending for i in sig.answers(p[-1])]
    else:
        frontier = [()]
        plays.append(())
        for _ in range(bound):
            frontier = [p + (k, i) for p in frontier
                        for k in sig.operations for i in sig.answers(k)]
            plays.extend(frontier)
    return plays


def generalized_value(gen, x, word):
    """Split-and-concatenate semantics for machines with semantic states.

    Contributions: complete ordinary paths along the whole word (their end
    output), and ordinary paths along a strict prefix that step into a
    semantic state (that language at the residual word).
    """
    contributions: list = []

    def node(y):
        return gen.c[y][1]

    def is_semantic(y) -> bool:
        return gen.c[y][0] == "lang"

    def walk(y, i: int, weight: Fraction):
        if is_semantic(y):
            contributions.append((weight, gen.c[y][1].value(word[i:])))
            return
        if i == len(word):
            contributions.append((weight, node(y)[0]))
            return
        mv = node(y)[1][word[i]]
        pairs = [(z, Fraction(1)) for z in mv.payload] \
            if gen.kind is MonadKind.POW else list(mv.payload)
        for z, w in pairs:
            walk(z, i + 1, weight * w)

    walk(x, 0, Fraction(1))
    if gen.alg is Modality.JOIN:
        return any(v for _, v in contributions)
    if gen.alg is Modality.MEET:
        return all(v for _, v in contributions)
    return sum((w * v for w, v in contributions), Fraction(0))
