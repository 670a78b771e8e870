"""Per-job correctness checks against the independent oracles in `tests/oracles.py`.

Each check reads the report dict exactly as `run_command` returned it and
compares a seeded sample of its entries with brute-force path, run or play
enumeration that shares no code with the engines.  A check returns the list
of problems it found; an empty list means the report is correct.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from tests import oracles
from tracekit.engines import (
    GeneralizedCoalgebra,
    GenerativeCoalgebra,
    MooreCoalgebra,
    StrangeCoalgebra,
    TreeCoalgebra,
)
from tracekit.kernel import CHECK, STAR, Done, MonadKind, Move, Universe, pow_value
from tracekit.languages import enumerate_trees

#: table entries (or plays, or DOT walks) checked per job
SAMPLES = 8


def check(job, report: dict) -> list[str]:
    """Problems found in the report of one job; empty when it is correct."""
    return _CHECKS[job.command](job, report, random.Random(job.check_seed))


def _show(v):
    """A value as the report prints it: booleans as is, rationals as "p/q"."""
    return v if isinstance(v, bool) else str(Fraction(v))


def _words(letters: list, depth: int) -> list[tuple]:
    words, level = [()], [()]
    for _ in range(depth):
        level = [w + (a,) for w in level for a in letters]
        words.extend(level)
    return words


def _joinmeet_value(m, x, word):
    """Alternating acceptance by direct recursion: some conjunct set all of
    whose members accept the rest of the word."""
    if not word:
        return m.out[x]
    return any(all(_joinmeet_value(m, y, word[1:]) for y in inner)
               for inner in m.trans[x][word[0]].payload)


def _word_oracle(m):
    if isinstance(m, GenerativeCoalgebra):
        return oracles.generative_value
    if isinstance(m, GeneralizedCoalgebra):
        return oracles.generalized_value
    if m.kind is MonadKind.DOUBLE_POW:
        return _joinmeet_value
    return oracles.moore_value


def _check_languages(m, depth: int, rows: list, rng, where: str) -> list[str]:
    """Shape of per-state word tables, then sampled entries against the oracle."""
    letters = list(m.labels if isinstance(m, GenerativeCoalgebra) else m.alphabet)
    words = [list(w) for w in _words(letters, depth)]
    if sorted(r["state"] for r in rows) != sorted(m.states):
        return [f"{where}: states {[r['state'] for r in rows]}"]
    for r in rows:
        if [w for w, _ in r["language"]] != words:
            return [f"{where}: table of {r['state']!r} is not the words up to {depth}"]
    oracle = _word_oracle(m)
    problems = []
    for _ in range(SAMPLES):
        r = rng.choice(rows)
        word, got = rng.choice(r["language"])
        want = _show(oracle(m, r["state"], tuple(word)))
        if got != want:
            problems.append(f"{where}: {r['state']!r} on {word}: {got!r}, oracle {want!r}")
    return problems


def _check_compare(job, report, rng) -> list[str]:
    m = job.machine
    if isinstance(m, StrangeCoalgebra):
        return _check_strange(m, job.depth, report)
    problems = [] if report["all_equal"] is True else ["engines disagree"]
    problems += [f"verdict {v['engines']} on {v['state']!r} is unequal"
                 for v in report["verdicts"] if v["equal"] is not True]
    if isinstance(m, GenerativeCoalgebra):
        expected_engines = ["em", "logic", "kleisli"]
    elif m.kind is MonadKind.DOUBLE_POW:
        expected_engines = ["logic"]
    else:
        expected_engines = ["em", "logic"]
    if report["engines"] != expected_engines:
        return problems + [f"engines {report['engines']}, expected {expected_engines}"]
    languages = report["languages"]
    for engine in expected_engines:
        if languages[engine] != languages[expected_engines[0]]:
            problems.append(f"{engine} tables differ from {expected_engines[0]} tables")
        problems += _check_languages(m, job.depth, languages[engine], rng, engine)
    if isinstance(m, GenerativeCoalgebra):
        problems += _check_traces(m, job.depth, report["trace_sets"], rng)
    return problems


def _check_traces(m, depth: int, trace_sets: list, rng) -> list[str]:
    """One sampled state's whole trace set against run enumeration."""
    row = rng.choice(trace_sets)
    want = oracles.generative_traces(m, row["state"], depth)
    if m.kind is MonadKind.POW:
        got = {(tuple(w), s): Fraction(1) for w, s in row["traces"]}
    else:
        got = {(tuple(w), s): Fraction(p) for w, s, p in row["traces"]}
    return [] if got == want else [f"trace set of {row['state']!r} differs from the oracle"]


def _check_strange(m, depth: int, report) -> list[str]:
    """Stop-logic tables and trace sets against the oracles, then every pair's
    verdict: the engines agree on a pair when logical equality and trace
    equality coincide, and a pair that is logically equal but trace-distinct
    is a collapse witness."""
    logic = {x: [oracles.strange_reachable_stop(m, x, n) for n in range(depth + 1)]
             for x in m.states}
    if report["logic_by_steps"] != logic:
        return ["logic_by_steps differs from the oracle"]
    embedded = GenerativeCoalgebra(
        m.states, Universe(["a"]), MonadKind.POW,
        {x: pow_value([Done(CHECK) if u == STAR else Move("a", u) for u in m.c[x].payload])
         for x in m.states})
    traces = {x: oracles.generative_traces(embedded, x, depth) for x in m.states}
    got = {row["state"]: {(tuple(w), s): Fraction(1) for w, s in row["traces"]}
           for row in report["trace_sets"]}
    if got != traces:
        return ["trace sets differ from the oracle"]
    expected, witnesses = {}, []
    states = list(m.states)
    for i, x in enumerate(states):
        for y in states[i + 1:]:
            log_eq, kl_eq = logic[x] == logic[y], traces[x] == traces[y]
            expected[(x, y)] = log_eq == kl_eq
            if log_eq and not kl_eq:
                witnesses.append([x, y])
    problems = []
    if {tuple(v["state"]): v["equal"] for v in report["verdicts"]} != expected:
        problems.append("pair verdicts differ from the oracles")
    if report["all_equal"] is not all(expected.values()):
        problems.append(f"all_equal is {report['all_equal']}")
    if report["collapse_witnesses"] != witnesses:
        problems.append(f"collapse witnesses {report['collapse_witnesses']}, "
                        f"expected {witnesses}")
    return problems


_LAWS_BY_KIND = {
    MooreCoalgebra: ["em_law", "pentagon_em_logic"],
    GeneralizedCoalgebra: ["em_law", "pentagon_em_logic"],
    GenerativeCoalgebra: ["kl_law", "extension_square", "extension_requirement",
                          "pentagon_kl_logic"],
    StrangeCoalgebra: ["pentagon_kl_logic"],
}


def _check_laws(job, report, rng) -> list[str]:
    expected = _LAWS_BY_KIND[type(job.machine)]
    laws = report["laws"]
    problems = [] if report["all_hold"] is True else ["a law fails"]
    if [law["law"] for law in laws] != expected:
        problems.append(f"laws {[law['law'] for law in laws]}, expected {expected}")
    problems += [f"{law['law']} checked no case" for law in laws if law["checked"] < 1]
    return problems


def _check_strategies(job, report, rng) -> list[str]:
    m = job.machine
    problems = [] if report["coherence"]["holds"] is True else ["strategy coherence fails"]
    candidates = oracles.io_all_candidate_plays(m, job.depth)
    if [r["state"] for r in report["results"]] != list(m.states):
        return problems + ["strategy states differ from the machine's"]
    for r in report["results"]:
        x, plays = r["state"], {tuple(p) for p in r["plays"]}
        if not plays <= set(candidates):
            problems.append(f"{x!r}: plays outside the signature or bound")
        sample = rng.sample(candidates, min(SAMPLES, len(candidates)))
        sample += rng.sample(sorted(plays), min(SAMPLES // 2, len(plays)))
        for play in sample:
            if (play in plays) != oracles.io_play_witnessed(m, x, play):
                problems.append(f"{x!r}: play {play} membership disagrees with the oracle")
    return problems


def _check_semantics(job, report, rng) -> list[str]:
    m = job.machine
    rows = report["results"]
    if isinstance(m, TreeCoalgebra):
        trees = enumerate_trees(m.signature, job.depth)
        problems = []
        for r in rows:
            if [t for t, _ in r["tree_language"]] != [repr(t) for t in trees]:
                return [f"tree table of {r['state']!r} is not the trees up to {job.depth}"]
        for _ in range(SAMPLES):
            r = rng.choice(rows)
            i = rng.randrange(len(trees))
            want = oracles.tree_run_exists(m, r["state"], trees[i])
            if r["tree_language"][i][1] != want:
                problems.append(f"{r['state']!r} on {trees[i]!r}: oracle {want}")
        return problems
    return _check_languages(m, job.depth, rows, rng, report["engine"])


_NODE = re.compile(r'\s*"([^"]*)" \[shape=box(?:, label="[^"|]*\|([^"]*)")?\];')
_EDGE = re.compile(r'\s*"([^"]*)" -> "([^"]*)" \[label="([^"]*)"\];')


def _parse_dot(dot: str) -> tuple[dict, dict]:
    """(node -> output label, (node, edge label) -> node) of a determinised DOT."""
    nodes, edges = {}, {}
    for line in dot.splitlines():
        if e := _EDGE.fullmatch(line):
            edges[(e[1], e[3])] = e[2]
        elif n := _NODE.fullmatch(line):
            nodes[n[1]] = n[2]
    return nodes, edges


def _check_determinise(job, report, rng) -> list[str]:
    """Walk the DOT from singletons; every reached node must match the oracle."""
    m = job.machine
    nodes, edges = _parse_dot(report["dot"])
    if len(nodes) != report["n_subsets"]:
        return [f"{len(nodes)} DOT nodes for {report['n_subsets']} subsets"]
    problems = []
    if isinstance(m, MooreCoalgebra):
        letters = list(m.alphabet)
        for _ in range(SAMPLES):
            x = rng.choice(m.states.elements)
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            node = "{" + x + "}"
            for a in word:
                node = edges.get((node, a))
            want = str(oracles.moore_value(m, x, word))
            if nodes.get(node) != want:
                problems.append(f"{x!r} on {word}: DOT node {node!r}, oracle {want}")
        return problems
    candidates = oracles.io_all_candidate_plays(m, 3)
    for _ in range(SAMPLES):
        x, play = rng.choice(m.states.elements), rng.choice(candidates)
        node = "{" + x + "}"
        for k, i in zip(play[0:-1:2], play[1:-1:2]):
            node = edges.get((node, f"{k}/{i}"))
        got = any(src == node and label.split("/")[0] == play[-1] for src, label in edges)
        if got != oracles.io_play_witnessed(m, x, play):
            problems.append(f"{x!r}: play {play} DOT walk {got}, oracle disagrees")
    return problems


def _check_counterexample(job, report, rng) -> list[str]:
    if report["logically_equal_trace_distinct_pairs"] != [["x", "y"]]:
        return [f"pairs {report['logically_equal_trace_distinct_pairs']}, expected [['x', 'y']]"]
    if report["trace_collapse_injective"] is not False:
        return ["trace collapse reported injective"]
    return []


_CHECKS = {
    "compare": _check_compare,
    "laws": _check_laws,
    "strategies": _check_strategies,
    "semantics": _check_semantics,
    "determinise": _check_determinise,
    "counterexample": _check_counterexample,
}
