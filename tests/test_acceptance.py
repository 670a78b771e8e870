"""Acceptance suite: one test per exit criterion, one printed line each.

Every assertion is exact (boolean or reduced-rational equality); each
criterion also checks its wall-clock budget.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

from tests import gen, oracles
from tests.fixtures import load
from tracekit.engines import (
    compare_semantics,
    em_eval,
    em_language,
    kbar,
    kleisli_iterates,
    kleisli_traces,
    logic_eval,
    logic_eval_strange,
    logic_eval_tree,
    logic_language,
    step_view,
    strange_to_generative,
)
from tracekit.kernel import (
    CHECK,
    STAR,
    Done,
    FiniteFunc,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    kappa_moore,
    lambda_generative,
    pow_value,
    sub_dist,
)
from tracekit.languages import enumerate_trees, enumerate_words
from tracekit.laws import (
    canonical_rho2,
    check_em_law,
    check_extension_requirement,
    check_extension_square,
    check_kl_law,
    check_pentagon_em_logic,
    check_pentagon_kl_logic,
    standard_delta,
    strange_delta,
    _a_elements,
)
from tracekit.strategies import check_strategy_coalgebra, determinise_io, io_traces

DEPTH = 4
N_MOORE = 100
N_GENERATIVE = 100
N_TREE = 50
N_IO_PER_MODE = 30
N_GENERALIZED_PER_CONFIG = 20

CARRIERS = [Universe(["x"]), Universe(["x", "y"]), Universe(["x", "y", "z"])]
AB = Universe(["a", "b"])
A1 = Universe(["a"])
TERM = Universe([CHECK])
TERM_STAR = Universe([STAR])


def _report(number: int, description: str, violations: list, elapsed: float, budget: float):
    status = "PASS" if not violations and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert not violations, violations[:3]
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_moore_triangle():
    started = time.perf_counter()
    violations = []
    for config in gen.CONFIGS:
        for seed in range(N_MOORE):
            m = gen.random_moore(seed, config)
            view = step_view(m)
            logs = logic_language(view, DEPTH)
            fwds = em_language(view, DEPTH)
            for x in m.states:
                fwd = fwds[x]
                log = logs[x]
                for w in enumerate_words(m.alphabet, DEPTH):
                    if fwd.value(w) != log.value(w):
                        violations.append((config, seed, x, w))
    _report(1, "forward = logical on random Moore machines (3 configurations)",
            violations, time.perf_counter() - started, 10.0)


def test_criterion_2_generative_triangle():
    started = time.perf_counter()
    violations = []
    for kind in (MonadKind.POW, MonadKind.SUBDIST):
        for seed in range(N_GENERATIVE):
            g = gen.random_generative(seed, kind)
            view = step_view(g)
            logs = logic_language(view, DEPTH)
            traces = kleisli_traces(g, DEPTH)
            fwds = em_language(view, DEPTH)
            for x in g.states:
                fwd = fwds[x]
                log = logs[x]
                viakbar = kbar(traces[x], g.labels, DEPTH)
                for w in enumerate_words(g.labels, DEPTH):
                    if not fwd.value(w) == log.value(w) == viakbar.value(w):
                        violations.append((kind.value, seed, x, w))
    _report(2, "trace-collapse = forward = logical on random generative machines",
            violations, time.perf_counter() - started, 10.0)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    violations = []
    for config in ("nda-exists", "nda-forall"):
        for seed in range(N_MOORE):
            m = gen.random_moore(seed, config)
            engines = em_language(step_view(m), DEPTH)
            for x in m.states:
                table = oracles.moore_language_by_paths(m, x, DEPTH)
                engine = engines[x]
                for w, expected in table.items():
                    if engine.value(w) != expected:
                        violations.append((config, seed, x, w))
    for seed in range(N_GENERATIVE):
        g = gen.random_generative(seed, MonadKind.POW)
        engines = em_language(step_view(g), DEPTH)
        traces = kleisli_traces(g, DEPTH)
        for x in g.states:
            table = oracles.generative_language_by_paths(g, x, DEPTH)
            engine = engines[x]
            for w, expected in table.items():
                if engine.value(w) != expected:
                    violations.append(("generative", seed, x, w))
            got = set(traces[x].support)
            want = set(oracles.generative_traces(g, x, DEPTH))
            if got != want:
                violations.append(("generative-traces", seed, x))
    _report(3, "engine values equal brute-force path/run enumeration (powerset)",
            violations, time.perf_counter() - started, 30.0)


def _reverify(checker, kwargs, first_report):
    """A failing checker must reproduce the same disagreeing counterexample."""
    second = checker(**kwargs)
    cx1, cx2 = first_report.counterexample, second.counterexample
    return (not second.holds and cx1 is not None and cx2 is not None
            and cx1.input == cx2.input and cx1.lhs != cx1.rhs and cx2.lhs == cx1.lhs
            and cx2.rhs == cx1.rhs)


def test_criterion_4_law_suite():
    started = time.perf_counter()
    violations = []

    positive = [
        ("em_law pow join", check_em_law,
         dict(kind=MonadKind.POW, alg=Modality.JOIN, alphabet=AB, carriers=CARRIERS)),
        ("em_law pow meet", check_em_law,
         dict(kind=MonadKind.POW, alg=Modality.MEET, alphabet=AB, carriers=CARRIERS)),
        ("em_law subdist", check_em_law,
         dict(kind=MonadKind.SUBDIST, alg=Modality.EXPECT, alphabet=AB,
              carriers=CARRIERS, seed=11)),
        ("kl_law pow", check_kl_law,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS)),
        ("kl_law subdist", check_kl_law,
         dict(kind=MonadKind.SUBDIST, labels=AB, terminals=TERM, carriers=CARRIERS,
              seed=12)),
        ("extension_square pow", check_extension_square,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS)),
        ("extension_square subdist", check_extension_square,
         dict(kind=MonadKind.SUBDIST, labels=AB, terminals=TERM, carriers=CARRIERS,
              seed=13)),
        ("extension_requirement pow", check_extension_requirement,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS)),
        ("extension_requirement subdist", check_extension_requirement,
         dict(kind=MonadKind.SUBDIST, labels=AB, terminals=TERM, carriers=CARRIERS,
              seed=14)),
        ("pentagon_em pow join", check_pentagon_em_logic,
         dict(kind=MonadKind.POW, alg=Modality.JOIN, alphabet=AB, carriers=CARRIERS)),
        ("pentagon_em subdist", check_pentagon_em_logic,
         dict(kind=MonadKind.SUBDIST, alg=Modality.EXPECT, alphabet=AB,
              carriers=CARRIERS, seed=15)),
        ("pentagon_kl standard pow", check_pentagon_kl_logic,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS)),
        ("pentagon_kl standard subdist", check_pentagon_kl_logic,
         dict(kind=MonadKind.SUBDIST, labels=AB, terminals=TERM, carriers=CARRIERS,
              seed=16)),
        ("pentagon_kl strange", check_pentagon_kl_logic,
         dict(kind=MonadKind.POW, labels=A1, terminals=TERM_STAR, carriers=CARRIERS,
              delta_builder=strange_delta)),
    ]
    for name, checker, kwargs in positive:
        if not checker(**kwargs).holds:
            violations.append(("should hold", name))

    def corrupted_kappa(tv):
        return False, kappa_moore(MonadKind.POW, Modality.JOIN, tv, AB)[1]

    def lambda_dropping_done(v):
        if isinstance(v, Done):
            return pow_value([])
        return lambda_generative(MonadKind.POW, v)

    rho2 = canonical_rho2(MonadKind.POW, AB)

    def rho2_swapped(tv):
        om, fam = rho2(tv)
        return (not om, fam)

    def delta_constant_on_moves(labels, terminals, points, alg=Modality.JOIN):
        std = standard_delta(labels, terminals, points, alg)
        elems = _a_elements(labels, terminals, points)

        def delta(v):
            if isinstance(v, Move):
                return FiniteFunc({u: True for u in elems})
            return std(v)

        return delta

    mutations = [
        ("em_law drop-output", check_em_law,
         dict(kind=MonadKind.POW, alg=Modality.JOIN, alphabet=AB, carriers=CARRIERS,
              kappa_fn=corrupted_kappa)),
        ("kl_law drop-terminal", check_kl_law,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS,
              lambda_fn=lambda_dropping_done)),
        ("extension_square swapped-bit", check_extension_square,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS,
              rho2_fn=rho2_swapped)),
        ("extension_requirement drop-terminal", check_extension_requirement,
         dict(kind=MonadKind.POW, labels=AB, terminals=TERM, carriers=CARRIERS,
              lambda_fn=lambda_dropping_done)),
        ("pentagon_em modality-mismatch", check_pentagon_em_logic,
         dict(kind=MonadKind.POW, alg=Modality.JOIN, alphabet=AB, carriers=CARRIERS,
              kappa_alg=Modality.MEET)),
        ("pentagon_kl move-ignores-test", check_pentagon_kl_logic,
         dict(kind=MonadKind.POW, labels=A1, terminals=TERM_STAR, carriers=CARRIERS,
              delta_builder=delta_constant_on_moves)),
    ]
    for name, checker, kwargs in mutations:
        rep = checker(**kwargs)
        if rep.holds:
            violations.append(("mutation not caught", name))
        elif not _reverify(checker, kwargs, rep):
            violations.append(("counterexample did not re-verify", name))

    _report(4, "all asserted laws hold; every mutation is caught with a witness",
            violations, time.perf_counter() - started, 60.0)


def test_criterion_5_counterexample_reproduction():
    started = time.perf_counter()
    violations = []
    sr = load("strange_pair")
    for n in range(7):
        if logic_eval_strange(sr, n)["x"][n] != logic_eval_strange(sr, n)["y"][n]:
            violations.append(("logic differs", n))
    gc = strange_to_generative(sr)
    tx = kleisli_traces(gc, 6)["x"]
    ty = kleisli_traces(gc, 6)["y"]
    if tx != pow_value([((), CHECK)]):
        violations.append(("x traces", tx))
    if ty != pow_value([(("a",) * k, CHECK) for k in range(7)]):
        violations.append(("y traces", ty))
    rep = compare_semantics(sr, 6)
    if rep.collapse_injective is not False or rep.collapse_witnesses != [("x", "y")]:
        violations.append(("collapse flag", rep.collapse_witnesses))
    _report(5, "stop-logic equal, trace sets distinct, collapse flagged non-injective",
            violations, time.perf_counter() - started, 1.0)


def test_criterion_6_tree_suite():
    started = time.perf_counter()
    violations = []
    for seed in range(N_TREE):
        tc = gen.random_tree_automaton(seed)
        trees, table = enumerate_trees(tc.signature, 4), logic_eval_tree(tc, 4)
        for x in tc.states:
            for t, got in zip(trees, table[x], strict=True):
                if got != oracles.tree_run_exists(tc, x, t):
                    violations.append((seed, x, t))
    _report(6, "tree logic equals run-existence enumeration on random tree automata",
            violations, time.perf_counter() - started, 10.0)


def test_criterion_7_strategy_suite():
    started = time.perf_counter()
    violations = []
    for mode in ("generative", "reactive"):
        for seed in range(N_IO_PER_MODE):
            sys = gen.random_io_system(seed, mode)
            traces = io_traces(sys, 3)
            for x in sys.states:
                if not oracles.strategy_prefix_closed(traces[x]):
                    violations.append((mode, seed, x, "prefix"))
            if not check_strategy_coalgebra(sys, traces).holds:
                violations.append((mode, seed, "coherence"))
            if mode == "generative":
                det = determinise_io(sys)
                for b in range(4):
                    subset_traces, system_traces = io_traces(det.system, b), io_traces(sys, b)
                    for x in sys.states:
                        if subset_traces[frozenset([x])].plays != system_traces[x].plays:
                            violations.append((mode, seed, x, b, "determinise"))
    _report(7, "prefix closure, unfolding coherence and trace-preserving determinisation",
            violations, time.perf_counter() - started, 10.0)


def _leq(kind: MonadKind, a: MonadValue, b: MonadValue) -> bool:
    if kind is MonadKind.POW:
        return set(a.payload) <= set(b.payload)
    return all(b.weight(x) >= w for x, w in a.payload)


def _restrict(mv: MonadValue, m: int) -> MonadValue:
    if mv.kind is MonadKind.POW:
        return pow_value([t for t in mv.payload if len(t[0]) <= m])
    return sub_dist([(t, w) for t, w in mv.payload if len(t[0]) <= m])


def test_criterion_8_kleene_schedule():
    started = time.perf_counter()
    violations = []
    for kind in (MonadKind.POW, MonadKind.SUBDIST):
        for seed in range(50):
            g = gen.random_generative(seed, kind)
            chain = kleisli_iterates(g, DEPTH, DEPTH + 2)
            for k in range(len(chain) - 1):
                for x in g.states:
                    if not _leq(kind, chain[k][x], chain[k + 1][x]):
                        violations.append((kind.value, seed, x, k, "monotone"))
            for m in range(DEPTH + 1):
                for x in g.states:
                    frozen = _restrict(chain[m + 1][x], m)
                    for k in range(m + 2, len(chain)):
                        if _restrict(chain[k][x], m) != frozen:
                            violations.append((kind.value, seed, x, m, k, "stability"))
    _report(8, "Kleene iterates are monotone and stable per trace length",
            violations, time.perf_counter() - started, 5.0)


def test_criterion_9_cia_suite():
    started = time.perf_counter()
    violations = []
    no_semantic_seen = 0
    for config in gen.CONFIGS:
        for seed in range(N_GENERALIZED_PER_CONFIG):
            g = gen.random_generalized(seed, config, DEPTH)
            words = enumerate_words(g.alphabet, DEPTH)
            view = step_view(g)
            for x in g.states:
                for w in words:
                    if logic_eval(view, x, w) != oracles.generalized_value(g, x, w):
                        violations.append((config, seed, x, w))
            if not g.semantic_states():
                no_semantic_seen += 1
                forward = step_view(gen.random_moore(seed, config))
                for x in g.states:
                    for w in words:
                        if logic_eval(view, x, w) != em_eval(forward, x, w):
                            violations.append((config, seed, x, w, "conservativity"))
    if no_semantic_seen == 0:
        violations.append(("no machine without semantic states in the sample",))
    _report(9, "semantic-state evaluation equals the split-and-concatenate oracle",
            violations, time.perf_counter() - started, 10.0)
