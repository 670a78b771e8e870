"""Strategies: traces, unfolding coherence, the play budget, determinisation."""

import pytest

from tests import gen, oracles
from tests.fixtures import load
from tracekit.kernel import KernelError, Universe
from tracekit.languages import SizeGuardError
from tracekit.strategies import (
    IOSignature,
    IOSystem,
    Strategy,
    _residuals,
    check_strategy_coalgebra,
    determinise_io,
    io_traces,
    strat_cut,
    strat_init,
    strat_residual,
)


def test_io_traces_self_loop():
    io1 = load("io_self_loop")
    assert io_traces(io1, 2)["s"].plays == frozenset({("k",), ("k", "0", "k"), ("k", "1", "k")})


def test_io_traces_deadlock_is_empty():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "generative", {"x": frozenset()})
    assert io_traces(sys, 3)["x"].plays == frozenset()


def test_reactive_traces_contain_empty_play():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "reactive", {"x": {"k": frozenset()}})
    assert io_traces(sys, 3)["x"].plays == frozenset({()})


def test_strat_init():
    io1 = load("io_self_loop")
    assert strat_init(io_traces(io1, 2)["s"]) == frozenset({"k"})
    assert strat_init(Strategy("generative", 1, frozenset())) == frozenset()
    assert strat_init(Strategy("generative", 2, frozenset({("k",), ("k", 0, "k")}))) \
        == frozenset({"k"})
    re1 = load("io_reactive")
    assert strat_init(io_traces(re1, 2)["s0"], "k") == frozenset({"0"})
    assert strat_init(io_traces(re1, 2)["s1"], "k") == frozenset()


def test_strat_residual():
    sigma = Strategy("generative", 2, frozenset({("k",), ("k", 0, "k")}))
    assert strat_residual(sigma, "k", 0).plays == frozenset({("k",)})
    assert strat_residual(sigma, "k", 1).plays == frozenset()
    with pytest.raises(KernelError):
        strat_residual(Strategy("generative", 1, frozenset()), "k", 0)
    reactive = Strategy("reactive", 2, frozenset({(), ("k", 0), ("k", 0, "k", 1)}))
    assert strat_residual(reactive, "k", 0) == Strategy("reactive", 1, frozenset({(), ("k", 1)}))
    with pytest.raises(KernelError):
        strat_residual(reactive, "k", 1)


def test_residual_matches_lower_bound_traces():
    io1 = load("io_self_loop")
    sigma = io_traces(io1, 2)["s"]
    assert strat_residual(sigma, "k", "0").plays == io_traces(io1, 1)["s"].plays
    # the coherence check compares each residual with the targets' strategies
    # cut to one output fewer; that cut must be the trace map one bound lower
    for mode in ("generative", "reactive"):
        for seed in range(20):
            sys = gen.random_io_system(seed, mode)
            for b in range(1, 5):
                traces, lower = io_traces(sys, b), io_traces(sys, b - 1)
                for x in sys.states:
                    assert strat_cut(traces[x], b - 1) == lower[x]


def test_grouped_residuals_match_strat_residual():
    # the coherence check reads every residual from one grouping of the plays
    for mode in ("generative", "reactive"):
        for seed in range(20):
            sys = gen.random_io_system(seed, mode)
            for b in range(1, 5):
                for x, sigma in io_traces(sys, b).items():
                    grouped = _residuals(sigma)
                    if mode == "generative":
                        rounds = {(k, i) for k in strat_init(sigma)
                                  for i in sys.signature.answers(k)}
                    else:
                        rounds = {(k, i) for k in sys.signature.operations
                                  for i in strat_init(sigma, k)}
                    assert set(grouped) <= rounds
                    for k, i in rounds:
                        assert grouped.get((k, i), frozenset()) == \
                            strat_residual(sigma, k, i).plays, (mode, seed, b, x, k, i)


def test_coalgebra_coherence_and_mutation():
    io1 = load("io_self_loop")
    traces = io_traces(io1, 3)
    assert check_strategy_coalgebra(io1, traces).holds
    sigma = traces["s"]
    mutated = dict(traces, s=Strategy(sigma.mode, sigma.bound,
                                      sigma.plays - {("k", "0", "k", "0", "k")}))
    report = check_strategy_coalgebra(io1, mutated)
    assert not report.holds
    assert report.counterexample.input == ("residual", "s", "k", "0")


def test_coalgebra_coherence_catches_a_reactive_answer_set():
    re1 = load("io_reactive")
    traces = io_traces(re1, 3)
    assert check_strategy_coalgebra(re1, traces).holds
    sigma = traces["s0"]
    mutated = dict(traces, s0=Strategy(sigma.mode, sigma.bound, sigma.plays | {("k", "1")}))
    report = check_strategy_coalgebra(re1, mutated)
    assert not report.holds
    assert report.counterexample.input == ("answers", "s0", "k")
    assert (report.counterexample.lhs, report.counterexample.rhs) == \
        (frozenset({"0", "1"}), frozenset({"0"}))


def test_coalgebra_coherence_vacuous_on_deadlock():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "generative", {"x": frozenset()})
    assert check_strategy_coalgebra(sys, io_traces(sys, 3)).holds


def _two_by_two_reactive_loop() -> IOSystem:
    # one state, 2 operations x 2 answers, every answer loops back:
    # (4**(b+1) - 1) / 3 plays up to b outputs
    sig = IOSignature(Universe(["k", "l"]), {k: Universe(["0", "1"]) for k in "kl"})
    return IOSystem(Universe(["x"]), sig, "reactive",
                    {"x": {k: frozenset({("0", "x"), ("1", "x")}) for k in "kl"}})


def test_io_traces_play_budget():
    sys = _two_by_two_reactive_loop()
    assert len(io_traces(sys, 6)["x"].plays) == 5_461
    with pytest.raises(SizeGuardError, match="more than 20000 plays"):
        io_traces(sys, 7)


def test_io_traces_budget_stops_a_long_cycle():
    # one play more per bound, each longer: 20,000 plays are built by bound 200
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "generative", {"x": frozenset({("k", ("x",))})})
    assert len(io_traces(sys, 199)["x"].plays) == 199
    with pytest.raises(SizeGuardError):
        io_traces(sys, 20_000)


def test_io_traces_stops_at_a_fixpoint():
    # acyclic, so bounds beyond the longest path add no play
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x", "y", "z"]), sig, "generative",
                   {"x": frozenset({("k", ("y",))}), "y": frozenset({("k", ("z",))}),
                    "z": frozenset()})
    assert io_traces(sys, 10**9)["x"].plays == frozenset({("k",), ("k", 0, "k")})


def test_determinise_self_loop():
    det = determinise_io(load("io_self_loop"))
    assert det.subsets == [frozenset(["s"])]
    assert det.succ[(frozenset(["s"]), "k", "0")] == frozenset(["s"])


def test_determinise_merges_positionwise():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0, 1])})
    sys = IOSystem(
        Universe(["x", "y", "z"]), sig, "generative",
        {"x": frozenset({("k", ("y", "z")), ("k", ("z", "y"))}),
         "y": frozenset(), "z": frozenset()})
    det = determinise_io(sys)
    start = frozenset(["x"])
    assert det.succ[(start, "k", 0)] == frozenset(["y", "z"])
    assert det.succ[(start, "k", 1)] == frozenset(["y", "z"])


def test_determinise_deterministic_input():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x", "y"]), sig, "generative",
                   {"x": frozenset({("k", ("y",))}), "y": frozenset()})
    det = determinise_io(sys)
    assert all(len(u) <= 1 for u in det.subsets)


def test_determinise_preserves_traces_on_fixture():
    io1 = load("io_self_loop")
    det = determinise_io(io1)
    for b in range(4):
        assert io_traces(det.system, b)[frozenset(["s"])].plays == io_traces(io1, b)["s"].plays


def test_reactive_fixture_traces():
    re1 = load("io_reactive")
    traces = io_traces(re1, 2)
    assert traces["s0"].plays == frozenset({(), ("k", "0")})
    assert traces["s1"].plays == frozenset({()})
    assert check_strategy_coalgebra(re1, io_traces(re1, 3)).holds


@pytest.mark.parametrize("mode", ["generative", "reactive"])
def test_random_systems_prefix_closed_and_oracle(mode):
    for seed in range(20):
        sys = gen.random_io_system(seed, mode)
        traces = io_traces(sys, 3)
        for x in sys.states:
            sigma = traces[x]
            assert oracles.strategy_prefix_closed(sigma)
            witnessed = {p for p in oracles.io_all_candidate_plays(sys, 3)
                         if oracles.io_play_witnessed(sys, x, p)}
            assert sigma.plays == witnessed


@pytest.mark.parametrize("mode", ["generative", "reactive"])
def test_random_systems_coherence(mode):
    for seed in range(20):
        sys = gen.random_io_system(seed, mode)
        assert check_strategy_coalgebra(sys, io_traces(sys, 3)).holds


def test_random_generative_determinise_preserves_traces():
    for seed in range(20):
        sys = gen.random_io_system(seed, "generative")
        det = determinise_io(sys)
        for b in range(4):
            subset_traces, traces = io_traces(det.system, b), io_traces(sys, b)
            for x in sys.states:
                assert subset_traces[frozenset([x])].plays == traces[x].plays


def test_determinised_subset_system_is_built_once():
    det = determinise_io(load("io_self_loop"))
    subset_system = det.system
    io_traces(det.system, 2)
    assert det.system is subset_system
    assert list(subset_system.states) == det.subsets


def test_determinise_io_beyond_the_size_guard_fails():
    # answer "a" from q0 also starts a 15-step countdown: 2**15 subsets contain q0
    sig = IOSignature(Universe(["k"]), {"k": Universe(["a", "b"])})
    states = [f"q{i}" for i in range(16)]
    trans = {x: frozenset({("k", (y, y))}) for x, y in zip(states[1:], states[2:])}
    trans["q0"] = frozenset({("k", ("q0", "q0")), ("k", ("q1", "q0"))})
    trans["q15"] = frozenset()
    with pytest.raises(SizeGuardError):
        determinise_io(IOSystem(Universe(states), sig, "generative", trans))


def test_move_table_is_the_same_shape_in_both_modes():
    gen_sys = load("io_self_loop")
    assert gen_sys.moves == {"s": {"k": {"0": ["s"], "1": ["s"]}}}
    assert load("io_reactive").moves == {"s0": {"k": {"0": ["s1"]}}, "s1": {"k": {}}}
