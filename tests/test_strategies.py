"""Strategies: traces, unfolding coherence, the tagged-sum collapse, determinisation."""

import pytest

from tests import gen, oracles
from tests.fixtures import load
from tracekit.kernel import KernelError, Universe
from tracekit.languages import SizeGuardError
from tracekit.strategies import (
    IOSignature,
    IOSystem,
    check_strategy_coalgebra,
    determinise_io,
    io_traces,
    pack_tagged,
    sigma_sharp,
    strat_init,
    strat_residual,
    unpack_tagged,
)


def test_io_traces_self_loop():
    io1 = load("io_self_loop")
    assert io_traces(io1, "s", 2).plays == frozenset({("k",), ("k", "0", "k"), ("k", "1", "k")})


def test_io_traces_deadlock_is_empty():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "generative", {"x": frozenset()})
    assert io_traces(sys, "x", 3).plays == frozenset()


def test_reactive_traces_contain_empty_play():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "reactive", {"x": {"k": frozenset()}})
    assert io_traces(sys, "x", 3).plays == frozenset({()})


def test_strat_init():
    io1 = load("io_self_loop")
    assert strat_init(io_traces(io1, "s", 2)) == frozenset({"k"})
    from tracekit.strategies import Strategy
    assert strat_init(Strategy("generative", 1, frozenset())) == frozenset()
    assert strat_init(Strategy("generative", 2, frozenset({("k",), ("k", 0, "k")}))) \
        == frozenset({"k"})


def test_strat_residual():
    from tracekit.strategies import Strategy
    sigma = Strategy("generative", 2, frozenset({("k",), ("k", 0, "k")}))
    assert strat_residual(sigma, "k", 0).plays == frozenset({("k",)})
    assert strat_residual(sigma, "k", 1).plays == frozenset()
    with pytest.raises(KernelError):
        strat_residual(Strategy("generative", 1, frozenset()), "k", 0)


def test_residual_matches_lower_bound_traces():
    io1 = load("io_self_loop")
    sigma = io_traces(io1, "s", 2)
    assert strat_residual(sigma, "k", "0").plays == io_traces(io1, "s", 1).plays


def test_coalgebra_coherence_and_mutation():
    io1 = load("io_self_loop")
    assert check_strategy_coalgebra(io1, 3).holds
    mutated = check_strategy_coalgebra(io1, 3, residual_bound=lambda b: b)
    assert not mutated.holds and mutated.counterexample is not None


def test_coalgebra_coherence_vacuous_on_deadlock():
    sig = IOSignature(Universe(["k"]), {"k": Universe([0])})
    sys = IOSystem(Universe(["x"]), sig, "generative", {"x": frozenset()})
    assert check_strategy_coalgebra(sys, 3).holds


def test_sigma_sharp_examples():
    values = {"j": {True: True, False: False}}
    joins = {"j": lambda a, b: a or b}
    assert sigma_sharp(values, joins, []) == (frozenset(), {})
    live, sups = sigma_sharp(values, joins, [("j", True), ("j", False)])
    assert live == frozenset({"j"}) and sups == {"j": True}


def test_sigma_sharp_on_powerset_carriers():
    values = {"j": {x: frozenset([x]) for x in "abc"}}
    joins = {"j": lambda a, b: a | b}
    live, sups = sigma_sharp(values, joins, [("j", "a"), ("j", "c")])
    assert sups["j"] == frozenset("ac")


def test_tagged_iso_round_trip():
    for fams in [
        {"j": frozenset("ab"), "i": frozenset("c")},
        {"j": frozenset("a")},
        {},
    ]:
        live = frozenset(fams)
        packed = pack_tagged(live, fams)
        assert unpack_tagged(packed) == (live, fams)
        assert pack_tagged(*unpack_tagged(packed)) == packed


def test_pack_rejects_empty_component():
    with pytest.raises(KernelError):
        pack_tagged(["j"], {"j": frozenset()})


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
        assert det.traces(frozenset(["s"]), b).plays == io_traces(io1, "s", b).plays


def test_reactive_fixture_traces():
    re1 = load("io_reactive")
    assert io_traces(re1, "s0", 2).plays == frozenset({(), ("k", "0")})
    assert io_traces(re1, "s1", 2).plays == frozenset({()})
    assert check_strategy_coalgebra(re1, 3).holds


@pytest.mark.parametrize("mode", ["generative", "reactive"])
def test_random_systems_prefix_closed_and_oracle(mode):
    for seed in range(20):
        sys = gen.random_io_system(seed, mode)
        for x in sys.states:
            sigma = io_traces(sys, x, 3)
            assert sigma.is_prefix_closed()
            witnessed = {p for p in oracles.io_all_candidate_plays(sys, 3)
                         if oracles.io_play_witnessed(sys, x, p)}
            assert sigma.plays == witnessed


@pytest.mark.parametrize("mode", ["generative", "reactive"])
def test_random_systems_coherence(mode):
    for seed in range(20):
        assert check_strategy_coalgebra(gen.random_io_system(seed, mode), 3).holds


def test_random_generative_determinise_preserves_traces():
    for seed in range(20):
        sys = gen.random_io_system(seed, "generative")
        det = determinise_io(sys)
        for x in sys.states:
            for b in range(4):
                assert det.traces(frozenset([x]), b).plays == io_traces(sys, x, b).plays


def test_determinised_subset_system_is_built_once():
    det = determinise_io(load("io_self_loop"))
    subset_system = det.system
    det.traces(frozenset(["s"]), 2)
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
