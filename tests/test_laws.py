"""Law checkers: the canonical laws hold, mutations fail with real witnesses."""

import pytest

from tracekit.kernel import (
    CHECK,
    STAR,
    Done,
    FiniteFunc,
    Modality,
    MonadKind,
    Move,
    Universe,
    canonical_alg,
    kappa_moore,
    lambda_generative,
    monad_unit,
    omega_bot,
    omega_top,
    pow_value,
    sub_dist,
)
from tracekit.laws import (
    canonical_rho2,
    check_em_law,
    check_extension_requirement,
    check_extension_square,
    check_kl_law,
    check_pentagon_em_logic,
    check_pentagon_kl_logic,
    mate_rho2_of_rho4,
    standard_delta,
    strange_delta,
    _a_elements,
)

A2 = Universe(["a", "b"])
A1 = Universe(["a"])
TERM = Universe([CHECK])
TERM_STAR = Universe([STAR])
CARRIERS = [Universe(["x"]), Universe(["x", "y"]), Universe(["x", "y", "z"])]


# ---------------------------------------------------------------------------
# the asserted laws hold


def test_em_law_pow_join_holds():
    rep = check_em_law(MonadKind.POW, Modality.JOIN, A2, CARRIERS)
    assert rep.holds and rep.checked > 0


def test_em_law_pow_meet_holds():
    assert check_em_law(MonadKind.POW, Modality.MEET, A2, CARRIERS).holds


def test_em_law_degenerate_alphabet():
    assert check_em_law(MonadKind.POW, Modality.JOIN, Universe([]), [Universe(["x"])]).holds


def test_em_law_subdist_holds():
    assert check_em_law(MonadKind.SUBDIST, Modality.EXPECT, A2, CARRIERS, seed=7).holds


def test_kl_law_pow_holds():
    assert check_kl_law(MonadKind.POW, A1, TERM, [Universe(["x", "y"])]).holds


def test_kl_law_subdist_holds():
    assert check_kl_law(MonadKind.SUBDIST, A2, TERM, [Universe(["x"])], seed=5).holds


def test_extension_square_holds():
    assert check_extension_square(MonadKind.POW, A2, TERM, CARRIERS).holds
    assert check_extension_square(MonadKind.SUBDIST, A2, TERM, CARRIERS, seed=3).holds


def test_extension_requirement_holds():
    assert check_extension_requirement(MonadKind.POW, A2, TERM, CARRIERS).holds
    assert check_extension_requirement(MonadKind.SUBDIST, A2, TERM, CARRIERS, seed=3).holds


def test_pentagon_em_holds():
    assert check_pentagon_em_logic(MonadKind.POW, Modality.JOIN, A2, CARRIERS).holds
    assert check_pentagon_em_logic(MonadKind.POW, Modality.MEET, A2, CARRIERS).holds
    assert check_pentagon_em_logic(MonadKind.SUBDIST, Modality.EXPECT, A2, CARRIERS,
                                   seed=1).holds


def test_pentagon_em_empty_carrier():
    assert check_pentagon_em_logic(MonadKind.POW, Modality.JOIN, A2, [Universe([])]).holds


def test_pentagon_kl_standard_holds():
    assert check_pentagon_kl_logic(MonadKind.POW, A2, TERM, CARRIERS).holds
    assert check_pentagon_kl_logic(MonadKind.SUBDIST, A2, TERM, CARRIERS, seed=2).holds


def test_pentagon_kl_strange_holds():
    rep = check_pentagon_kl_logic(MonadKind.POW, A1, TERM_STAR, CARRIERS,
                                  delta_builder=strange_delta)
    assert rep.holds


# ---------------------------------------------------------------------------
# mutations fail, and the counterexample re-verifies


def test_em_law_mutation_drop_first_component():
    def corrupted(tv):
        return False, kappa_moore(MonadKind.POW, Modality.JOIN, tv, A2)[1]

    rep = check_em_law(MonadKind.POW, Modality.JOIN, A2, CARRIERS, kappa_fn=corrupted)
    assert not rep.holds
    cx = rep.counterexample
    assert cx.lhs != cx.rhs
    if cx.note == "unit":
        assert corrupted(monad_unit(MonadKind.POW, cx.input)) == cx.lhs


def test_em_law_judges_the_injected_law_on_both_sides():
    # the meet law is a lawful em law; its extension built from the join law
    # would not match it
    def meet(tv):
        return kappa_moore(MonadKind.POW, Modality.MEET, tv, A2)

    assert check_em_law(MonadKind.POW, Modality.JOIN, A2, CARRIERS, kappa_fn=meet).holds


def _lambda_dropping_done(v):
    if isinstance(v, Done):
        return pow_value([])
    return lambda_generative(MonadKind.POW, v)


def test_kl_law_mutation_unit_dropped():
    rep = check_kl_law(MonadKind.POW, A2, TERM, CARRIERS, lambda_fn=_lambda_dropping_done)
    assert not rep.holds
    cx = rep.counterexample
    assert cx.lhs != cx.rhs


def test_extension_square_mutation_swapped_bit():
    rho2 = canonical_rho2(MonadKind.POW, A2)

    def swapped(tv):
        om, fam = rho2(tv)
        return (not om, fam)

    rep = check_extension_square(MonadKind.POW, A2, TERM, CARRIERS, rho2_fn=swapped)
    assert not rep.holds
    assert rep.counterexample.lhs != rep.counterexample.rhs


def test_extension_requirement_mutation():
    rep = check_extension_requirement(MonadKind.POW, A2, TERM, CARRIERS,
                                      lambda_fn=_lambda_dropping_done)
    assert not rep.holds


def test_pentagon_em_mutation_modality_mismatch():
    rep = check_pentagon_em_logic(MonadKind.POW, Modality.JOIN, A2, CARRIERS,
                                  kappa_alg=Modality.MEET)
    assert not rep.holds
    assert rep.counterexample.lhs != rep.counterexample.rhs


def test_pentagon_kl_mutation_move_ignores_test():
    # A terminal-side mutation cannot break this pentagon (both sides factor
    # through delta on terminal inputs), so the fixture corrupts the move case.
    def corrupted(labels, terminals, points, alg=Modality.JOIN):
        std = standard_delta(labels, terminals, points, alg)
        l_elems = _a_elements(labels, terminals, points)

        def delta(v):
            if isinstance(v, Move):
                return FiniteFunc({u: True for u in l_elems})
            return std(v)

        return delta

    rep = check_pentagon_kl_logic(MonadKind.POW, A1, TERM_STAR, CARRIERS,
                                  delta_builder=corrupted)
    assert not rep.holds


def test_pentagon_kl_terminal_mutation_is_not_a_counterexample():
    # Sanity record: replacing the terminal row of the strange logic by
    # constant-bottom still satisfies the pentagon.
    def bottomed(labels, terminals, points, alg=Modality.JOIN):
        std = standard_delta(labels, terminals, points, alg)
        l_elems = _a_elements(labels, terminals, points)

        def delta(v):
            if isinstance(v, Done):
                return FiniteFunc({u: False for u in l_elems})
            return std(v)

        return delta

    rep = check_pentagon_kl_logic(MonadKind.POW, A1, TERM_STAR, CARRIERS,
                                  delta_builder=bottomed)
    assert rep.holds


# ---------------------------------------------------------------------------
# the mate transform


def canonical_rho4(kind: MonadKind, alphabet: Universe):
    """One-element transform: a move becomes a single-letter successor table,
    a terminal becomes immediate acceptance with no successors."""
    alg = canonical_alg(kind)
    zero = pow_value([]) if kind is MonadKind.POW else sub_dist([])

    def rho4(v):
        if isinstance(v, Move):
            return omega_bot(alg), {b: monad_unit(kind, v.target) if b == v.label else zero
                                    for b in alphabet}
        assert isinstance(v, Done), v
        return omega_top(alg), {b: zero for b in alphabet}
    return rho4


def test_mate_reproduces_published_extension():
    X = Universe(["x"])
    rho4 = canonical_rho4(MonadKind.POW, A1)
    rho2 = mate_rho2_of_rho4(MonadKind.POW, A1, rho4)
    got = rho2(pow_value([Move("a", "x"), Done(CHECK)]))
    assert got == (True, {"a": pow_value(["x"])})


def test_mate_extends_along_unit():
    rho4 = canonical_rho4(MonadKind.POW, A2)
    rho2 = mate_rho2_of_rho4(MonadKind.POW, A2, rho4)
    for v in _a_elements(A2, TERM, ["x", "y", "z"]):
        assert rho2(monad_unit(MonadKind.POW, v)) == rho4(v)


def test_mate_constant_rho4_on_empty_input():
    def const(v):
        return False, {b: pow_value([]) for b in A2}

    rho2 = mate_rho2_of_rho4(MonadKind.POW, A2, const)
    assert rho2(pow_value([])) == (False, {b: pow_value([]) for b in A2})


@pytest.mark.parametrize("kind,seed", [(MonadKind.POW, 0), (MonadKind.SUBDIST, 4)])
def test_mate_round_trip_against_direct_form(kind, seed):
    rho4 = canonical_rho4(kind, A2)
    mated = mate_rho2_of_rho4(kind, A2, rho4)
    direct = canonical_rho2(kind, A2)
    import random

    from tracekit.laws import t_pool

    rng = random.Random(seed)
    for X in CARRIERS:
        for tv in t_pool(kind, _a_elements(A2, TERM, list(X)), rng, small=True):
            assert mated(tv) == direct(tv)
