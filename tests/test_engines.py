"""Engine semantics on the pinned machines plus randomized cross-checks."""

from fractions import Fraction

import pytest

from tests import gen, oracles
from tests.fixtures import load
from tracekit import engines
from tracekit.engines import (
    GeneralizedCoalgebra,
    GenerativeCoalgebra,
    MooreCoalgebra,
    TreeCoalgebra,
    compare_semantics,
    determinise_bt,
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
    Done,
    KernelError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    pow_value,
    sub_dist,
)
from tracekit.languages import (
    SizeGuardError,
    TruncatedLanguage,
    enumerate_trees,
    enumerate_words,
    language_equal,
)

F = Fraction


# ---------------------------------------------------------------------------
# machine constructors


def test_moore_leaves_the_callers_outputs_unchanged():
    out = {"u": 0, "v": 1}
    p1 = load("pa_chain")
    m = MooreCoalgebra(p1.states, p1.alphabet, p1.kind, p1.alg, out, p1.trans)
    assert out == {"u": 0, "v": 1} and all(type(v) is int for v in out.values())
    assert all(type(v) is Fraction for v in m.out.values())


def test_node_values_must_match_branching_kind():
    g = load("generalized_lookup")
    _tag, (om, fam) = g.c["s0"]
    c = dict(g.c, s0=("node", (om, dict(fam, a=sub_dist({"sL": F(1)})))))
    with pytest.raises(KernelError, match="kind subdist"):
        GeneralizedCoalgebra(g.states, g.alphabet, g.kind, g.alg, c)
    t = load("tree_fc")
    c = dict(t.c, x=sub_dist({("c", ()): F(1)}))
    with pytest.raises(KernelError, match="kind subdist"):
        TreeCoalgebra(t.states, t.signature, t.kind, t.alg, c)


@pytest.mark.parametrize("value, message", [
    (F(3), "output 3 outside"), (F(-1), "output -1 outside"),
    (True, "output True is not a rational")])
def test_semantic_table_values_are_range_checked(value, message):
    sl = TruncatedLanguage(Universe(["a"]), 0, {(): value})
    with pytest.raises(KernelError, match=f"semantic state 'sL' at \\(\\): {message}"):
        GeneralizedCoalgebra(Universe(["sL"]), Universe(["a"]), MonadKind.SUBDIST,
                             Modality.EXPECT, {"sL": ("lang", sl)})


# ---------------------------------------------------------------------------
# forward engine on the pinned machines


def test_em_nda_examples():
    n1 = step_view(load("nda_exists"))
    assert em_eval(n1, "q0", ("a", "b")) is True
    assert em_eval(n1, "q0", ()) is False


def test_em_nda_language_depth2():
    lang = em_language(step_view(load("nda_exists")), 2)["q0"]
    assert dict(lang.items()) == {
        (): False, ("a",): True, ("b",): False,
        ("a", "a"): True, ("a", "b"): True, ("b", "a"): False, ("b", "b"): False,
    }


def test_em_language_depth0_is_output():
    n1 = step_view(load("nda_exists"))
    assert dict(em_language(n1, 0)["q1"].items()) == {(): True}


def test_em_pa_examples():
    p1 = step_view(load("pa_chain"))
    assert em_eval(p1, "u", ("a", "a")) == F(3, 4)
    assert dict(em_language(p1, 1)["u"].items()) == {(): F(0), ("a",): F(1, 2)}


def test_em_unknown_state_and_letter():
    n1 = step_view(load("nda_exists"))
    with pytest.raises(KernelError):
        em_eval(n1, "nope", ())
    with pytest.raises(KernelError):
        em_eval(n1, "q0", ("z",))


def _word_machines():
    """Step views of `tests/gen.py` machines of every Moore configuration and
    every generative kind."""
    for seed in range(15):
        for config in gen.CONFIGS:
            yield gen.random_moore(seed, config)
        for kind in (MonadKind.POW, MonadKind.SUBDIST):
            yield gen.random_generative(seed, kind)


def _same_value(a, b) -> bool:
    return a == b and type(a) is type(b)


def test_em_language_matches_em_eval_value_and_type():
    for m in _word_machines():
        view = step_view(m)
        langs = em_language(view, 3)
        assert list(langs) == list(m.states)
        for x in m.states:
            for w in enumerate_words(view.alphabet, 3):
                assert _same_value(langs[x].table[w], em_eval(view, x, w)), (m, x, w)


def test_logic_language_matches_logic_eval_value_and_type():
    for m in _word_machines():
        view = step_view(m)
        langs = logic_language(view, 3)
        for x in m.states:
            for w in enumerate_words(view.alphabet, 3):
                assert _same_value(langs[x].table[w], logic_eval(view, x, w)), (m, x, w)


def _alternating_value(m: MooreCoalgebra, x, word) -> bool:
    """Join-meet read off the raw transitions: the output at the end of the
    word, or some conjunct set of the move all of whose members accept the
    rest."""
    if not word:
        return m.out[x]
    return any(all(_alternating_value(m, z, word[1:]) for z in s)
               for s in m.trans[x][word[0]].payload)


def test_logic_language_matches_the_oracles_value_and_type():
    for seed in range(15):
        for config in gen.CONFIGS:
            m = gen.random_moore(seed, config)
            view = step_view(m)
            langs = logic_language(view, 3)
            for x in m.states:
                for w, value in langs[x].items():
                    assert _same_value(value, oracles.moore_value(m, x, w)), (m, x, w)
                    assert _same_value(value, em_eval(view, x, w)), (m, x, w)
        m = gen.random_alternating(seed)
        langs = logic_language(step_view(m), 3)
        for x in m.states:
            for w, value in langs[x].items():
                assert _same_value(value, _alternating_value(m, x, w)), (m, x, w)
        for kind in (MonadKind.POW, MonadKind.SUBDIST):
            g = gen.random_generative(seed, kind)
            view = step_view(g)
            langs = logic_language(view, 3)
            for x in g.states:
                for w, value in langs[x].items():
                    assert _same_value(value, oracles.generative_value(g, x, w)), (g, x, w)
                    assert _same_value(value, em_eval(view, x, w)), (g, x, w)


def test_logic_language_on_semantic_states_matches_the_oracle():
    semantic = 0
    for seed in range(15):
        for config in gen.CONFIGS:
            g = gen.random_generalized(seed, config, 3)
            view = step_view(g)
            semantic += len(view.semantic)
            langs = logic_language(view, 3)
            for x in g.states:
                for w, value in langs[x].items():
                    assert _same_value(value, oracles.generalized_value(g, x, w)), (g, x, w)
    assert semantic > 0


def _two_depth_lookup(successors=("q", "p")) -> GeneralizedCoalgebra:
    """s0 reaches two semantic states under `a`: q (depth 1) and p (depth 2),
    listed in the move as `successors`.  `p` comes first in `canon_key`
    order, `q` first in the state order."""
    A = Universe(["a", "b"])
    p = TruncatedLanguage(A, 2, {(): True, ("a",): False, ("b",): True, ("a", "a"): True,
                                 ("a", "b"): False, ("b", "a"): False, ("b", "b"): True})
    q = TruncatedLanguage(A, 1, {(): False, ("a",): True, ("b",): False})
    c = {"s0": ("node", (False, {"a": pow_value(successors), "b": pow_value(["s1"])})),
         "s1": ("node", (True, {"a": pow_value(["s1"]), "b": pow_value([])})),
         "q": ("lang", q),
         "p": ("lang", p)}
    return GeneralizedCoalgebra(Universe(["s0", "s1", "q", "p"]), A, MonadKind.POW,
                                Modality.JOIN, c)


def test_underflow_names_the_first_semantic_state_in_canon_key_order():
    for successors in (("q", "p"), ("p", "q")):
        view = step_view(_two_depth_lookup(successors))
        assert view.trans["s0"]["a"].payload == successors
        # a residual of length 3 is too long for both: p comes first in canon_key order
        with pytest.raises(KernelError) as err:
            logic_eval(view, "s0", ("a", "b", "b", "a"))
        assert str(err.value) == ("semantic state 'p' (depth 2) cannot answer "
                                  "a residual word of length 3")
    # a residual of length 2 is too long for q only
    with pytest.raises(KernelError) as err:
        logic_eval(view, "s0", ("a", "b", "a"))
    assert str(err.value) == ("semantic state 'q' (depth 1) cannot answer "
                              "a residual word of length 2")
    with pytest.raises(KernelError) as err:
        logic_language(view, 3, ["s1", "s0"])
    assert str(err.value) == ("semantic state 'q' (depth 1) cannot answer "
                              "a residual word of length 2")
    with pytest.raises(KernelError) as err:
        logic_language(view, 2)
    assert str(err.value) == ("semantic state 'q' (depth 1) cannot answer "
                              "a residual word of length 2")
    assert logic_eval(view, "s0", ("b",) * 6) is False


def test_states_scope_avoids_the_shallow_semantic_state():
    view = step_view(_two_depth_lookup())
    langs = logic_language(view, 2, ["s0", "s1", "p"])
    assert list(langs) == ["s0", "s1", "p"]
    assert dict(langs["s0"].items()) == {
        (): False, ("a",): True, ("b",): True,
        ("a", "a"): True, ("a", "b"): True, ("b", "a"): True, ("b", "b"): False}
    assert dict(langs["s1"].items()) == {
        (): True, ("a",): True, ("b",): False,
        ("a", "a"): True, ("a", "b"): False, ("b", "a"): False, ("b", "b"): False}
    assert langs["p"].table == view.semantic["p"].table
    assert logic_language(view, 6, ["s1"])["s1"].table[("a",) * 6] is True


def _coprime_moore() -> MooreCoalgebra:
    """Weights over 7, 11 and 13 and outputs over 7 and 13, so that a value
    after k letters has a denominator up to 7 * 13 * (7 * 11 * 13)**k."""
    s = Universe(["u", "v", "w"])
    trans = {
        "u": {"a": sub_dist({"v": F(1, 7), "w": F(5, 11)}), "b": sub_dist({"u": F(12, 13)})},
        "v": {"a": sub_dist({"u": F(3, 11), "v": F(2, 13)}), "b": sub_dist({"w": F(1, 7)})},
        "w": {"a": sub_dist({"w": F(6, 7), "u": F(1, 13)}), "b": sub_dist({})},
    }
    return MooreCoalgebra(s, Universe(["a", "b"]), MonadKind.SUBDIST, Modality.EXPECT,
                          {"u": F(1, 7), "v": F(1), "w": F(4, 13)}, trans)


def _encoding_machines():
    """Every Moore configuration, both generative kinds, and generalized
    machines, some of them with semantic states."""
    for seed in range(12):
        for config in gen.CONFIGS:
            yield gen.random_moore(seed, config)
            yield gen.random_generalized(seed, config, 2)
        yield gen.random_alternating(seed)
        for kind in (MonadKind.POW, MonadKind.SUBDIST):
            yield gen.random_generative(seed, kind)


def test_step_view_encoding():
    semantic_states = 0
    for m in _encoding_machines():
        view = step_view(m)
        assert [view.index[y] for y in view.states] == list(range(len(view.states)))

        def states_of(mask: int) -> set:
            return {y for y in view.states if mask >> view.index[y] & 1}

        for a in view.alphabet:
            succ = dict(view.succ[a])
            assert sorted(succ) == sorted(1 << view.index[y] for y in view.trans)
            for y, row in view.trans.items():
                mv, i = row[a], view.index[y]
                if mv.kind is MonadKind.DOUBLE_POW:
                    assert states_of(succ[1 << i]) == {z for s in mv.payload for z in s}
                    assert [states_of(c) for c in view.rows[a][i]] == [set(s) for s in mv.payload]
                else:
                    assert states_of(succ[1 << i]) == set(mv.support)
                if mv.kind is MonadKind.SUBDIST:
                    assert [view.states.elements[j] for j, _ in view.rows[a][i]] == list(mv.support)
                    for j, q in view.rows[a][i]:
                        assert F(q, view.scale) == mv.weight(view.states.elements[j])
            for y in view.semantic:
                if view.rows:
                    assert view.rows[a][view.index[y]] == ()
        if view.kind is MonadKind.SUBDIST:
            assert len(view.int_out) == len(view.states)
            for y in view.states:
                value = F(view.int_out[view.index[y]], view.denom)
                assert value == (view.out[y] if y in view.out else 0)
            assert [view.dens(k) for k in range(3)] == [view.denom * view.scale ** k
                                                        for k in range(3)]
        else:
            assert states_of(view.out_mask) == {y for y, v in view.out.items() if v}
        semantic_states += len(view.semantic)
    assert semantic_states > 0


def test_coprime_denominators_at_depth_8():
    m = _coprime_moore()
    view = step_view(m)
    assert (view.scale, view.denom) == (7 * 11 * 13, 7 * 13)
    fwd, log = em_language(view, 8), logic_language(view, 8)
    for x in m.states:
        for w in enumerate_words(m.alphabet, 8):
            value = fwd[x].table[w]
            assert _same_value(value, log[x].table[w])
            assert _same_value(value, em_eval(view, x, w))
            if len(w) <= 5:
                assert value == oracles.moore_value(m, x, w)
    assert fwd["u"].table[("b", "b")] == F(12, 13) ** 2 * F(1, 7)


def _ninth_lookup() -> GeneralizedCoalgebra:
    """An expectation machine whose semantic state answers 1/9 and 2/9, while
    no output and no weight has a 3 in its denominator."""
    table = {(): F(1, 9), ("a",): F(2, 9), ("b",): F(0)}
    sl = TruncatedLanguage(Universe(["a", "b"]), 1, table)
    c = {"s0": ("node", (F(1, 2), {"a": sub_dist({"sL": F(1, 2), "s0": F(1, 4)}),
                                    "b": sub_dist({"s0": F(1)})})),
         "sL": ("lang", sl)}
    return GeneralizedCoalgebra(Universe(["s0", "sL"]), Universe(["a", "b"]),
                                MonadKind.SUBDIST, Modality.EXPECT, c)


def test_semantic_values_outside_the_output_denominators():
    g = _ninth_lookup()
    view = step_view(g)
    assert (view.scale, view.denom) == (4, 18)
    langs = logic_language(view, 2, ["s0"])
    for w in enumerate_words(g.alphabet, 2):
        value = langs["s0"].table[w]
        assert _same_value(value, logic_eval(view, "s0", w))
        assert value == oracles.generalized_value(g, "s0", w)
    assert langs["s0"].table[("a",)] == F(1, 2) * F(1, 9) + F(1, 4) * F(1, 2)
    assert logic_eval(view, "sL", ("a",)) == F(2, 9)
    with pytest.raises(KernelError, match="cannot answer"):
        logic_language(view, 2)


def test_em_language_states_scope():
    for m in (load("nda_exists"), load("pa_chain"), load("generative_half")):
        view = step_view(m)
        whole = em_language(view, 3)
        for x in m.states:
            one = em_language(view, 3, [x])
            assert list(one) == [x]
            assert one[x].table == whole[x].table
        with pytest.raises(KernelError):
            em_language(view, 3, ["nope"])
    with pytest.raises(KernelError, match="depth"):
        em_language(step_view(load("pa_chain")), -1)


def test_forward_engine_refuses_what_it_cannot_run():
    with pytest.raises(KernelError, match="semantic states"):
        em_language(step_view(load("generalized_lookup")), 1)
    alt = step_view(load("alternating"))
    with pytest.raises(KernelError, match="needs a monad"):
        em_language(alt, 1)


def test_em_language_of_no_states_is_empty():
    # nothing to run, so not even a double-powerset machine is refused
    for kind, alg in ((MonadKind.DOUBLE_POW, Modality.JOIN_MEET),
                      (MonadKind.SUBDIST, Modality.EXPECT)):
        view = step_view(MooreCoalgebra(Universe([]), Universe(["a"]), kind, alg, {}, {}))
        assert em_language(view, 2) == {}
        assert logic_language(view, 2) == {}
    assert em_language(step_view(load("alternating")), 2, []) == {}


def test_em_language_size_guard_fires_before_the_walk():
    # 20,001 words on a one-letter alphabet; the guard is 20,000
    with pytest.raises(SizeGuardError):
        em_language(step_view(load("pa_chain")), 20_000)


def test_strange_and_kleisli_size_guards_fire_before_the_memo():
    # 20,001 words over one letter, and 2**16 - 1 over the two labels
    with pytest.raises(SizeGuardError):
        logic_eval_strange(load("strange_pair"), 20_000)
    with pytest.raises(SizeGuardError):
        kleisli_traces(load("generative_ab"), 15)
    assert len(logic_eval_strange(load("strange_pair"), 19_999)["y"]) == 20_000


# ---------------------------------------------------------------------------
# determinisation


def test_determinise_nda_reachable_subsets():
    det = determinise_bt(load("nda_exists"))
    got = {frozenset(s) for s in det.subsets}
    # {q1} is reachable: {q0} -a-> {q0,q1} -b-> {q1}
    assert got == {frozenset(["q0"]), frozenset(["q0", "q1"]),
                   frozenset(["q1"]), frozenset()}


def test_determinise_language_matches_forward():
    n1 = load("nda_exists")
    det = determinise_bt(n1)
    for x in n1.states:
        for d in range(4):
            eq, _ = language_equal(det.language(frozenset([x]), d),
                                   em_language(step_view(n1), d)[x])
            assert eq


def test_determinise_deterministic_input_stays_singleton():
    base = load("nda_exists")
    first = list(base.states)[0]
    single = {x: {a: pow_value([first]) for a in base.alphabet} for x in base.states}
    dm = MooreCoalgebra(base.states, base.alphabet, MonadKind.POW, Modality.JOIN,
                        dict(base.out), single)
    det = determinise_bt(dm)
    assert all(len(u) <= 1 for u in det.subsets)


def test_determinise_rejects_subdist():
    with pytest.raises(KernelError):
        determinise_bt(load("pa_chain"))


# ---------------------------------------------------------------------------
# generative engines


def test_em_ta_examples():
    g1 = step_view(load("generative_ab"))
    assert em_eval(g1, "p", ("a", "b")) is True
    assert em_eval(g1, "p", ()) is False
    assert em_eval(g1, "q", ()) is True


def test_kleisli_traces_examples():
    g1 = load("generative_ab")
    ts = kleisli_traces(g1, 2)["p"]
    assert ts == pow_value([(("a",), CHECK), (("a", "a"), CHECK), (("a", "b"), CHECK)])
    assert kleisli_traces(g1, 0)["q"] == pow_value([((), CHECK)])


def test_kleisli_traces_subdist_exact():
    gh = load("generative_half")
    ts = kleisli_traces(gh, 1)["p"]
    assert ts == sub_dist({((), CHECK): F(1, 2), (("a",), CHECK): F(1, 4)})
    assert ts.mass() == F(3, 4)


def _trace_weights(mv: MonadValue) -> dict:
    """A trace value as the oracle's `{trace: weight}`, weight 1 on a powerset."""
    if mv.kind is MonadKind.POW:
        return dict.fromkeys(mv.payload, F(1))
    return dict(mv.payload)


def _count_builds(monkeypatch) -> dict:
    counts = {"pow_value": 0, "sub_dist": 0}
    for name in counts:
        original = getattr(engines, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(engines, name, counted)
    return counts


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_kleisli_traces_build_one_value_per_state(monkeypatch, kind):
    counts = _count_builds(monkeypatch)
    built = "pow_value" if kind is MonadKind.POW else "sub_dist"
    for seed in range(10):
        g = gen.random_generative(seed, kind)
        before = dict(counts)
        kleisli_traces(g, 5)
        assert counts[built] - before[built] == len(g.states)
        assert sum(counts.values()) - sum(before.values()) == len(g.states)


def test_kleisli_traces_long_cycle_matches_the_oracle(monkeypatch):
    # one trace per state and length: building each trace once is linear in
    # the depth here, while rebuilding every iterate takes tens of seconds
    counts = _count_builds(monkeypatch)
    half = F(1, 2)
    g = GenerativeCoalgebra(
        Universe(["p", "q"]), Universe(["a"]), MonadKind.SUBDIST,
        {"p": sub_dist({Move("a", "q"): half, Done(CHECK): half}),
         "q": sub_dist({Move("a", "p"): F(3, 4), Done(CHECK): F(1, 4)})})
    traces = kleisli_traces(g, 400)
    assert counts == {"pow_value": 0, "sub_dist": 2}
    for x in g.states:
        assert len(traces[x].payload) == 401
        assert _trace_weights(traces[x]) == oracles.generative_traces(g, x, 400)


def test_kbar_characteristic():
    g1 = load("generative_ab")
    lang = kbar(kleisli_traces(g1, 2)["p"], g1.labels, 2)
    true_words = {w for w, v in lang.items() if v}
    assert true_words == {("a",), ("a", "a"), ("a", "b")}


def test_kbar_empty_trace_set():
    lang = kbar(pow_value([]), Universe(["a"]), 2)
    assert all(v is False for _, v in lang.items())


def test_kbar_triangle_with_forward_engine():
    g1 = load("generative_ab")
    eq, _ = language_equal(kbar(kleisli_traces(g1, 2)["p"], g1.labels, 2),
                           em_language(step_view(g1), 2)["p"])
    assert eq


def test_kbar_rejects_foreign_terminal():
    with pytest.raises(KernelError):
        kbar(pow_value([((), "other")]), Universe(["a"]), 1)


def test_kbar_is_a_join_morphism():
    g1 = load("generative_ab")
    A = g1.labels
    s1 = kleisli_traces(g1, 2)["p"]
    s2 = kleisli_traces(g1, 2)["q"]
    joined = kbar(pow_value(s1.payload + s2.payload), A, 2)
    l1, l2 = kbar(s1, A, 2), kbar(s2, A, 2)
    for w in enumerate_words(A, 2):
        assert joined.value(w) == (l1.value(w) or l2.value(w))


def test_kbar_respects_convex_combination():
    gh = load("generative_half")
    A = gh.labels
    s1 = kleisli_traces(gh, 2)["p"]
    s2 = kleisli_traces(gh, 2)["q"]
    half = F(1, 2)
    mixed = sub_dist([(t, half * w) for t, w in s1.payload]
                     + [(t, half * w) for t, w in s2.payload])
    l_mixed = kbar(mixed, A, 2)
    l1, l2 = kbar(s1, A, 2), kbar(s2, A, 2)
    for w in enumerate_words(A, 2):
        assert l_mixed.value(w) == half * l1.value(w) + half * l2.value(w)


def test_kbar_places_each_mass_exactly_or_raises():
    A = Universe(["a"])
    ts = sub_dist({((), CHECK): F(1, 2), (("a",), CHECK): F(1, 3)})
    lang = kbar(ts, A, 1, CHECK, (2, 3))
    assert (lang.column, lang.over) == ([1, 2], (2, 3))
    assert lang.table == {(): F(1, 2), ("a",): F(1, 3)}
    own = kbar(ts, A, 1)  # over the lcm of the masses' denominators
    assert (own.column, own.over) == ([3, 2], (6, 1)) and own == lang
    # 1/3 is no whole number of 1/(2 * 4): no entry is rounded
    with pytest.raises(KernelError, match=r"trace mass 1/3 of word \('a',\) is not a multiple "
                                          r"of 1/8"):
        kbar(ts, A, 1, CHECK, (2, 4))


def _subdistribution_machines():
    for seed in range(15):
        yield gen.random_moore(seed, "pa")
        yield gen.random_generative(seed, MonadKind.SUBDIST)


def _first_table_difference(l1, l2):
    t1, t2 = l1.table, l2.table
    return next((w for w in t1 if t1[w] != t2[w]), None)


def test_subdistribution_columns_are_integers_over_the_view():
    # every column compare builds holds int numerators over the view's (D, L);
    # read back, they are the Fraction references' values
    for m in _subdistribution_machines():
        view = step_view(m)
        generative = isinstance(m, GenerativeCoalgebra)
        rep = compare_semantics(m, 3)
        assert rep.engines == (["em", "logic", "kleisli"] if generative else ["em", "logic"])
        for engine, langs in rep.languages.items():
            for x, lang in langs.items():
                assert lang.over == view.over and {type(n) for n in lang.column} == {int}
                for w, value in lang.items():
                    expected = (oracles.generative_value(m, x, w) if generative
                                else oracles.moore_value(m, x, w))
                    assert value == expected == em_eval(view, x, w), (engine, m, x, w)
        # language_equal and == against a plain scan of the Fraction tables
        logic = rep.languages["logic"]
        for x in m.states:
            for y in m.states:
                first = _first_table_difference(logic[x], logic[y])
                assert language_equal(logic[x], logic[y]) == (first is None, first)
                assert (logic[x] == logic[y]) is (first is None)


def _rescaled(lang: TruncatedLanguage) -> TruncatedLanguage:
    """The same language over (3 D, 2 L)."""
    d, scale = lang.over
    lengths = [len(w) for w in enumerate_words(lang.alphabet, lang.depth)]
    return TruncatedLanguage(lang.alphabet, lang.depth,
                             [v * 3 * 2 ** k for v, k in zip(lang.column, lengths)],
                             (d * 3, scale * 2))


def test_one_language_over_two_denominators_is_equal():
    reduced = 0  # languages whose table from outside has other denominators
    for m in _subdistribution_machines():
        langs = em_language(step_view(m), 3)
        for x, lang in langs.items():
            rescaled = _rescaled(lang)
            from_table = TruncatedLanguage(lang.alphabet, 3, lang.table)
            assert from_table.over[1] == 1
            reduced += from_table.over != lang.over
            for other in (rescaled, from_table):
                assert lang == other and other == lang
                assert language_equal(lang, other) == language_equal(other, lang) == (True, None)
                assert other.table == lang.table
            for y in m.states:
                first = _first_table_difference(lang, langs[y])
                assert language_equal(rescaled, langs[y]) == (first is None, first)
    assert reduced > 10


def test_a_semantic_column_over_any_denominators_gives_the_same_languages():
    # the files' semantic columns are over (D', 1); over (3 D', 2) the step
    # view's D and each looked-up numerator must still be exact
    for seed in range(15):
        g = gen.random_generalized(seed, "pa", 3)
        c = {y: ("lang", _rescaled(body)) if tag == "lang" else (tag, body)
             for y, (tag, body) in g.c.items()}
        h = GeneralizedCoalgebra(g.states, g.alphabet, g.kind, g.alg, c)
        assert logic_language(step_view(h), 3) == logic_language(step_view(g), 3)


# ---------------------------------------------------------------------------
# logical engine


def test_logic_alternating_machine():
    aa = step_view(load("alternating"))
    assert logic_eval(aa, "x", ("a",)) is False
    assert logic_eval(aa, "x", ()) is False
    assert logic_eval(aa, "y", ()) is True


def test_logic_matches_forward_on_nda():
    n1 = step_view(load("nda_exists"))
    assert logic_eval(n1, "q0", ("a", "b")) is True
    for x in n1.states:
        eq, _ = language_equal(logic_language(n1, 3)[x], em_language(n1, 3)[x])
        assert eq


def test_logic_epsilon_is_output():
    n1 = load("nda_exists")
    for x in n1.states:
        assert logic_eval(step_view(n1), x, ()) == n1.out[x]


def test_logic_tree_examples():
    # x -> f(y, y), y -> c: x accepts f(c, c) alone, y accepts c alone
    t1 = load("tree_fc")
    assert [repr(t) for t in enumerate_trees(t1.signature, 3)] == [
        "c", "f(c, c)", "f(c, f(c, c))", "f(f(c, c), c)", "f(f(c, c), f(c, c))"]
    assert logic_eval_tree(t1, 3) == {"x": [False, True, False, False, False],
                                      "y": [True, False, False, False, False]}


def test_logic_generative_examples():
    g1 = step_view(load("generative_ab"))
    assert logic_eval(g1, "p", ("a", "b")) is True
    assert logic_eval(g1, "q", ()) is True
    assert logic_eval(g1, "p", ("b",)) is False


def test_logic_strange_examples():
    sr = load("strange_pair")
    assert logic_eval_strange(sr, 5)["x"][5] is True
    assert logic_eval_strange(sr, 0)["y"][0] is True


def test_strange_separation():
    sr = load("strange_pair")
    gc = strange_to_generative(sr)
    for n in range(7):
        assert logic_eval_strange(sr, n)["x"][n] == logic_eval_strange(sr, n)["y"][n]
    for d in range(1, 7):
        assert kleisli_traces(gc, d)["x"] != kleisli_traces(gc, d)["y"]
    assert kleisli_traces(gc, 6)["x"] == pow_value([((), CHECK)])
    assert kleisli_traces(gc, 6)["y"] == pow_value(
        [(("a",) * k, CHECK) for k in range(7)])


# ---------------------------------------------------------------------------
# completely-iterative evaluation


def test_cia_direct_lookup():
    g = step_view(load("generalized_lookup"))
    assert logic_eval(g, "sL", ("b",)) is True
    assert logic_eval(g, "sL", ("a",)) is False


def test_cia_one_step_then_lookup():
    g = step_view(load("generalized_lookup"))
    assert logic_eval(g, "s0", ("a", "b")) is True
    assert logic_eval(g, "s0", ("a", "a")) is False


def test_cia_depth_underflow():
    g = step_view(load("generalized_lookup"))
    # residual of length 2 still fits the depth-2 semantic language
    assert logic_eval(g, "s0", ("a", "b", "b")) is False
    with pytest.raises(KernelError):
        logic_eval(g, "s0", ("a", "a", "a", "a"))
    with pytest.raises(KernelError):
        logic_eval(g, "sL", ("a", "a", "a"))


def test_cia_conservative_without_semantic_states():
    for seed in range(10):
        for config in gen.CONFIGS:
            m = gen.random_moore(seed, config)
            g = gen.random_generalized(seed, config, 3)
            ordinary = [x for x in g.states if g.c[x][0] == "node"]
            if not any(g.c[x][0] == "lang" for x in g.states):
                gv, mv = step_view(g), step_view(m)
                for x in ordinary:
                    for w in enumerate_words(m.alphabet, 3):
                        assert logic_eval(gv, x, w) == em_eval(mv, x, w)


# ---------------------------------------------------------------------------
# Kleene iteration shape


def _leq(kind, a: MonadValue, b: MonadValue) -> bool:
    if kind is MonadKind.POW:
        return set(a.payload) <= set(b.payload)
    return all(b.weight(x) >= w for x, w in a.payload)


def test_kleisli_iterates_monotone_and_stable():
    g1 = load("generative_ab")
    depth = 3
    chain = kleisli_iterates(g1, depth, depth + 3)
    for k in range(len(chain) - 1):
        for x in g1.states:
            assert _leq(g1.kind, chain[k][x], chain[k + 1][x])
    for m in range(depth + 1):
        stable = [{x: _restrict(chain[k][x], m) for x in g1.states}
                  for k in range(m + 1, len(chain))]
        assert all(s == stable[0] for s in stable)


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_kleisli_iterates_follow_the_trace_lengths(kind):
    # iterate k holds exactly the traces of length <= k - 1, and from
    # iterate depth + 1 on it holds every trace up to the depth
    for seed in range(25):
        g = gen.random_generative(seed, kind)
        for depth in range(6):
            want = {x: oracles.generative_traces(g, x, depth) for x in g.states}
            chain = kleisli_iterates(g, depth, depth + 3)
            assert len(chain) == depth + 4
            for k, iterate in enumerate(chain):
                for x in g.states:
                    cut = {t: w for t, w in want[x].items() if len(t[0]) <= k - 1}
                    assert _trace_weights(iterate[x]) == cut, (seed, depth, k, x)
            assert kleisli_traces(g, depth) == kleisli_iterates(g, depth, depth + 1)[-1]


def _restrict(mv: MonadValue, m: int) -> MonadValue:
    if mv.kind is MonadKind.POW:
        return pow_value([t for t in mv.payload if len(t[0]) <= m])
    return sub_dist([(t, w) for t, w in mv.payload if len(t[0]) <= m])


# ---------------------------------------------------------------------------
# comparison reports


def test_compare_moore_all_equal():
    rep = compare_semantics(load("nda_exists"), 3)
    assert rep.all_equal and set(rep.engines) == {"em", "logic"}
    assert rep.collapse_injective is None and rep.retained_mass == {}


def test_compare_generative_all_equal():
    rep = compare_semantics(load("generative_ab"), 3)
    assert rep.all_equal
    assert set(rep.engines) == {"em", "logic", "kleisli"}
    assert rep.collapse_injective is True


def test_compare_subdist_reports_mass():
    rep = compare_semantics(load("generative_half"), 2)
    assert rep.all_equal
    assert rep.retained_mass["p"] == F(7, 8)


def test_compare_strange_flags_collapse():
    rep = compare_semantics(load("strange_pair"), 6)
    assert not rep.all_equal
    assert rep.collapse_witnesses == [("x", "y")]
    assert rep.collapse_injective is False


def _brute_force_witnesses(states, language, traces) -> list:
    """State pairs, in order, with equal oracle languages and distinct
    oracle trace sets."""
    states = list(states)
    return [(x, y) for i, x in enumerate(states) for y in states[i + 1:]
            if language(x) == language(y) and traces(x) != traces(y)]


def test_compare_generative_summary_matches_the_oracles():
    depth = 3
    equal_pairs = 0
    for kind in (MonadKind.POW, MonadKind.SUBDIST):
        for seed in range(25):
            g = gen.random_generative(seed, kind)
            rep = compare_semantics(g, depth)
            assert [(v.engine_a, v.engine_b, v.state) for v in rep.verdicts] == \
                [(a, b, x) for a, b in [("em", "logic"), ("em", "kleisli"), ("logic", "kleisli")]
                 for x in g.states]
            assert rep.all_equal
            language = lambda x: oracles.generative_language_by_paths(g, x, depth)
            traces = lambda x: oracles.generative_traces(g, x, depth)
            assert rep.collapse_witnesses == _brute_force_witnesses(g.states, language, traces)
            assert rep.collapse_injective is (not rep.collapse_witnesses)
            equal_pairs += sum(language(x) == language(y)
                               for i, x in enumerate(g.states) for y in list(g.states)[i + 1:])
            if kind is MonadKind.SUBDIST:
                assert rep.retained_mass == {x: sum(traces(x).values(), F(0)) for x in g.states}
                assert rep.retained_mass == {x: rep.trace_sets[x].mass() for x in g.states}
            else:
                assert rep.retained_mass == {}
    assert equal_pairs  # some pairs put the distinct-traces condition to the test


def test_compare_strange_summary_matches_the_oracles():
    depth = 4
    witnessed = 0
    for seed in range(25):
        sc = gen.random_strange(seed)
        gc = strange_to_generative(sc)
        rep = compare_semantics(sc, depth)
        language = lambda x: [oracles.strange_reachable_stop(sc, x, n) for n in range(depth + 1)]
        traces = lambda x: oracles.generative_traces(gc, x, depth)
        witnesses = _brute_force_witnesses(sc.states, language, traces)
        assert rep.collapse_witnesses == witnesses
        assert rep.collapse_injective is (not witnesses) and rep.retained_mass == {}
        witnessed += len(witnesses)
    assert witnessed


# ---------------------------------------------------------------------------
# randomized agreement carried by the oracles


@pytest.mark.parametrize("config", gen.CONFIGS)
def test_random_moore_engines_and_oracle(config):
    for seed in range(25):
        m = gen.random_moore(seed, config)
        view = step_view(m)
        for x in m.states:
            for w in enumerate_words(m.alphabet, 3):
                em = em_eval(view, x, w)
                assert em == logic_eval(view, x, w)
                assert em == oracles.moore_value(m, x, w)


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_random_generative_engines_and_oracle(kind):
    for seed in range(25):
        g = gen.random_generative(seed, kind)
        traces = kleisli_traces(g, 3)
        view = step_view(g)
        for x in g.states:
            lang = kbar(traces[x], g.labels, 3)
            for w in enumerate_words(g.labels, 3):
                em = em_eval(view, x, w)
                assert em == logic_eval(view, x, w)
                assert em == lang.value(w)
                if kind is MonadKind.POW:
                    assert em == oracles.generative_value(g, x, w)


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_random_generative_trace_sets_match_the_oracle(kind):
    for seed in range(25):
        g = gen.random_generative(seed, kind)
        for depth in range(6):
            traces = kleisli_traces(g, depth)
            for x in g.states:
                assert traces[x].kind is kind
                assert _trace_weights(traces[x]) == \
                    oracles.generative_traces(g, x, depth), (seed, depth, x)


def test_random_tree_oracle():
    for seed in range(20):
        tc = gen.random_tree_automaton(seed)
        trees, table = enumerate_trees(tc.signature, 4), logic_eval_tree(tc, 4)
        for x in tc.states:
            assert table[x] == [oracles.tree_run_exists(tc, x, t) for t in trees], (seed, x)
