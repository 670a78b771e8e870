"""Kernel value semantics: units, binds, strength, modalities, law components."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import gen
from tracekit.cli import serialize_machine
from tracekit.engines import MooreCoalgebra
from tracekit.kernel import (
    CHECK,
    AlgebraMismatchError,
    Done,
    FiniteFunc,
    FunctorOnlyError,
    MassError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    UniverseError,
    algebra_eval,
    algebra_map,
    canon_key,
    check_output,
    double_pow,
    functor_map,
    kappa_moore,
    lambda_generative,
    monad_bind,
    monad_unit,
    ordered,
    pow_value,
    strength,
    sub_dist,
)
from tracekit.languages import Tree, enumerate_trees
from tracekit.laws import all_finite_funcs, pow_pool, subdist_pool, t_pool

F = Fraction


# ---------------------------------------------------------------------------
# units, binds, maps: pinned examples


def test_unit_pow():
    assert monad_unit(MonadKind.POW, "q0") == pow_value(["q0"])


def test_unit_subdist():
    assert monad_unit(MonadKind.SUBDIST, "u") == sub_dist({"u": 1})


def test_unit_doublepow_rejected():
    with pytest.raises(FunctorOnlyError):
        monad_unit(MonadKind.DOUBLE_POW, "x")


def test_bind_pow_union_of_images():
    f = {("q0", "a"): pow_value(["q0", "q1"]), ("q1", "a"): pow_value([])}
    got = monad_bind(MonadKind.POW, pow_value(["q0", "q1"]), lambda q: f[(q, "a")])
    assert got == pow_value(["q0", "q1"])


def test_bind_subdist_weighted_sum():
    t = sub_dist({"u": F(1, 2), "v": F(1, 2)})
    k = {"u": sub_dist({"u": F(1, 2), "v": F(1, 2)}), "v": sub_dist({"v": 1})}
    assert monad_bind(MonadKind.SUBDIST, t, k.__getitem__) == sub_dist(
        {"u": F(1, 4), "v": F(3, 4)})


def test_bind_pow_empty():
    got = monad_bind(MonadKind.POW, pow_value([]), lambda q: pow_value(["q0"]))
    assert got == pow_value([])


def test_functor_map_pow_image():
    got = functor_map(MonadKind.POW, lambda q: q == "q1", pow_value(["q0", "q1"]))
    assert got == pow_value([False, True])


def test_functor_map_subdist_merges_collisions():
    got = functor_map(MonadKind.SUBDIST, lambda _: "v", sub_dist({"u": F(1, 2), "v": F(1, 2)}))
    assert got == sub_dist({"v": 1})


def test_functor_map_doublepow_identity():
    v = double_pow([["y", "z"]])
    assert functor_map(MonadKind.DOUBLE_POW, lambda x: x, v) == v


def test_strength_pointwise():
    g = FiniteFunc({"a": "x"})
    h = FiniteFunc({"a": "y"})
    fam = strength(MonadKind.POW, pow_value([g, h]), Universe(["a"]))
    assert fam == {"a": pow_value(["x", "y"])}


def test_strength_point_mass():
    g = FiniteFunc({"a": "x", "b": "y"})
    fam = strength(MonadKind.SUBDIST, sub_dist({g: 1}), Universe(["a", "b"]))
    assert fam == {"a": sub_dist({"x": 1}), "b": sub_dist({"y": 1})}


def test_strength_empty():
    fam = strength(MonadKind.POW, pow_value([]), Universe(["a"]))
    assert fam == {"a": pow_value([])}


# ---------------------------------------------------------------------------
# modalities


def test_algebra_join():
    assert algebra_eval(Modality.JOIN, pow_value([False, True])) is True
    assert algebra_eval(Modality.JOIN, pow_value([])) is False


def test_algebra_meet_empty_is_top():
    assert algebra_eval(Modality.MEET, pow_value([])) is True


def test_algebra_expect():
    v = sub_dist({F(0): F(1, 2), F(1): F(1, 2)})
    assert algebra_eval(Modality.EXPECT, v) == F(1, 2)


def test_algebra_joinmeet():
    assert algebra_eval(Modality.JOIN_MEET, double_pow([[True, False]])) is False
    assert algebra_eval(Modality.JOIN_MEET, double_pow([])) is False
    assert algebra_eval(Modality.JOIN_MEET, double_pow([[]])) is True


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        algebra_eval(Modality.EXPECT, pow_value([True]))


_BOOLEAN_MODALITIES = (Modality.JOIN, Modality.MEET, Modality.JOIN_MEET)


@pytest.mark.parametrize("alg, value, accepted", [
    *((alg, v, v) for alg in _BOOLEAN_MODALITIES for v in (False, True)),
    *((alg, v, "is not a boolean") for alg in _BOOLEAN_MODALITIES
      for v in (0, 1, F(1), "true", None)),
    (Modality.EXPECT, 0, F(0)), (Modality.EXPECT, 1, F(1)), (Modality.EXPECT, F(0), F(0)),
    (Modality.EXPECT, F(1, 3), F(1, 3)), (Modality.EXPECT, F(1), F(1)),
    (Modality.EXPECT, -1, "output -1 outside [0, 1]"),
    (Modality.EXPECT, 2, "output 2 outside [0, 1]"),
    (Modality.EXPECT, F(-1, 4), "output -1/4 outside [0, 1]"),
    (Modality.EXPECT, F(5, 4), "output 5/4 outside [0, 1]"),
    (Modality.EXPECT, True, "output True is not a rational"),
    (Modality.EXPECT, False, "output False is not a rational"),
    (Modality.EXPECT, "1/2", "output '1/2' is not a rational"),
    (Modality.EXPECT, 0.5, "output 0.5 is not a rational"),
])
def test_check_output_accepts_exactly_the_modality_outputs(alg, value, accepted):
    if isinstance(accepted, str):
        message = accepted if accepted.startswith("output") \
            else f"output {value!r} {accepted}"
        with pytest.raises(AlgebraMismatchError) as err:
            check_output(alg, value, "here")
        assert str(err.value) == f"here: {message}"
    else:
        out = check_output(alg, value, "here")
        assert out == accepted and type(out) is type(accepted)


# ---------------------------------------------------------------------------
# kappa / lambda components


def test_kappa_join_pair():
    g = FiniteFunc({"a": "x"})
    h = FiniteFunc({"a": "y"})
    om, fam = kappa_moore(MonadKind.POW, Modality.JOIN,
                          pow_value([(False, g), (True, h)]), Universe(["a"]))
    assert om is True
    assert fam == {"a": pow_value(["x", "y"])}


def test_kappa_empty():
    om, fam = kappa_moore(MonadKind.POW, Modality.JOIN, pow_value([]), Universe(["a"]))
    assert om is False and fam == {"a": pow_value([])}


def test_kappa_point_mass():
    g = FiniteFunc({"a": "x"})
    om, fam = kappa_moore(MonadKind.SUBDIST, Modality.EXPECT,
                          sub_dist({(F(1), g): 1}), Universe(["a"]))
    assert om == F(1) and fam == {"a": sub_dist({"x": 1})}


def test_kappa_doublepow_rejected():
    with pytest.raises(FunctorOnlyError):
        kappa_moore(MonadKind.DOUBLE_POW, Modality.JOIN_MEET, double_pow([]), Universe(["a"]))


def test_lambda_move():
    got = lambda_generative(MonadKind.POW, Move("a", pow_value(["x", "y"])))
    assert got == pow_value([Move("a", "x"), Move("a", "y")])


def test_lambda_done():
    assert lambda_generative(MonadKind.POW, Done(CHECK)) == pow_value([Done(CHECK)])


def test_lambda_subdist():
    got = lambda_generative(MonadKind.SUBDIST, Move("a", sub_dist({"x": F(1, 3)})))
    assert got == sub_dist({Move("a", "x"): F(1, 3)})


def test_lambda_doublepow_rejected():
    with pytest.raises(FunctorOnlyError):
        lambda_generative(MonadKind.DOUBLE_POW, Done(CHECK))


# ---------------------------------------------------------------------------
# canonicality and validation


def test_pow_canonical_order_and_dedup():
    assert pow_value(["b", "a", "b"]) == pow_value(["a", "b"])
    # the payload keeps the order it was built in; the sorted view is canonical
    assert pow_value(["b", "a", "b"]).payload == ("b", "a")
    assert ordered(pow_value(["b", "a", "b"])) == ordered(pow_value(["a", "b"])) == ("a", "b")
    assert repr(pow_value(["b", "a"])) == "{'a', 'b'}"


def test_subdist_drops_zeros_and_checks_mass():
    assert sub_dist({"a": 0, "b": F(1, 2)}) == sub_dist({"b": F(1, 2)})
    with pytest.raises(MassError):
        sub_dist({"a": F(3, 4), "b": F(1, 2)})
    with pytest.raises(MassError):
        sub_dist({"a": F(-1, 2)})


def _scan_sub_dist(pairs) -> list:
    """The reference merge: scan the pairs kept so far for an equal element;
    the merged pairs in the order their elements were first seen."""
    acc: list = []
    for elem, w in pairs:
        if w == 0:
            continue
        for i, (e, wo) in enumerate(acc):
            if e == elem:
                acc[i] = (e, wo + w)
                break
        else:
            acc.append((elem, F(w)))
    return acc


def _merge_inputs():
    """Pair lists in which elements repeat: two subdistributions' halves at
    once, from the generated machines and the law pools, and numbers that
    are equal across types."""
    values = []
    for seed in range(10):
        values += [mv for row in gen.random_moore(seed, "pa").trans.values()
                   for mv in row.values()]
        values += list(gen.random_generative(seed, MonadKind.SUBDIST).c.values())
    rng = random.Random(3)
    X = ["c0", "c1", "c2"]
    funcs = all_finite_funcs(["a", "b"], X, rng)
    pool1 = t_pool(MonadKind.SUBDIST, [(om, g) for om in (F(0), F(1, 2), 1) for g in funcs], rng)
    values += pool1 + t_pool(MonadKind.SUBDIST, pool1, rng, small=True)
    values += subdist_pool(X, rng)
    for u, v in zip(values, values[1:] + values[:1]):
        yield [(e, w / 2) for e, w in u.payload + v.payload]
    yield [(1, F(1, 4)), (True, F(1, 8)), (F(1), F(1, 4)), (True, 0), (0, F(1, 8)),
           (False, F(1, 4))]


def test_sub_dist_merges_as_the_scan_does():
    for pairs in _merge_inputs():
        value, want = sub_dist(pairs), _scan_sub_dist(pairs)
        assert value.payload == tuple(want)  # first-seen order
        assert all(e is f and type(w) is type(x) for (e, w), (f, x) in zip(value.payload, want))
        assert ordered(value) == tuple(sorted(want, key=lambda p: canon_key(p[0])))
    # 1 is seen before 0; both keep the int key seen first
    assert [e for e, _ in sub_dist(pairs).payload] == [1, 0]
    assert [type(e) for e, _ in ordered(sub_dist(pairs))] == [int, int]


def test_doublepow_canonical():
    assert double_pow([["z", "y"], ["y", "z"]]) == double_pow([["y", "z"]])


#: elements of every shape a payload holds, no two equal across types (1 and
#: True would merge under whichever is seen first)
SHAPES = ["a", "b", 2, F(1, 2), ("a", 1), Move("a", "b"), Done(CHECK), pow_value(["x", "y"]),
          sub_dist({"x": F(1, 3)}), FiniteFunc({"a": True})]
#: the states of the machines whose files are compared
STATES = ["q0", "q1", "q2", "q3"]
BUILD = {"pow": pow_value, "subdist": sub_dist, "doublepow": double_pow, "func": FiniteFunc}


@st.composite
def _one_value_twice(draw, kind: str, elems: list):
    """Two inputs that denote one value of `kind`: the second lists the
    first's items in another order, repeats some of them (splitting a
    weight in two) and, on double powerset, permutes every inner set."""
    def shuffled(items: list) -> list:
        return draw(st.permutations(items)) if items else []

    def repeated(items: list) -> list:
        return shuffled(items + draw(st.lists(st.sampled_from(items)))) if items else []

    if kind == "pow":
        items = draw(st.lists(st.sampled_from(elems), max_size=6))
        return items, repeated(items)
    if kind == "func":
        pairs = [(k, draw(st.sampled_from(elems)))
                 for k in draw(st.lists(st.sampled_from(elems), unique=True, max_size=5))]
        return pairs, shuffled(pairs)
    if kind == "subdist":
        support = draw(st.lists(st.sampled_from(elems), unique=True, max_size=5))
        pairs = [(e, draw(st.sampled_from(GRID)) / len(support)) for e in support]
        halves = [p for e, w in pairs
                  for p in ([(e, w / 2)] * 2 if draw(st.booleans()) else [(e, w)])]
        return pairs, shuffled(halves)
    sets = draw(st.lists(st.lists(st.sampled_from(elems), max_size=3), max_size=4))
    return sets, [repeated(s) for s in repeated(sets)]


def _one_state_machine(kind: str, step: MonadValue) -> MooreCoalgebra:
    alg = {"pow": Modality.JOIN, "subdist": Modality.EXPECT, "doublepow": Modality.JOIN_MEET}[kind]
    return MooreCoalgebra(Universe(STATES), Universe(["a"]), step.kind, alg,
                          {x: F(0) if alg is Modality.EXPECT else False for x in STATES},
                          {x: {"a": step} for x in STATES})


@pytest.mark.parametrize("kind", list(BUILD))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_build_order_shows_nowhere(kind, data):
    """Values built from one content in any order, with repeats, are equal,
    hash alike, have one canonical key and one `repr`; a machine file holding
    them is written byte for byte alike."""
    first, second = data.draw(_one_value_twice(kind, SHAPES))
    u, v = BUILD[kind](first), BUILD[kind](second)
    assert u == v and hash(u) == hash(v)
    assert canon_key(u) == canon_key(v) and repr(u) == repr(v) and ordered(u) == ordered(v)
    if kind != "func":  # a finite function appears in no machine file
        first, second = data.draw(_one_value_twice(kind, STATES))
        files = [json.dumps(serialize_machine(_one_state_machine(kind, BUILD[kind](inp))))
                 for inp in (first, second)]
        assert files[0] == files[1]


def test_universe_rejects_duplicates():
    with pytest.raises(UniverseError):
        Universe(["a", "a"])


# ---------------------------------------------------------------------------
# monad laws, exhaustively for small powersets


def _all_subsets(elems):
    out = []
    for n in range(len(elems) + 1):
        out.extend(pow_value(c) for c in itertools.combinations(elems, n))
    return out


def _all_pow_kleislis(elems):
    values = _all_subsets(elems)
    return [dict(zip(elems, choice)).__getitem__
            for choice in itertools.product(values, repeat=len(elems))]


@pytest.mark.parametrize("n", [1, 2])
def test_pow_monad_laws_exhaustive_small(n):
    elems = [f"e{i}" for i in range(n)]
    K = MonadKind.POW
    for t in _all_subsets(elems):
        for k in _all_pow_kleislis(elems):
            assert monad_bind(K, t, lambda y: monad_unit(K, y)) == t
            for x in elems:
                assert monad_bind(K, monad_unit(K, x), k) == k(x)
            for k2 in _all_pow_kleislis(elems):
                lhs = monad_bind(K, monad_bind(K, t, k), k2)
                rhs = monad_bind(K, t, lambda y: monad_bind(K, k(y), k2))
                assert lhs == rhs


def test_pow_monad_laws_four_elements_sampled_continuations():
    import random
    rng = random.Random(42)
    elems = [f"e{i}" for i in range(4)]
    K = MonadKind.POW
    values = _all_subsets(elems)
    for t in values:
        assert monad_bind(K, t, lambda y: monad_unit(K, y)) == t
    for _ in range(40):
        k = {x: rng.choice(values) for x in elems}
        k2 = {x: rng.choice(values) for x in elems}
        for x in elems:
            assert monad_bind(K, monad_unit(K, x), k.__getitem__) == k[x]
        for t in values:
            lhs = monad_bind(K, monad_bind(K, t, k.__getitem__), k2.__getitem__)
            rhs = monad_bind(K, t, lambda y: monad_bind(K, k[y], k2.__getitem__))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# monad laws on random subdistributions


ELEMS = ["e0", "e1", "e2", "e3"]
GRID = [F(1, 4), F(1, 3), F(1, 2), F(1)]


@st.composite
def subdists(draw):
    support = draw(st.lists(st.sampled_from(ELEMS), unique=True, max_size=3))
    weights = [draw(st.sampled_from(GRID)) for _ in support]
    total = sum(weights, F(0))
    if total > 1:
        weights = [w / total for w in weights]
    return sub_dist(zip(support, weights))


@st.composite
def subdist_kleislis(draw):
    table = {x: draw(subdists()) for x in ELEMS}
    return table.__getitem__


@settings(max_examples=200, derandomize=True, deadline=None)
@given(subdists(), subdist_kleislis(), subdist_kleislis(), st.sampled_from(ELEMS))
def test_subdist_monad_laws(t, k, k2, x):
    K = MonadKind.SUBDIST
    assert monad_bind(K, t, lambda y: monad_unit(K, y)) == t
    assert monad_bind(K, monad_unit(K, x), k) == k(x)
    lhs = monad_bind(K, monad_bind(K, t, k), k2)
    rhs = monad_bind(K, t, lambda y: monad_bind(K, k(y), k2))
    assert lhs == rhs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(subdists(), subdist_kleislis())
def test_subdist_mass_never_increases(t, k):
    bound = monad_bind(MonadKind.SUBDIST, t, k)
    assert bound.mass() <= t.mass()
    mapped = functor_map(MonadKind.SUBDIST, lambda y: (y, "tag"), t)
    assert mapped.mass() == t.mass()


# ---------------------------------------------------------------------------
# strength naturality and modality additivity


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_strength_naturality_small(kind):
    import random
    rng = random.Random(7)
    A = Universe(["a", "b"])
    xs = ["x0", "x1"]
    ys = ["y0", "y1", "y2"]
    funcs = [FiniteFunc({"a": g0, "b": g1}) for g0 in xs for g1 in xs]
    post = {x: rng.choice(ys) for x in xs}

    def lift(g: FiniteFunc) -> FiniteFunc:
        return FiniteFunc({a: post[g(a)] for a in A})

    if kind is MonadKind.POW:
        values = _all_subsets(funcs)
    else:
        values = [sub_dist({g: F(1, 4) for g in rng.sample(funcs, 2)}) for _ in range(30)]
    for t in values:
        side_a = strength(kind, functor_map(kind, lift, t), A)
        side_b = {a: functor_map(kind, post.__getitem__, mv)
                  for a, mv in strength(kind, t, A).items()}
        assert side_a == side_b


def test_join_meet_additive_over_union():
    subsets = _all_subsets([False, True])
    for s in subsets:
        for s2 in subsets:
            union = pow_value(s.payload + s2.payload)
            assert algebra_eval(Modality.JOIN, union) == (
                algebra_eval(Modality.JOIN, s) or algebra_eval(Modality.JOIN, s2))
            assert algebra_eval(Modality.MEET, union) == (
                algebra_eval(Modality.MEET, s) and algebra_eval(Modality.MEET, s2))


def test_expect_additive_over_disjoint_support():
    d1 = sub_dist({F(1, 2): F(1, 4)})
    d2 = sub_dist({F(1): F(1, 2)})
    merged = sub_dist(list(d1.payload) + list(d2.payload))
    assert (algebra_eval(Modality.EXPECT, merged)
            == algebra_eval(Modality.EXPECT, d1) + algebra_eval(Modality.EXPECT, d2))


# ---------------------------------------------------------------------------
# one-pass modality evaluation


def _mapped_pairs():
    """(modality, value, output map) over every kind, including empty values."""
    elems = ["e0", "e1", "e2"]
    subsets = _all_subsets(elems)
    bool_maps = [dict(zip(elems, bs)) for bs in itertools.product([False, True], repeat=3)]
    for alg in (Modality.JOIN, Modality.MEET):
        for v in subsets:
            for f in bool_maps:
                yield alg, v, f
    dists = [sub_dist({}), sub_dist({"e0": 1}), sub_dist({"e0": F(1, 3), "e2": F(1, 2)}),
             sub_dist({"e0": F(1, 4), "e1": F(1, 4), "e2": F(1, 2)})]
    grid = [0, 1, F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]
    for v in dists:
        for outs in itertools.product(grid, repeat=3):
            yield Modality.EXPECT, v, dict(zip(elems, outs))
    inner = [s.payload for s in subsets]
    for sets in [[], [()], [inner[1]], [inner[1], inner[6]], inner]:
        for f in bool_maps:
            yield Modality.JOIN_MEET, double_pow(sets), f


def _two_step(alg, f, v):
    return algebra_eval(alg, functor_map(v.kind, f, v))


def test_algebra_map_equals_eval_after_map():
    for alg, v, outs in _mapped_pairs():
        calls_a, calls_b = [], []
        a = algebra_map(alg, lambda x: calls_a.append(x) or outs[x], v)
        b = _two_step(alg, lambda x: calls_b.append(x) or outs[x], v)
        assert a == b and type(a) is type(b), (alg, v, outs)
        assert calls_a == calls_b


@pytest.mark.parametrize("alg, v, bad", [
    (Modality.JOIN, pow_value(["e0", "e1"]), 2),
    (Modality.MEET, pow_value(["e0"]), "yes"),
    (Modality.JOIN_MEET, double_pow([["e0"], ["e1"]]), F(1, 2)),
    (Modality.EXPECT, sub_dist({"e0": F(1, 2)}), "half"),
    (Modality.EXPECT, sub_dist({"e0": F(1, 2), "e1": F(1, 2)}), F(3, 2)),
    (Modality.EXPECT, sub_dist({"e0": F(1, 2)}), -1),
    (Modality.EXPECT, pow_value(["e0"]), F(1, 2)),
    (Modality.JOIN, sub_dist({"e0": F(1, 2)}), True),
    (Modality.MEET, double_pow([["e0"]]), True),
    (Modality.JOIN_MEET, pow_value(["e0"]), True),
], ids=["join-int", "meet-str", "joinmeet-rational", "expect-str", "expect-above-one",
        "expect-negative", "expect-on-pow", "join-on-subdist", "meet-on-doublepow",
        "joinmeet-on-pow"])
def test_algebra_map_rejects_what_the_two_step_form_rejects(alg, v, bad):
    f = lambda x: bad if x == "e0" else (F(0) if alg is Modality.EXPECT else False)
    with pytest.raises(AlgebraMismatchError):
        _two_step(alg, f, v)
    with pytest.raises(AlgebraMismatchError):
        algebra_map(alg, f, v)


# ---------------------------------------------------------------------------
# canonical keys


def _reference_canon_key(x):
    """`canon_key` as it was before keys were cached: every int became a
    Fraction, every nested value was keyed afresh and a value was keyed by
    its payload sorted by this key.  Sorting by the current key must give
    exactly this order."""
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (1, Fraction(x))
    if isinstance(x, Fraction):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, tuple(_reference_canon_key(e) for e in x))
    if isinstance(x, frozenset):
        return (4, tuple(sorted(_reference_canon_key(e) for e in x)))
    if x is None:
        return (5,)
    if isinstance(x, FiniteFunc):
        return (7, _reference_canon_key(_reference_sorted(x.table.items())))
    if isinstance(x, Move):
        return (8, _reference_canon_key(x.label), _reference_canon_key(x.target))
    if isinstance(x, Done):
        return (9, _reference_canon_key(x.terminal))
    if isinstance(x, MonadValue):
        payload = x.payload
        if x.kind is MonadKind.DOUBLE_POW:
            payload = map(_reference_sorted, payload)
        return (10, x.kind.value, _reference_canon_key(_reference_sorted(payload)))
    if isinstance(x, Tree):
        return (12, _reference_canon_key(x.symbol), _reference_canon_key(x.children))
    raise TypeError(f"no reference key for {x!r}")


def _reference_sorted(items) -> tuple:
    """Sorted by the reference key: pairs (weights, function entries) by
    the whole pair, which orders them by their distinct first components."""
    return tuple(sorted(items, key=_reference_canon_key))


def _same_order(items: list) -> None:
    assert sorted(items, key=canon_key) == sorted(items, key=_reference_canon_key)
    keys = [(canon_key(x), _reference_canon_key(x)) for x in items]
    for (k1, r1), (k2, r2) in itertools.combinations(keys, 2):
        assert (k1 < k2, k1 == k2, k1 > k2) == (r1 < r2, r1 == r2, r1 > r2)


def _gen_payloads(seed: int) -> list:
    out = []
    for config in gen.CONFIGS:
        m = gen.random_moore(seed, config)
        values = [mv for row in m.trans.values() for mv in row.values()]
        out += values + [e for mv in values for e in mv.payload] + list(m.out.values())
        g = gen.random_generalized(seed, config, 2)
        out += [v for tag, body in g.c.values() if tag == "lang" for v in body.table.values()]
    for kind in (MonadKind.POW, MonadKind.SUBDIST):
        g = gen.random_generative(seed, kind)
        out += list(g.c.values()) + [e for mv in g.c.values() for e in mv.payload]
    t = gen.random_tree_automaton(seed)
    out += list(t.c.values()) + [e for mv in t.c.values() for e in mv.payload]
    out += list(gen.random_io_system(seed, "generative").trans.values())
    out += [answers for row in gen.random_io_system(seed, "reactive").trans.values()
            for answers in row.values()]
    return out


@pytest.mark.parametrize("seed", range(8))
def test_canon_key_order_on_generated_payloads(seed):
    _same_order(_gen_payloads(seed))


@pytest.mark.parametrize("kind", [MonadKind.POW, MonadKind.SUBDIST])
def test_canon_key_order_on_law_pools(kind):
    rng = random.Random(3)
    A = Universe(["a", "b"])
    X = ["c0", "c1", "c2"]
    outputs = [False, True] if kind is MonadKind.POW else [F(0), F(1, 2), 1]
    funcs = all_finite_funcs(list(A), X, rng)
    b_elems = [(om, g) for om in outputs for g in funcs]
    pool1 = t_pool(kind, b_elems, rng)
    pool2 = t_pool(kind, pool1, rng, small=True)
    moves = [Move(a, v) for a in A for v in pool1[:20]] + [Done(CHECK)]
    for items in (funcs, b_elems, pool1, pool2, moves,
                  pow_pool(X, rng), subdist_pool(X, rng)):
        _same_order(list(items))


def test_canon_key_order_on_trees_and_mixed_numbers():
    _same_order(enumerate_trees({"c": 0, "f": 1, "g": 2}, 3))
    numbers = [False, True, 0, 1, 2, -1, F(0), F(1, 2), F(1), F(3, 2), F(-1, 3)]
    _same_order(numbers + list(itertools.product(numbers, repeat=2))
                + [(n, ("s", m)) for n in numbers[:5] for m in numbers[5:]]
                + [frozenset([n, "s"]) for n in numbers] + [None, "s", ()])


def test_cached_key_leaves_value_semantics_unchanged():
    # each value next to one built from its contents in another order, with repeats
    makers = [(lambda: pow_value(["b", "a"]), lambda: pow_value(["a", "b", "a"])),
              (lambda: sub_dist({"a": F(1, 4), "b": F(1, 2)}),
               lambda: sub_dist([("b", F(1, 2)), ("a", F(1, 8)), ("a", F(1, 8))])),
              (lambda: sub_dist({"b": 1}), lambda: sub_dist([("b", F(1, 2)), ("b", F(1, 2))])),
              (lambda: double_pow([["b"], ["a", "b"]]),
               lambda: double_pow([["b", "a"], ["b"], ["a", "b", "a"]])),
              (lambda: pow_value([]), lambda: pow_value(())),
              (lambda: FiniteFunc({"b": True, "a": F(1, 2)}),
               lambda: FiniteFunc([("a", F(1, 2)), ("b", True)])),
              (lambda: pow_value([FiniteFunc({"a": pow_value(["x"])})]),
               lambda: pow_value([FiniteFunc({"a": pow_value(["x", "x"])})] * 2))]
    for make, make_other in makers:
        keyed, fresh, other = make(), make(), make_other()
        canon_key(keyed), hash(keyed)  # both cached on `keyed`, neither on `fresh`
        assert canon_key(keyed) is canon_key(keyed)
        assert repr(keyed) == repr(fresh) == repr(other)
        assert dataclasses.asdict(keyed) == dataclasses.asdict(fresh)
        assert [f.name for f in dataclasses.fields(keyed)] == \
            [f.name for f in dataclasses.fields(fresh)]
        assert keyed == fresh == other
        assert hash(keyed) == hash(fresh) == hash(other)
        assert canon_key(keyed) == canon_key(fresh) == canon_key(other)
