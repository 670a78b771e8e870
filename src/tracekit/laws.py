"""Pointwise checkers for the compatibility laws behind the engines.

Each checker replays one commuting-diagram condition on every generated
input over the supplied carriers and reports the first violation, keeping
the offending input and both sides so a failure can be re-verified.
Powerset input spaces are exhausted while they are small; beyond that, and
for subdistributions (whose input space is infinite), inputs come from a
seeded deterministic pool built on the weight grid {1/4, 1/3, 1/2, 1}.

Each construction the laws share is built in one place: `_extend` is the
free extension of a one-step transform along a law (map, push through the
law, flatten each successor), which `mate_rho2_of_rho4`, the em law's
multiplication side and the extension square all read; Kleisli extension
is `monad_bind`; `_tau` is the test map of both pentagons.  The modality
a law reads on a monad of its own is the kernel's `canonical_alg`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from tracekit.kernel import (
    STAR,
    Done,
    FiniteFunc,
    KernelError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    algebra_map,
    canon_key,
    canonical_alg,
    functor_map,
    kappa_moore,
    lambda_generative,
    monad_bind,
    monad_mu,
    monad_unit,
    omega_bot,
    omega_top,
    pow_value,
    sub_dist,
)

WEIGHT_GRID = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))

FUNC_SPACE_CAP = 512


@dataclass
class Counterexample:
    carrier: tuple
    input: Any
    lhs: Any
    rhs: Any
    note: str = ""


@dataclass
class LawReport:
    law_name: str
    carrier_sizes: list[int]
    holds: bool
    counterexample: Optional[Counterexample] = None
    checked: int = 0

    def __post_init__(self):
        if self.holds != (self.counterexample is None):
            raise KernelError("holds must be true exactly when no counterexample exists")


# ---------------------------------------------------------------------------
# input pools


def omega_samples(alg: Modality) -> list:
    if alg is Modality.EXPECT:
        return [Fraction(0), *WEIGHT_GRID]
    return [False, True]


def all_finite_funcs(domain: Sequence, codomain: Sequence, rng: Optional[random.Random] = None,
                     sample: int = 40) -> list[FiniteFunc]:
    """Every total function domain -> codomain, or a seeded sample when too many."""
    domain = sorted(domain, key=canon_key)
    codomain = sorted(codomain, key=canon_key)
    count = len(codomain) ** len(domain) if domain else 1
    if count <= FUNC_SPACE_CAP:
        return [FiniteFunc(zip(domain, values))
                for values in itertools.product(codomain, repeat=len(domain))]
    if rng is None:
        raise KernelError(f"function space of size {count} needs a sampling seed")
    return [FiniteFunc({d: rng.choice(codomain) for d in domain}) for _ in range(sample)]


def pow_pool(base: Sequence, rng: random.Random, exhaustive_limit: int = 8,
             pair_cap: int = 120, extras: int = 20) -> list[MonadValue]:
    """Deterministic pool of powerset values over `base`.

    Exhaustive when 2^|base| is small; otherwise the empty set, all
    singletons, a seeded spread of pairs and a few random subsets of three
    or four elements.
    """
    base = sorted(base, key=canon_key)
    if len(base) <= exhaustive_limit:
        out = []
        for size in range(len(base) + 1):
            out.extend(pow_value(c) for c in itertools.combinations(base, size))
        return out
    out = [pow_value([])]
    out.extend(pow_value([x]) for x in base)
    pairs = list(itertools.combinations(base, 2))
    if len(pairs) > pair_cap:
        pairs = rng.sample(pairs, pair_cap)
    out.extend(pow_value(p) for p in pairs)
    for _ in range(extras):
        size = rng.randint(3, 4)
        out.append(pow_value(rng.sample(base, min(size, len(base)))))
    return out


def subdist_pool(base: Sequence, rng: random.Random, singleton_cap: int = 24,
                 pair_cap: int = 60, weightings: int = 3) -> list[MonadValue]:
    """Deterministic pool of subdistributions with grid weights, mass <= 1."""
    base = sorted(base, key=canon_key)
    out = [sub_dist([])]
    singles = base if len(base) <= singleton_cap else rng.sample(base, singleton_cap)
    for x in singles:
        out.extend(sub_dist({x: w}) for w in WEIGHT_GRID)
    pairs = list(itertools.combinations(base, 2))
    if len(pairs) > pair_cap:
        pairs = rng.sample(pairs, pair_cap)
    for x, y in pairs:
        for _ in range(weightings):
            wx, wy = rng.choice(WEIGHT_GRID), rng.choice(WEIGHT_GRID)
            total = wx + wy
            if total > 1:
                wx, wy = wx / total, wy / total
            out.append(sub_dist({x: wx, y: wy}))
    return list(dict.fromkeys(out))


def t_pool(kind: MonadKind, base: Sequence, rng: random.Random, small: bool = False) -> list[MonadValue]:
    if kind is MonadKind.POW:
        if small:
            return pow_pool(base, rng, exhaustive_limit=6, pair_cap=50, extras=8)
        return pow_pool(base, rng)
    if small:
        return subdist_pool(base, rng, singleton_cap=10, pair_cap=20, weightings=2)
    return subdist_pool(base, rng)


# ---------------------------------------------------------------------------
# canonical generative-to-deterministic transforms


def canonical_rho2(kind: MonadKind, alphabet: Universe) -> Callable:
    """Direct extension transform: branching over moves/terminals becomes one
    (acceptance, per-letter successor set) pair."""
    def rho2(tv: MonadValue):
        if kind is MonadKind.POW:
            accept = any(isinstance(u, Done) for u in tv.payload)
            fam = {b: pow_value(u.target for u in tv.payload
                                if isinstance(u, Move) and u.label == b)
                   for b in alphabet}
            return accept, fam
        accept = sum((w for u, w in tv.payload if isinstance(u, Done)), Fraction(0))
        fam = {b: sub_dist((u.target, w) for u, w in tv.payload
                           if isinstance(u, Move) and u.label == b)
               for b in alphabet}
        return accept, fam
    return rho2


def mate_rho2_of_rho4(kind: MonadKind, alphabet: Universe, rho4: Callable) -> Callable:
    """Free extension of a one-element transform to branching inputs.

    Composing the result with the unit recovers `rho4` exactly.
    """
    alg = canonical_alg(kind)
    return _extend(kind, lambda tv: kappa_moore(kind, alg, tv, alphabet), rho4, alphabet)


def _extend(kind: MonadKind, kappa: Callable, f: Callable, alphabet: Universe) -> Callable:
    """The free extension of `f` along `kappa`: map `f` over a branching
    value, push the packed (output, successors) pairs through `kappa` and
    flatten each letter's branching successor.  Each value the extension
    meets inside its inputs goes through `f` once: its packed pair is kept,
    keyed by the value, for as long as the extension is."""
    packed: dict = {}

    def pack(v):
        p = packed.get(v)
        if p is None:
            p = packed[v] = _pack(f(v))
        return p

    def extended(tv: MonadValue):
        om, fam = kappa(functor_map(kind, pack, tv))
        return om, {a: monad_mu(kind, fam[a]) for a in alphabet}

    return extended


def _pack(pair) -> tuple:
    om, fam = pair
    return (om, fam if isinstance(fam, FiniteFunc) else FiniteFunc(fam))


def _tau(alg: Modality, tv: MonadValue, points: Sequence) -> FiniteFunc:
    """The test map: each point's value under the modality of the tests in `tv`."""
    return FiniteFunc({p: algebra_map(alg, lambda f: f(p), tv) for p in points})


# ---------------------------------------------------------------------------
# checker scaffolding


def _run_check(law_name: str, carriers: Sequence[Universe], cases: Callable) -> LawReport:
    checked = 0
    for X in carriers:
        for inp, lhs, rhs, note in cases(X):
            checked += 1
            if lhs != rhs:
                return LawReport(law_name, [len(c) for c in carriers], False,
                                 Counterexample(X.elements, inp, lhs, rhs, note), checked)
    return LawReport(law_name, [len(c) for c in carriers], True, None, checked)


def _a_elements(labels: Universe, terminals: Universe, targets: Sequence) -> list:
    out = [Move(s, x) for s in labels for x in targets]
    out.extend(Done(t) for t in terminals)
    return out


def _a_map(f: Callable, v):
    """Apply f inside a Move, leave terminals untouched."""
    if isinstance(v, Move):
        return Move(v.label, f(v.target))
    return v


# ---------------------------------------------------------------------------
# law checkers


def check_em_law(kind: MonadKind, alg: Modality, alphabet: Universe,
                 carriers: Sequence[Universe], seed: int = 0,
                 kappa_fn: Optional[Callable] = None) -> LawReport:
    """Unit and multiplication compatibility of the (output x successors) law."""
    rng = random.Random(seed)
    kappa = kappa_fn if kappa_fn is not None else (lambda tv: kappa_moore(kind, alg, tv, alphabet))
    extended = _extend(kind, kappa, kappa, alphabet)

    def cases(X: Universe):
        b_elems = [(om, g) for om in omega_samples(alg)
                   for g in all_finite_funcs(list(alphabet), list(X), rng)]
        for b in b_elems:
            lhs = kappa(monad_unit(kind, b))
            rhs = (b[0], {a: monad_unit(kind, b[1](a)) for a in alphabet})
            yield b, lhs, rhs, "unit"
        pool1 = t_pool(kind, b_elems, rng)
        pool2 = t_pool(kind, pool1, rng, small=True)
        for V in pool2:
            yield V, kappa(monad_mu(kind, V)), extended(V), "multiplication"

    return _run_check("em_law", carriers, cases)


def check_kl_law(kind: MonadKind, labels: Universe, terminals: Universe,
                 carriers: Sequence[Universe], seed: int = 0,
                 lambda_fn: Optional[Callable] = None) -> LawReport:
    """Unit and multiplication compatibility of the move/terminal law."""
    rng = random.Random(seed)
    lam = lambda_fn if lambda_fn is not None else (lambda v: lambda_generative(kind, v))

    def cases(X: Universe):
        for v in _a_elements(labels, terminals, list(X)):
            lhs = lam(_a_map(lambda x: monad_unit(kind, x), v))
            rhs = monad_unit(kind, v)
            yield v, lhs, rhs, "unit"
        pool1 = t_pool(kind, list(X), rng)
        pool2 = t_pool(kind, pool1, rng, small=True)
        for v in _a_elements(labels, terminals, pool2):
            lhs = lam(_a_map(lambda tt: monad_mu(kind, tt), v))
            yield v, lhs, monad_bind(kind, lam(v), lam), "multiplication"

    return _run_check("kl_law", carriers, cases)


def check_extension_square(kind: MonadKind, labels: Universe, terminals: Universe,
                           carriers: Sequence[Universe], seed: int = 0,
                           rho2_fn: Optional[Callable] = None) -> LawReport:
    """Flatten-then-extend equals extend-then-push-through-flatten."""
    rng = random.Random(seed)
    rho2 = rho2_fn if rho2_fn is not None else canonical_rho2(kind, labels)
    extended = mate_rho2_of_rho4(kind, labels, rho2)

    def cases(X: Universe):
        pool1 = t_pool(kind, _a_elements(labels, terminals, list(X)), rng)
        pool2 = t_pool(kind, pool1, rng, small=True)
        for V in pool2:
            yield V, rho2(monad_mu(kind, V)), extended(V), "extension square"

    return _run_check("extension_square", carriers, cases)


def check_extension_requirement(kind: MonadKind, labels: Universe, terminals: Universe,
                                carriers: Sequence[Universe], seed: int = 0,
                                rho2_fn: Optional[Callable] = None,
                                lambda_fn: Optional[Callable] = None) -> LawReport:
    """The extension transform absorbs the move/terminal law before flattening."""
    rng = random.Random(seed)
    rho2 = rho2_fn if rho2_fn is not None else canonical_rho2(kind, labels)
    lam = lambda_fn if lambda_fn is not None else (lambda v: lambda_generative(kind, v))

    def cases(X: Universe):
        pool1 = t_pool(kind, list(X), rng)
        outer = t_pool(kind, _a_elements(labels, terminals, pool1), rng, small=True)
        for W in outer:
            om, fam = rho2(W)
            lhs = (om, {a: monad_mu(kind, fam[a]) for a in labels})
            yield W, lhs, rho2(monad_bind(kind, W, lam)), "extension requirement"

    return _run_check("extension_requirement", carriers, cases)


def check_pentagon_em_logic(kind: MonadKind, alg: Modality, alphabet: Universe,
                            carriers: Sequence[Universe], seed: int = 0,
                            kappa_alg: Optional[Modality] = None) -> LawReport:
    """Determinising then reading off tests agrees with testing pointwise.

    `kappa_alg` lets a deliberately mismatched modality drive the
    determinisation side, for mutation fixtures.
    """
    rng = random.Random(seed)
    kalg = kappa_alg if kappa_alg is not None else alg

    def cases(X: Universe):
        points = list(X)
        l_elems = [Done(STAR)] + [Move(a, x) for a in alphabet for x in points]
        fns = all_finite_funcs(points, omega_samples(alg), rng)
        gfuncs = all_finite_funcs(list(alphabet), fns, rng, sample=25)
        b_elems = [(om, gf) for om in omega_samples(alg) for gf in gfuncs]
        if len(b_elems) > 80:
            b_elems = rng.sample(b_elems, 80)

        def delta(om, gf) -> FiniteFunc:
            return FiniteFunc({u: (om if isinstance(u, Done) else gf(u.label)(u.target))
                               for u in l_elems})

        for S in t_pool(kind, b_elems, rng, small=True):
            om, fam = kappa_moore(kind, kalg, S, alphabet)
            lhs = delta(om, FiniteFunc({a: _tau(alg, fam[a], points) for a in alphabet}))
            mapped = functor_map(kind, lambda p: delta(p[0], p[1]), S)
            rhs = _tau(alg, mapped, l_elems)
            yield S, lhs, rhs, "determinise-vs-test pentagon"

    return _run_check("pentagon_em_logic", carriers, cases)


def standard_delta(labels: Universe, terminals: Universe, points: Sequence,
                   alg: Modality = Modality.JOIN) -> Callable:
    """Single-step logic: a move tests the matching letter, a terminal tests itself."""
    l_elems = _a_elements(labels, terminals, points)
    bot, top = omega_bot(alg), omega_top(alg)

    def delta(v) -> FiniteFunc:
        if isinstance(v, Move):
            return FiniteFunc({u: (v.target(u.target)
                                   if isinstance(u, Move) and u.label == v.label else bot)
                               for u in l_elems})
        return FiniteFunc({u: (top if u == v else bot) for u in l_elems})

    return delta


def strange_delta(labels: Universe, terminals: Universe, points: Sequence,
                  alg: Modality = Modality.JOIN) -> Callable:
    """Like `standard_delta` on moves, but a terminal passes every test."""
    std = standard_delta(labels, terminals, points, alg)
    l_elems = _a_elements(labels, terminals, points)
    top = omega_top(alg)

    def delta(v) -> FiniteFunc:
        if isinstance(v, Done):
            return FiniteFunc({u: top for u in l_elems})
        return std(v)

    return delta


def check_pentagon_kl_logic(kind: MonadKind, labels: Universe, terminals: Universe,
                            carriers: Sequence[Universe], seed: int = 0,
                            delta_builder: Callable = standard_delta,
                            lambda_fn: Optional[Callable] = None) -> LawReport:
    """Pushing branching out of a move commutes with the single-step logic."""
    rng = random.Random(seed)
    alg = canonical_alg(kind)
    lam = lambda_fn if lambda_fn is not None else (lambda v: lambda_generative(kind, v))

    def cases(X: Universe):
        points = list(X)
        delta = delta_builder(labels, terminals, points, alg)
        l_elems = _a_elements(labels, terminals, points)
        fns = all_finite_funcs(points, omega_samples(alg), rng)
        for v in _a_elements(labels, terminals, t_pool(kind, fns, rng, small=True)):
            lam_v = lam(v)
            mapped = functor_map(kind, delta, lam_v)
            lhs = _tau(alg, mapped, l_elems)
            rhs = delta(_a_map(lambda tv: _tau(alg, tv, points), v))
            yield v, lhs, rhs, "branching-vs-logic pentagon"

    return _run_check("pentagon_kl_logic", carriers, cases)
