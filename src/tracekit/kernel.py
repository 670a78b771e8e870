"""Finite universes, branching-monad values and the maps every engine is built from.

Everything here is immutable: two values that denote the same set /
subdistribution / function compare equal and hash alike.  All arithmetic is
exact (`fractions.Fraction`); there is no floating point anywhere in the
package.

A branching value holds its payload in the order it was built, duplicates
removed and equal elements' weights merged; only its contents matter.
`==` and `hash` read the payload as a frozenset (inner sets frozensets too),
and a `FiniteFunc` is a dict, so building a value sorts nothing and nothing
iterates a set: iteration order is a function of the inputs alone.  Order
comes back only where it shows: `ordered(v)` is the one sorted view, in
`canon_key` order, read by `canon_key` of a value, by `repr` and by the
CLI's codecs and reports.  A value that is collapsed at once goes through
`algebra_map(alg, f, v)`, which equals `algebra_eval(alg, functor_map(kind,
f, v))` but applies `f` and the modality in one pass over `v`, building no
mapped value.  `MonadValue` and `FiniteFunc` compute their canonical key,
their frozen contents and their hash once and keep them, so merging nested
values does not rehash their contents.

A modality is defined here and nowhere else: `MODALITY_KIND` says which
branching kind it evaluates, `check_output` what counts as one of its
outputs (the one output check of the machine constructors, the file parser
and `algebra_map`), and `canonical_alg` which modality is a monad's own.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Iterable


class KernelError(Exception):
    """Base class for errors raised by tracekit."""


class FunctorOnlyError(KernelError):
    """An operation needing unit/multiplication was asked of double powerset."""


class AlgebraMismatchError(KernelError):
    """A modality met a branching kind or an output it does not evaluate."""


class MassError(KernelError):
    """A subdistribution's total mass left [0, 1]."""


class UniverseError(KernelError):
    """Duplicate or undeclared symbols in a universe."""


# ---------------------------------------------------------------------------
# canonical ordering


def canon_key(x: Any):
    """Total-order key of the one sorted view (`ordered`) and of every
    other place where order shows.

    Covers every element shape that occurs in machine payloads: symbols,
    exact numbers, tuples, finite functions, generative moves and nested
    monad values.  Objects may opt in by defining ``_canon_key_``.

    Dispatch is on the exact type; subclasses of the built-in shapes are
    keyed as their base type.  Ints and Fractions share one rank and compare
    exactly with each other, so an int is keyed as itself.
    """
    t = type(x)
    if t is str:
        return (2, x)
    if t is tuple:
        return (3, tuple(map(canon_key, x)))
    if t is bool:
        return (0, int(x))
    if t is int or t is Fraction:
        return (1, x)
    if t is frozenset:
        return (4, tuple(sorted(map(canon_key, x))))
    if x is None:
        return (5,)
    key = getattr(x, "_canon_key_", None)
    if key is not None:
        return key()
    for base in (int, Fraction, str, tuple, frozenset):
        if isinstance(x, base):
            return canon_key(base(x))
    raise TypeError(f"no canonical order for {type(x).__name__}: {x!r}")


def _cached(obj, attr: str, compute: Callable[[], Any]):
    """A derived value of a frozen value (its canonical key, its frozen
    contents or its hash), computed on first use and kept outside its
    dataclass fields, so `repr` and `dataclasses.asdict` ignore it."""
    try:
        return getattr(obj, attr)
    except AttributeError:
        value = compute()
        object.__setattr__(obj, attr, value)
        return value


# ---------------------------------------------------------------------------
# universes and finite functions


@dataclass(frozen=True)
class Universe:
    """A finite, ordered set of distinct symbols.

    The construction order is the fixed total order used wherever
    enumeration order matters (words, subset names, reports).
    """

    elements: tuple

    def __init__(self, elements: Iterable):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise UniverseError(f"duplicate elements in universe: {elems!r}")
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.elements

    def index(self, x) -> int:
        try:
            return self.elements.index(x)
        except ValueError:
            raise UniverseError(f"undeclared symbol: {x!r}") from None

    def require(self, x):
        if x not in self.elements:
            raise UniverseError(f"undeclared symbol: {x!r}")
        return x


@dataclass(frozen=True)
class FiniteFunc:
    """A total function with finite domain, held as the dict `table` from
    each key to its value: `==` reads the dict, so the order the pairs were
    given in does not show.  `repr` lists the pairs in `canon_key` order, as
    `FiniteFunc(entries=(...))`."""

    table: dict

    def __init__(self, mapping: Mapping | Iterable):
        if isinstance(mapping, Mapping):
            table = dict(mapping)
        else:
            pairs = tuple(mapping)
            table = dict(pairs)
            if len(table) != len(pairs):
                keys = sorted((k for k, _ in pairs), key=canon_key)
                raise UniverseError(f"duplicate keys in finite function: {keys!r}")
        object.__setattr__(self, "table", table)

    def __call__(self, key):
        return self.table[key]

    def _canon_key_(self):
        return _cached(self, "_canon_key", lambda: (7, canon_key(ordered(self))))

    def __hash__(self):
        return _cached(self, "_hash", lambda: hash(frozenset(self.table.items())))

    def __repr__(self):
        return f"FiniteFunc(entries={ordered(self)!r})"


@dataclass(frozen=True)
class Move:
    """A generative transition element: emit `label`, continue in `target`."""

    label: Any
    target: Any

    def _canon_key_(self):
        return (8, canon_key(self.label), canon_key(self.target))


@dataclass(frozen=True)
class Done:
    """A generative termination element carrying a terminal symbol."""

    terminal: Any

    def _canon_key_(self):
        return (9, canon_key(self.terminal))


#: Default terminal symbol for generative machines.
CHECK = "✓"

#: The extra point of an X+1 state space (strange-logic machines).
STAR = "*"


# ---------------------------------------------------------------------------
# monad values


class MonadKind(Enum):
    POW = "pow"
    SUBDIST = "subdist"
    DOUBLE_POW = "doublepow"


class Modality(Enum):
    """Named evaluation maps from a branching value over outputs to one output."""

    JOIN = "join"
    MEET = "meet"
    EXPECT = "expect"
    JOIN_MEET = "joinmeet"


#: Which branching kind each modality evaluates.
MODALITY_KIND = {
    Modality.JOIN: MonadKind.POW,
    Modality.MEET: MonadKind.POW,
    Modality.EXPECT: MonadKind.SUBDIST,
    Modality.JOIN_MEET: MonadKind.DOUBLE_POW,
}


@dataclass(frozen=True)
class MonadValue:
    """A value of one of the three branching functors, its payload in the
    order it was built:

    - POW: a duplicate-free tuple of elements.
    - SUBDIST: a tuple of (element, weight) pairs, elements distinct,
      weights positive exact rationals with total mass <= 1.
    - DOUBLE_POW: a tuple of inner duplicate-free tuples, no two of them
      the same set.

    Two values are equal when their payloads hold the same contents, in
    any order; `ordered(v)` lists them in `canon_key` order.
    """

    kind: MonadKind
    payload: tuple

    def _contents(self) -> frozenset:
        return _cached(self, "_frozen", lambda: frozenset(
            map(frozenset, self.payload) if self.kind is MonadKind.DOUBLE_POW else self.payload))

    def __eq__(self, other):
        if other.__class__ is not MonadValue:
            return NotImplemented
        return self is other or (self.kind is other.kind and self._contents() == other._contents())

    def _canon_key_(self):
        return _cached(self, "_canon_key", lambda: (10, self.kind.value, canon_key(ordered(self))))

    def __hash__(self):
        return _cached(self, "_hash", lambda: hash((self.kind, self._contents())))

    # -- accessors ---------------------------------------------------------

    @property
    def elements(self) -> tuple:
        if self.kind is not MonadKind.POW:
            raise KernelError("elements is only defined on powerset values")
        return self.payload

    def weight(self, x) -> Fraction:
        if self.kind is not MonadKind.SUBDIST:
            raise KernelError("weight is only defined on subdistribution values")
        for elem, w in self.payload:
            if elem == x:
                return w
        return Fraction(0)

    @property
    def support(self) -> tuple:
        if self.kind is MonadKind.SUBDIST:
            return tuple(e for e, _ in self.payload)
        return self.payload

    def mass(self) -> Fraction:
        if self.kind is not MonadKind.SUBDIST:
            raise KernelError("mass is only defined on subdistribution values")
        return sum((w for _, w in self.payload), Fraction(0))

    def __repr__(self):  # compact, payload-only, in canon_key order
        payload = ordered(self)
        if self.kind is MonadKind.POW:
            return "{" + ", ".join(repr(e) for e in payload) + "}"
        if self.kind is MonadKind.SUBDIST:
            return "{" + ", ".join(f"{e!r}: {w}" for e, w in payload) + "}"
        return "{" + ", ".join("{" + ", ".join(repr(e) for e in s) + "}" for s in payload) + "}"


def ordered(v: MonadValue | FiniteFunc) -> tuple:
    """The one sorted view: `v`'s payload, or a function's (key, value)
    pairs, in `canon_key` order (pairs by their first component; on double
    powerset each inner set too, then the sets)."""
    if type(v) is FiniteFunc:
        return tuple(sorted(v.table.items(), key=_first_key))
    if v.kind is MonadKind.SUBDIST:
        return tuple(sorted(v.payload, key=_first_key))
    if v.kind is MonadKind.POW:
        return tuple(sorted(v.payload, key=canon_key))
    return tuple(sorted((tuple(sorted(s, key=canon_key)) for s in v.payload), key=canon_key))


def _first_key(pair):
    return canon_key(pair[0])


def pow_value(items: Iterable) -> MonadValue:
    """Finite-powerset value: the items in first-seen order, duplicates removed."""
    return MonadValue(MonadKind.POW, tuple(dict.fromkeys(items)))


def sub_dist(weights: Mapping | Iterable) -> MonadValue:
    """Subdistribution: positive reduced weights, mass <= 1, elements in
    first-seen order with the weights of equal elements summed."""
    items = weights.items() if isinstance(weights, Mapping) else weights
    acc: dict = {}  # equal elements merge under the first key seen
    for elem, w in items:
        if type(w) is not Fraction:
            w = Fraction(w)
        if w < 0:
            raise MassError(f"negative weight {w} at {elem!r}")
        if w == 0:
            continue
        old = acc.get(elem)
        acc[elem] = w if old is None else old + w
    total = sum(acc.values(), Fraction(0))
    if total > 1:
        raise MassError(f"total mass {total} exceeds 1")
    return MonadValue(MonadKind.SUBDIST, tuple(acc.items()))


def double_pow(sets: Iterable[Iterable]) -> MonadValue:
    """Double-powerset value: each inner set duplicate-free, the sets in
    first-seen order with equal sets (in any order) kept once."""
    inner: dict = {}
    for s in sets:
        s = tuple(dict.fromkeys(s))
        inner.setdefault(frozenset(s), s)
    return MonadValue(MonadKind.DOUBLE_POW, tuple(inner.values()))


def _require_monad(kind: MonadKind, op: str) -> None:
    if kind is MonadKind.DOUBLE_POW:
        raise FunctorOnlyError(f"{op}: double powerset is functor-only (no unit/multiplication)")


def _check_kind(kind: MonadKind, v: MonadValue, op: str) -> None:
    if v.kind is not kind:
        raise KernelError(f"{op}: expected a {kind.value} value, got {v.kind.value}")


# ---------------------------------------------------------------------------
# monad structure


def monad_unit(kind: MonadKind, x) -> MonadValue:
    _require_monad(kind, "monad_unit")
    if kind is MonadKind.POW:
        return pow_value([x])
    return sub_dist([(x, Fraction(1))])


def monad_bind(kind: MonadKind, t: MonadValue, k: Callable[[Any], MonadValue]) -> MonadValue:
    _require_monad(kind, "monad_bind")
    _check_kind(kind, t, "monad_bind")
    if kind is MonadKind.POW:
        out: list = []
        for x in t.payload:
            v = k(x)
            _check_kind(kind, v, "monad_bind continuation")
            out.extend(v.payload)
        return pow_value(out)
    pairs: list = []
    for x, w in t.payload:
        v = k(x)
        _check_kind(kind, v, "monad_bind continuation")
        pairs.extend((y, w * wy) for y, wy in v.payload)
    return sub_dist(pairs)


def monad_mu(kind: MonadKind, tt: MonadValue) -> MonadValue:
    """Flatten a branching value whose elements are branching values."""
    return monad_bind(kind, tt, lambda inner: inner)


def functor_map(kind: MonadKind, f: Callable[[Any], Any], t: MonadValue) -> MonadValue:
    _check_kind(kind, t, "functor_map")
    if kind is MonadKind.POW:
        return pow_value(f(x) for x in t.payload)
    if kind is MonadKind.SUBDIST:
        return sub_dist((f(x), w) for x, w in t.payload)
    return double_pow(tuple(f(x) for x in s) for s in t.payload)


def strength(kind: MonadKind, t: MonadValue, alphabet: Universe) -> dict:
    """Pointwise image under evaluation: st(t)(a) = map(g -> g(a), t)."""
    return {a: functor_map(kind, lambda g: g(a), t) for a in alphabet}


# ---------------------------------------------------------------------------
# modality evaluation


def algebra_eval(alg: Modality, v: MonadValue):
    """Collapse a branching value over outputs to a single output.

    Empty-set conventions: join of nothing is bottom, meet of nothing is top;
    the expectation of the zero subdistribution is 0.
    """
    return algebra_map(alg, _identity, v)


def algebra_map(alg: Modality, f: Callable[[Any], Any], v: MonadValue):
    """`algebra_eval(alg, functor_map(kind, f, v))` in one pass over `v`.

    Applies `f` to every element, in payload order and without stopping
    early, and collapses the outputs without building the mapped value.  The
    checks are those of the two-step form: `v`'s kind must be the one the
    modality evaluates, and every output one `check_output` accepts.
    Expectation sums output times weight over elements, which equals summing
    over merged outputs.
    """
    if v.kind is not MODALITY_KIND[alg]:
        raise AlgebraMismatchError(f"{alg.value} cannot evaluate a {v.kind.value} value")
    if alg is Modality.EXPECT:
        total = Fraction(0)
        for x, w in v.payload:
            total += check_output(alg, f(x), alg.value) * w
        return total
    if alg is Modality.JOIN_MEET:
        outs = [[f(x) for x in s] for s in v.payload]
        for s in outs:
            for b in s:
                if type(b) is not bool:
                    check_output(alg, b, alg.value)
        return any(all(s) for s in outs)
    outs = [f(x) for x in v.payload]
    for b in outs:
        if type(b) is not bool:
            check_output(alg, b, alg.value)
    return any(outs) if alg is Modality.JOIN else all(outs)


def _identity(x):
    return x


def check_output(alg: Modality, value, where: str):
    """`value` as an output of `alg`, or `AlgebraMismatchError` naming
    `where`: a boolean for join, meet and join-meet, a rational in [0, 1]
    (returned as a `Fraction`) for expectation."""
    if alg is not Modality.EXPECT:
        if type(value) is not bool:
            raise AlgebraMismatchError(f"{where}: output {value!r} is not a boolean")
        return value
    if type(value) is not Fraction:
        if type(value) is bool or not isinstance(value, (int, Fraction)):
            raise AlgebraMismatchError(f"{where}: output {value!r} is not a rational")
        value = Fraction(value)
    if not 0 <= value <= 1:
        raise AlgebraMismatchError(f"{where}: output {value} outside [0, 1]")
    return value


def canonical_alg(kind: MonadKind) -> Modality:
    """The modality that is the monad's own: join on sets, expectation on
    subdistributions."""
    if kind is MonadKind.POW:
        return Modality.JOIN
    if kind is MonadKind.SUBDIST:
        return Modality.EXPECT
    raise KernelError("double powerset has no canonical branching modality")


def omega_bot(alg: Modality):
    return Fraction(0) if alg is Modality.EXPECT else False


def omega_top(alg: Modality):
    return Fraction(1) if alg is Modality.EXPECT else True


def omega_meet(alg: Modality, values: Iterable):
    """Meet in the output carrier (min on [0,1]); empty meet is top."""
    out = omega_top(alg)
    for v in values:
        out = min(out, Fraction(v)) if alg is Modality.EXPECT else (out and v)
    return out


# ---------------------------------------------------------------------------
# the two canonical law components


def kappa_moore(kind: MonadKind, alg: Modality, v: MonadValue, alphabet: Universe):
    """Push branching through an (output, successor-function) pair.

    Input elements are pairs ``(omega, g)`` with ``g`` a FiniteFunc from the
    alphabet.  Returns ``(collapsed output, {a: branching value of g(a)})``.
    """
    _require_monad(kind, "kappa_moore")
    _check_kind(kind, v, "kappa_moore")
    first = algebra_map(alg, lambda p: p[0], v)
    funcs = functor_map(kind, lambda p: p[1], v)
    return first, strength(kind, funcs, alphabet)


def lambda_generative(kind: MonadKind, v):
    """Push a branching target outwards: Move(s, T(X)) -> T(Move(s, X)); Done -> unit."""
    _require_monad(kind, "lambda_generative")
    if isinstance(v, Move):
        _check_kind(kind, v.target, "lambda_generative")
        return functor_map(kind, lambda x: Move(v.label, x), v.target)
    if isinstance(v, Done):
        return monad_unit(kind, v)
    raise KernelError(f"lambda_generative: expected Move or Done, got {v!r}")
