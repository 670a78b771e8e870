"""Machine files, command dispatch and report/DOT emission.

Machine files are JSON; rationals travel as "p/q" strings so nothing is ever
rounded.  One table, `_KINDS`, gives the fields of every machine kind in
file order, each with a codec that both reads the field (naming its location
in any error) and writes it back: `parse_machine` and `serialize_machine`
are loops over that table, so the two cannot drift apart.  Every malformed
file fails with `MachineFormatError`.  Reports are JSON too and are
byte-identical across runs for the same (file, command, flags, seed), apart
from the timing field.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

from tracekit.engines import (
    DeterminisedMoore,
    GeneralizedCoalgebra,
    GenerativeCoalgebra,
    MooreCoalgebra,
    StrangeCoalgebra,
    TreeCoalgebra,
    compare_semantics,
    determinise_bt,
    em_language,
    kleisli_traces,
    logic_eval_strange,
    logic_eval_tree,
    logic_language,
    step_view,
)
from tracekit.kernel import (
    CHECK,
    STAR,
    AlgebraMismatchError,
    Done,
    KernelError,
    MassError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    canon_key,
    check_output,
    double_pow,
    pow_value,
    sub_dist,
)
from tracekit.languages import TruncatedLanguage, enumerate_words, tree_name, unfold_trees
from tracekit.laws import (
    LawReport,
    check_em_law,
    check_extension_requirement,
    check_extension_square,
    check_kl_law,
    check_pentagon_em_logic,
    check_pentagon_kl_logic,
    strange_delta,
)
from tracekit.strategies import (
    IOSignature,
    IOSystem,
    check_strategy_coalgebra,
    determinise_io,
    io_traces,
)

FORMAT_VERSION = 1


class MachineFormatError(KernelError):
    """A machine file is missing fields, ill-typed or semantically invalid."""


# ---------------------------------------------------------------------------
# machine files: one codec table for every kind
#
# A codec reads one JSON value of a machine file, given the fields of the
# machine read before it and the location to name in an error, and shows a
# value back as JSON.  `_KINDS` lists each kind's fields in file order, each
# with its codec; `parse_machine` and `serialize_machine` are loops over it.


class Codec(NamedTuple):
    parse: Callable[[Any, dict, str], Any]  # (raw JSON, fields so far, location) -> value
    show: Callable[[Any, dict], Any]  # (value, the machine's fields) -> JSON


#: marks a field or key that has no default
REQUIRED = object()
#: marks an object key that may be left out, and is then absent from the value
OPTIONAL = object()


#: the only string form of a rational: an integer, or an integer over a denominator
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise MachineFormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            if not _RATIONAL.fullmatch(v):
                raise ValueError(v)
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise MachineFormatError(f"{where}: bad rational {v!r}") from None
    raise MachineFormatError(f"{where}: expected an int or 'p/q' string, got {v!r}")


def show_value(v) -> Any:
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, Fraction)):
        return str(v)
    return repr(v)


def parse_output(v, modality: Modality, where: str):
    """An output as `check_output` accepts it, an expectation's read as a rational."""
    if modality is Modality.EXPECT:
        v = parse_rational(v, where)
    try:
        return check_output(modality, v, where)
    except AlgebraMismatchError as e:
        raise MachineFormatError(str(e)) from None


class _DuplicateKeys(dict):
    """A JSON object that lists `key` more than once; `_object` rejects it
    where the machine reads it, so the error names its location."""

    key: str


def _object_pairs(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()
        for k, _ in pairs:
            if k in seen:
                break
            seen.add(k)
        obj = _DuplicateKeys(obj)
        obj.key = k
    return obj


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise MachineFormatError(f"{where}: expected an object, got {type(raw).__name__}")
    if type(raw) is _DuplicateKeys:
        raise MachineFormatError(f"{where}: duplicate key {raw.key!r}")
    return raw


def _list(raw, where: str) -> list:
    if type(raw) is not list:
        raise MachineFormatError(f"{where}: expected a list, got {raw!r}")
    return raw


def _pairs(raw, where: str) -> list:
    """A JSON list whose entries are two-element lists."""
    for e in _list(raw, where):
        if not (type(e) is list and len(e) == 2):
            raise MachineFormatError(f"{where}: expected a pair, got {e!r}")
    return raw


def _same(value, fields):
    return value


def _parse_names(raw, fields: dict, where: str) -> Universe:
    if type(raw) is not list or not all(type(x) is str for x in raw):
        raise MachineFormatError(f"{where}: expected a list of strings, got {raw!r}")
    try:
        return Universe(raw)
    except KernelError as e:
        raise MachineFormatError(f"{where}: {e}") from None


#: a universe: a list of distinct names
NAMES = Codec(_parse_names, lambda u, fields: list(u))
RATIONAL = Codec(lambda raw, fields, where: parse_rational(raw, where),
                 lambda v, fields: show_value(v))
#: a boolean, or a rational in [0, 1] when the machine's modality is `expect`
OUTPUT = Codec(lambda raw, fields, where: parse_output(raw, fields["modality"], where),
               lambda v, fields: v if type(v) is bool else show_value(v))


def one_of(values) -> Codec:
    """One of `values` (enum members or strings), written as its value."""
    by_name = {getattr(v, "value", v): v for v in values}

    def parse(raw, fields, where):
        if type(raw) is not str or raw not in by_name:
            raise MachineFormatError(f"{where}: expected one of {list(by_name)}, got {raw!r}")
        return by_name[raw]
    return Codec(parse, lambda v, fields: getattr(v, "value", v))


#: what one member of each universe field is called in an error
_MEMBER = {"states": "state", "alphabet": "letter", "labels": "label", "terminals": "terminal",
           "operations": "operation", "signature": "symbol"}


def member(universe: str) -> Codec:
    """A name declared by the machine's field `universe`."""
    def parse(raw, fields, where):
        if type(raw) is not str or raw not in fields[universe]:
            raise MachineFormatError(f"{where}: undeclared {_MEMBER[universe]} {raw!r}")
        return raw
    return Codec(parse, _same)


def keyed(universe: str, value: Codec, missing=REQUIRED) -> Codec:
    """An object keyed by the members of the field `universe`, read as a
    dict in universe order.  A key naming no member is an error; a member
    with no key is an error, is left out (`OPTIONAL`), or is read from the
    raw JSON `missing`."""
    def parse(raw, fields, where):
        obj = _object(raw, where)
        names = fields[universe]
        out, found = {}, 0
        for k in names:
            if k in obj:
                v = obj[k]
                found += 1
            elif missing is REQUIRED:
                raise MachineFormatError(f"{where}: missing field {k!r}")
            elif missing is OPTIONAL:
                continue
            else:
                v = missing
            out[k] = value.parse(v, fields, f"{where}[{k!r}]")
        if found < len(obj):
            k = next(k for k in obj if k not in names)
            raise MachineFormatError(f"{where}: undeclared {_MEMBER[universe]} {k!r}")
        return out
    return Codec(parse, lambda d, fields: {k: value.show(d[k], fields)
                                           for k in fields[universe] if k in d})


def _sub_dist(pairs, where: str) -> MonadValue:
    try:
        return sub_dist(pairs)
    except MassError as e:
        raise MachineFormatError(f"{where}: {e}") from None


def set_of(elem: Codec) -> Codec:
    """A powerset value as a list of elements."""
    return Codec(
        lambda raw, fields, where: pow_value([elem.parse(e, fields, where)
                                              for e in _list(raw, where)]),
        (lambda v, fields: list(v.payload)) if elem.show is _same
        else lambda v, fields: [elem.show(u, fields) for u in v.payload])


def sets_of(elem: Codec) -> Codec:
    """A double-powerset value as a list of lists of elements."""
    return Codec(
        lambda raw, fields, where: double_pow([elem.parse(e, fields, where)
                                               for e in _list(s, where)]
                                              for s in _list(raw, where)),
        (lambda v, fields: [list(s) for s in v.payload]) if elem.show is _same
        else lambda v, fields: [[elem.show(u, fields) for u in s] for s in v.payload])


def weighted(elem: Codec) -> Codec:
    """A subdistribution as a list of [element, weight] pairs."""
    return Codec(
        lambda raw, fields, where: _sub_dist(
            [(elem.parse(e, fields, where), parse_rational(w, where))
             for e, w in _pairs(raw, where)], where),
        lambda v, fields: [[elem.show(u, fields), show_value(w)] for u, w in v.payload])


def branching(elem: Codec, subdist: Codec) -> Codec:
    """A value of the machine's monad over `elem`: `set_of`, `sets_of`, or
    the codec `subdist` for subdistributions."""
    powerset, double_powerset = set_of(elem), sets_of(elem)

    def of(kind: MonadKind) -> Codec:
        return (powerset if kind is MonadKind.POW else subdist if kind is MonadKind.SUBDIST
                else double_powerset)
    return Codec(lambda raw, fields, where: of(fields["monad"]).parse(raw, fields, where),
                 lambda v, fields: of(v.kind).show(v, fields))


def headed(head: Codec) -> Codec:
    """A [head, [state, ...]] entry, read as (head, (state, ...))."""
    def parse(raw, fields, where):
        if not (type(raw) is list and len(raw) == 2 and type(raw[1]) is list):
            raise MachineFormatError(f"{where}: bad entry {raw!r}")
        return (head.parse(raw[0], fields, where),
                tuple(STATE.parse(y, fields, where) for y in raw[1]))
    return Codec(parse, lambda u, fields: [u[0], list(u[1])])


STATE = member("states")
_WEIGHTS = keyed("states", RATIONAL, missing=OPTIONAL)
#: a Moore step: a list of states, a {state: weight} object or a list of lists of states
STEP = branching(STATE, Codec(
    lambda raw, fields, where: _sub_dist(_WEIGHTS.parse(raw, fields, where), where),
    lambda v, fields: {x: show_value(w) for x, w in v.payload}))


_TERMINAL, _LABEL, _LETTER = member("terminals"), member("labels"), member("alphabet")


def _parse_move_or_terminal(raw, fields: dict, where: str):
    if type(raw) is str:
        return Done(_TERMINAL.parse(raw, fields, where))
    if type(raw) is list and len(raw) == 2:
        return Move(_LABEL.parse(raw[0], fields, where), STATE.parse(raw[1], fields, where))
    raise MachineFormatError(f"{where}: bad entry {raw!r}")


#: a terminal symbol, or a [label, state] move
GENERATIVE_ENTRY = Codec(_parse_move_or_terminal,
                         lambda u, fields: u.terminal if type(u) is Done else [u.label, u.target])
#: a [symbol, [child state, ...]] node
TREE_NODE = headed(member("signature"))
#: a state, or STAR for stopping
STRANGE_ENTRY = Codec(
    lambda raw, fields, where: raw if raw == STAR else STATE.parse(raw, fields, where), _same)
_IO_MOVE = headed(member("operations"))
_ANSWER_ROWS = keyed("operations", Codec(lambda raw, fields, where: raw, _same), missing=[])


def _parse_operation_row(raw, fields: dict, where: str):
    """Generative: a list of [operation, [target per answer]].  Reactive: an
    object from operations to lists of [answer, target]."""
    if fields["mode"] == "generative":
        return frozenset(_IO_MOVE.parse(e, fields, where) for e in _list(raw, where))
    row = _ANSWER_ROWS.parse(raw, fields, where)
    for k, pairs in row.items():
        at, answers = f"{where}[{k!r}]", fields["arities"][k]
        for i, _ in _pairs(pairs, at):
            if type(i) is not str or i not in answers:
                raise MachineFormatError(f"{at}: undeclared answer {i!r}")
        row[k] = frozenset((i, STATE.parse(y, fields, at)) for i, y in pairs)
    return row


def _show_operation_row(row, fields: dict):
    if fields["mode"] == "generative":
        return sorted(([k, list(targets)] for k, targets in row), key=repr)
    return {k: sorted(([i, y] for i, y in row[k]), key=repr) for k in fields["operations"]}


def _parse_signature(raw, fields: dict, where: str) -> dict:
    signature = _object(raw, where)
    for s, n in signature.items():
        if type(n) is not int or n < 0:
            raise MachineFormatError(f"{where}[{s!r}]: expected a non-negative integer "
                                     f"arity, got {n!r}")
    return dict(signature)


def _parse_semantic_state(raw, fields: dict, where: str) -> TruncatedLanguage:
    spec = _object(raw, where)
    for name in ("depth", "table"):
        if name not in spec:
            raise MachineFormatError(f"{where}: missing field {name!r}")
    depth = spec["depth"]
    if type(depth) is not int:
        raise MachineFormatError(f"{where}: expected an integer depth, got {depth!r}")
    table = {}
    for word, value in _pairs(spec["table"], f"{where}['table']"):
        if type(word) is not list:
            raise MachineFormatError(f"{where}: expected a word as a list, got {word!r}")
        w = tuple(_LETTER.parse(a, fields, where) for a in word)
        if w in table:
            raise MachineFormatError(f"{where}: word {word!r} listed twice")
        table[w] = parse_output(value, fields["modality"], where)
    try:
        return TruncatedLanguage(fields["alphabet"], depth, table)
    except KernelError as e:
        raise MachineFormatError(f"{where}: {e}") from None


#: a semantic state: {"depth": n, "table": [[word, output], ...]} over every word up to n
SEMANTIC_STATE = Codec(_parse_semantic_state, lambda lang, fields: {
    "depth": lang.depth, "table": [[list(w), show_value(v)] for w, v in lang.items()]})


def _generalized(f: dict) -> GeneralizedCoalgebra:
    """Each state is semantic, or has an output and a transition row."""
    c = {}
    for x in f["states"]:
        semantic = x in f["semantic_states"]
        for name in ("outputs", "transitions"):
            if semantic and x in f[name]:
                raise MachineFormatError(f"{name}[{x!r}]: state is semantic")
            if not semantic and x not in f[name]:
                raise MachineFormatError(f"{name}: missing field {x!r}")
        c[x] = (("lang", f["semantic_states"][x]) if semantic
                else ("node", (f["outputs"][x], f["transitions"][x])))
    return GeneralizedCoalgebra(f["states"], f["alphabet"], f["monad"], f["modality"], c)


def _generalized_fields(m: GeneralizedCoalgebra) -> dict:
    nodes = {x: body for x, (tag, body) in m.c.items() if tag == "node"}
    return {"monad": m.kind, "modality": m.alg, "states": m.states, "alphabet": m.alphabet,
            "outputs": {x: out for x, (out, _) in nodes.items()},
            "transitions": {x: row for x, (_, row) in nodes.items()},
            "semantic_states": {x: body for x, (tag, body) in m.c.items() if tag == "lang"}}


class Kind(NamedTuple):
    machine: type
    fields: tuple  # (name, codec), in file order; a codec reads only fields before it
    build: Callable[[dict], Any]  # parsed fields -> machine
    fields_of: Callable[[Any], dict]  # machine -> field values
    defaults: dict = {}  # raw JSON of each optional field


MONAD, MODALITY = one_of(MonadKind), one_of(Modality)

_KINDS = {
    "moore": Kind(
        MooreCoalgebra,
        (("monad", MONAD), ("modality", MODALITY), ("states", NAMES), ("alphabet", NAMES),
         ("outputs", keyed("states", OUTPUT)),
         ("transitions", keyed("states", keyed("alphabet", STEP)))),
        lambda f: MooreCoalgebra(f["states"], f["alphabet"], f["monad"], f["modality"],
                                 f["outputs"], f["transitions"]),
        lambda m: {"monad": m.kind, "modality": m.alg, "states": m.states,
                   "alphabet": m.alphabet, "outputs": m.out, "transitions": m.trans}),
    "generative": Kind(
        GenerativeCoalgebra,
        (("monad", one_of([MonadKind.POW, MonadKind.SUBDIST])), ("states", NAMES),
         ("labels", NAMES), ("terminals", NAMES),
         ("transitions", keyed("states", branching(GENERATIVE_ENTRY,
                                                   weighted(GENERATIVE_ENTRY))))),
        lambda f: GenerativeCoalgebra(f["states"], f["labels"], f["monad"], f["transitions"],
                                      f["terminals"]),
        lambda m: {"monad": m.kind, "states": m.states, "labels": m.labels,
                   "terminals": m.terminals, "transitions": m.c},
        {"terminals": [CHECK]}),
    "tree": Kind(
        TreeCoalgebra,
        (("monad", MONAD), ("modality", MODALITY), ("states", NAMES),
         ("signature", Codec(_parse_signature, lambda sig, fields: dict(sig))),
         ("transitions", keyed("states", branching(TREE_NODE, weighted(TREE_NODE))))),
        lambda f: TreeCoalgebra(f["states"], f["signature"], f["monad"], f["modality"],
                                f["transitions"]),
        lambda m: {"monad": m.kind, "modality": m.alg, "states": m.states,
                   "signature": m.signature, "transitions": m.c}),
    "strange": Kind(
        StrangeCoalgebra,
        (("states", NAMES), ("transitions", keyed("states", set_of(STRANGE_ENTRY)))),
        lambda f: StrangeCoalgebra(f["states"], f["transitions"]),
        lambda m: {"states": m.states, "transitions": m.c}),
    "io": Kind(
        IOSystem,
        (("mode", one_of(["generative", "reactive"])), ("states", NAMES), ("operations", NAMES),
         ("arities", keyed("operations", NAMES)),
         ("transitions", keyed("states", Codec(_parse_operation_row, _show_operation_row)))),
        lambda f: IOSystem(f["states"], IOSignature(f["operations"], f["arities"]), f["mode"],
                           f["transitions"]),
        lambda m: {"mode": m.mode, "states": m.states, "operations": m.signature.operations,
                   "arities": m.signature.arity, "transitions": m.trans}),
    "generalized": Kind(
        GeneralizedCoalgebra,
        (("monad", MONAD), ("modality", MODALITY), ("states", NAMES), ("alphabet", NAMES),
         ("outputs", keyed("states", OUTPUT, missing=OPTIONAL)),
         ("transitions", keyed("states", keyed("alphabet", STEP), missing=OPTIONAL)),
         ("semantic_states", keyed("states", SEMANTIC_STATE, missing=OPTIONAL))),
        _generalized, _generalized_fields,
        {"outputs": {}, "transitions": {}, "semantic_states": {}}),
}
_KIND_NAMES = {kind.machine: name for name, kind in _KINDS.items()}
_KIND = one_of(_KINDS)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object_pairs)
    except OSError as e:
        raise MachineFormatError(f"{path}: cannot read the file: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise MachineFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise MachineFormatError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") \
            from None
    except (ValueError, RecursionError) as e:
        raise MachineFormatError(f"{path}: unreadable JSON: {e}") from None


def parse_machine(path: str):
    """Load one machine file, returning the corresponding machine object."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise MachineFormatError(f"{path}: expected a JSON object at the top level")
    _object(doc, "machine")
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != FORMAT_VERSION:
        raise MachineFormatError(f"{path}: unsupported format {fmt!r}")
    kind = _KINDS[_KIND.parse(doc.get("kind"), {}, "kind")]
    fields: dict = {}
    for name, codec in kind.fields:
        raw = doc.get(name, kind.defaults.get(name, REQUIRED))
        if raw is REQUIRED:
            raise MachineFormatError(f"machine: missing field {name!r}")
        fields[name] = codec.parse(raw, fields, name)
    try:
        return kind.build(fields)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def serialize_machine(machine) -> dict:
    """The machine as the JSON document `parse_machine` reads back."""
    name = _KIND_NAMES.get(type(machine))
    if name is None:
        raise MachineFormatError(f"cannot serialise {type(machine).__name__}")
    kind = _KINDS[name]
    fields = kind.fields_of(machine)
    return {"format": FORMAT_VERSION, "kind": name,
            **{f: codec.show(fields[f], fields) for f, codec in kind.fields}}


# ---------------------------------------------------------------------------
# report building blocks


def show_language(lang: TruncatedLanguage, words: list) -> list:
    """The table as [word, value] pairs, `words` being its `enumerate_words`
    list, each word as a list, built once per report; a boolean is printed
    as it is, any other value by `show_value`."""
    return [[w, v if type(v) is bool else show_value(v)] for w, v in zip(words, lang.values)]


def show_trace_set(ts: MonadValue) -> list:
    if ts.kind is MonadKind.POW:
        return [[list(w), s] for w, s in ts.elements]
    return [[list(w), s, show_value(m)] for (w, s), m in ts.payload]


def show_law_report(rep: LawReport) -> dict:
    out = {
        "law": rep.law_name,
        "carrier_sizes": rep.carrier_sizes,
        "holds": rep.holds,
        "checked": rep.checked,
        "counterexample": None,
    }
    if rep.counterexample is not None:
        cx = rep.counterexample
        out["counterexample"] = {
            "carrier": [repr(e) for e in cx.carrier],
            "input": repr(cx.input),
            "lhs": repr(cx.lhs),
            "rhs": repr(cx.rhs),
            "note": cx.note,
        }
    return out


def show_strategy(strategy) -> list:
    return [list(p) for p in strategy.sorted_plays()]


# ---------------------------------------------------------------------------
# commands


def run_command(command: str, **options) -> dict:
    """Execute one CLI command and return its report as a plain dict."""
    started = time.perf_counter()
    handler = _COMMANDS.get(command)
    if handler is None:
        raise MachineFormatError(f"unknown command {command!r}")
    report = {"command": command,
              "options": {k: v for k, v in sorted(options.items()) if v is not None}}
    report.update(handler(options))
    report["timing_s"] = round(time.perf_counter() - started, 6)
    return report


def _require_depth(options) -> int:
    depth = options.get("depth")
    if depth is None:
        raise MachineFormatError("--depth is required for this command")
    depth = int(depth)
    if depth < 0:
        raise MachineFormatError(f"--depth must be >= 0, got {depth}")
    return depth


def _load(options):
    path = options.get("machine")
    if path is None:
        raise MachineFormatError("a machine file is required for this command")
    return parse_machine(path)


def _states_in_scope(machine, options):
    sel = options.get("state")
    if sel is None:
        return list(machine.states)
    machine.states.require(sel)
    return [sel]


def _cmd_semantics(options) -> dict:
    machine = _load(options)
    depth = _require_depth(options)
    engine = options.get("engine") or _default_engine(machine)
    states = _states_in_scope(machine, options)
    entries = _semantics(machine, states, depth, engine)
    return {"engine": engine, "depth": depth,
            "results": [{"state": x, **entries[x]} for x in states]}


def _default_engine(machine) -> str:
    if isinstance(machine, GeneralizedCoalgebra):
        return "cia"
    if isinstance(machine, (TreeCoalgebra, StrangeCoalgebra)):
        return "logic"
    if isinstance(machine, MooreCoalgebra) and machine.kind is MonadKind.DOUBLE_POW:
        return "logic"
    return "em"


def _semantics(machine, states: list, depth: int, engine: str) -> dict:
    """Report entry of each state in scope, from one step view and one
    whole-machine result where the engine has one."""
    if (engine in ("em", "logic") and isinstance(machine, (MooreCoalgebra, GenerativeCoalgebra))
            or engine == "cia" and isinstance(machine, GeneralizedCoalgebra)):
        view = step_view(machine)
        engine_language = em_language if engine == "em" else logic_language
        langs = engine_language(view, depth, states)
        words = [list(w) for w in enumerate_words(view.alphabet, depth)]
        return {x: {"language": show_language(langs[x], words)} for x in states}
    if isinstance(machine, GenerativeCoalgebra) and engine == "kleisli":
        traces = kleisli_traces(machine, depth)
        out = {}
        for x in states:
            out[x] = {"traces": show_trace_set(traces[x])}
            if machine.kind is MonadKind.SUBDIST:
                out[x]["retained_mass"] = show_value(traces[x].mass())
        return out
    if isinstance(machine, TreeCoalgebra) and engine == "logic":
        names = unfold_trees(machine.signature, max(depth, 1), tree_name)
        columns = logic_eval_tree(machine, max(depth, 1))
        return {x: {"tree_language": [[name, show_value(v)] for name, v in zip(names, columns[x])]}
                for x in states}
    if isinstance(machine, StrangeCoalgebra) and engine == "logic":
        tables = logic_eval_strange(machine, depth)
        return {x: {"by_steps": list(tables[x])} for x in states}
    raise MachineFormatError(
        f"engine {engine!r} does not apply to {type(machine).__name__}")


def _cmd_compare(options) -> dict:
    return _compare_report(_load(options), _require_depth(options))


def _compare_report(machine, depth: int) -> dict:
    rep = compare_semantics(machine, depth)
    out = {
        "machine_kind": rep.machine_kind,
        "depth": rep.depth,
        "engines": rep.engines,
        "all_equal": rep.all_equal,
        "verdicts": [{
            "engines": [v.engine_a, v.engine_b],
            "state": list(v.state) if isinstance(v.state, tuple) else v.state,
            "equal": v.equal,
            "first_difference": list(v.first_difference) if v.first_difference else None,
        } for v in rep.verdicts],
    }
    if rep.machine_kind != "strange":
        alphabet = machine.labels if isinstance(machine, GenerativeCoalgebra) else machine.alphabet
        words = [list(w) for w in enumerate_words(alphabet, depth)]
        out["languages"] = {
            engine: [{"state": x, "language": show_language(langs[x], words)}
                     for x in sorted(langs, key=canon_key)]
            for engine, langs in rep.languages.items()
        }
    else:
        out["logic_by_steps"] = {x: list(rep.languages["logic"][x])
                                 for x in sorted(rep.languages["logic"], key=canon_key)}
    if rep.trace_sets:
        out["trace_sets"] = [{"state": x, "traces": show_trace_set(rep.trace_sets[x])}
                             for x in sorted(rep.trace_sets, key=canon_key)]
    retained = rep.retained_mass
    if retained:
        out["retained_mass"] = {x: show_value(m) for x, m in retained.items()}
    if rep.collapse_injective is not None:
        out["trace_collapse_injective"] = rep.collapse_injective
        out["collapse_witnesses"] = [list(p) for p in rep.collapse_witnesses]
    return out


_LAW_CARRIERS = [Universe(["c0"]), Universe(["c0", "c1"]), Universe(["c0", "c1", "c2"])]


def _cmd_laws(options) -> dict:
    machine = _load(options)
    seed = options.get("seed")
    needs_seed = getattr(machine, "kind", MonadKind.POW) is MonadKind.SUBDIST
    if needs_seed and seed is None:
        raise MachineFormatError("--seed is required for subdistribution law sampling")
    seed = 0 if seed is None else int(seed)
    reports: list[LawReport] = []
    note = None
    if isinstance(machine, (MooreCoalgebra, GeneralizedCoalgebra)):
        if machine.kind is MonadKind.DOUBLE_POW:
            note = "double powerset carries no monad structure: no laws apply"
        else:
            reports.append(check_em_law(machine.kind, machine.alg, machine.alphabet,
                                        _LAW_CARRIERS, seed))
            reports.append(check_pentagon_em_logic(machine.kind, machine.alg,
                                                   machine.alphabet, _LAW_CARRIERS, seed))
    elif isinstance(machine, GenerativeCoalgebra):
        reports.append(check_kl_law(machine.kind, machine.labels, machine.terminals,
                                    _LAW_CARRIERS, seed))
        reports.append(check_extension_square(machine.kind, machine.labels,
                                              machine.terminals, _LAW_CARRIERS, seed))
        reports.append(check_extension_requirement(machine.kind, machine.labels,
                                                   machine.terminals, _LAW_CARRIERS, seed))
        reports.append(check_pentagon_kl_logic(machine.kind, machine.labels,
                                               machine.terminals, _LAW_CARRIERS, seed))
    elif isinstance(machine, StrangeCoalgebra):
        reports.append(check_pentagon_kl_logic(MonadKind.POW, Universe(["a"]),
                                               Universe([STAR]), _LAW_CARRIERS, seed,
                                               delta_builder=strange_delta))
    else:
        note = f"no distributive laws apply to {type(machine).__name__}"
    out: dict = {"seed": seed, "laws": [show_law_report(r) for r in reports],
                 "all_hold": all(r.holds for r in reports)}
    if note:
        out["note"] = note
    return out


def _cmd_strategies(options) -> dict:
    machine = _load(options)
    if not isinstance(machine, IOSystem):
        raise MachineFormatError("the strategies command needs an io machine")
    bound = _require_depth(options)
    states = _states_in_scope(machine, options)
    traces = io_traces(machine, bound)
    results = [{"state": x, "plays": show_strategy(traces[x])} for x in states]
    coherence = check_strategy_coalgebra(machine, traces)
    return {"bound": bound, "mode": machine.mode, "results": results,
            "coherence": show_law_report(coherence)}


def strange_pair() -> StrangeCoalgebra:
    """The paper's pair: both states can stop outright; only y can also keep
    running.  Logically equal, trace-distinct; `machines/strange_pair.json`."""
    return StrangeCoalgebra(Universe(["x", "y"]),
                            {"x": pow_value([STAR]), "y": pow_value([STAR, "y"])})


def _cmd_counterexample(options) -> dict:
    depth = 6 if options.get("depth") is None else _require_depth(options)
    machine = strange_pair()
    rep = _compare_report(machine, depth)
    return {"depth": depth, "machine": serialize_machine(machine),
            "logic_by_steps": rep["logic_by_steps"], "trace_sets": rep["trace_sets"],
            "logically_equal_trace_distinct_pairs": rep["collapse_witnesses"],
            "trace_collapse_injective": rep["trace_collapse_injective"]}


def _cmd_determinise(options) -> dict:
    machine = _load(options)
    if isinstance(machine, MooreCoalgebra):
        det = determinise_bt(machine)
        return {"dot": moore_dot(det), "n_subsets": len(det.subsets)}
    if isinstance(machine, IOSystem):
        det = determinise_io(machine)
        return {"dot": io_dot(det), "n_subsets": len(det.subsets)}
    raise MachineFormatError("determinise applies to moore (powerset) or io machines")


_COMMANDS = {
    "semantics": _cmd_semantics,
    "compare": _cmd_compare,
    "laws": _cmd_laws,
    "strategies": _cmd_strategies,
    "counterexample": _cmd_counterexample,
    "determinise": _cmd_determinise,
}


# ---------------------------------------------------------------------------
# DOT emission


def _subset_dot(subsets: list, edges: dict, label=None) -> str:
    """DOT text of a subset machine: a box per subset and an arrow per edge
    `(subset, *move) -> subset`, in the given orders, labelled by the move
    joined with "/".  Each subset is named once, by its states in canonical
    order; `label(subset, name)`, when given, labels its box."""
    names = {u: "{" + ",".join(str(x) for x in sorted(u, key=canon_key)) + "}" for u in subsets}
    lines = ["digraph determinised {", "  rankdir=LR;"]
    for u, name in names.items():
        attrs = "shape=box" if label is None else f'shape=box, label="{label(u, name)}"'
        lines.append(f'  "{name}" [{attrs}];')
    for (u, *move), v in edges.items():
        lines.append(f'  "{names[u]}" -> "{names[v]}" [label="{"/".join(map(str, move))}"];')
    lines.append("}")
    return "\n".join(lines)


def moore_dot(det: DeterminisedMoore) -> str:
    return _subset_dot(det.subsets, det.trans,
                       lambda u, name: f"{name}|{show_value(det.out[u])}")


def io_dot(det) -> str:
    return _subset_dot(det.subsets, det.succ)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="Exact trace semantics, law checking and strategies for finite machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_machine: bool = True, help: str = ""):
        p = sub.add_parser(name, help=help)
        if needs_machine:
            p.add_argument("machine", help="machine JSON file")
        p.add_argument("--depth", type=int, default=None,
                       help="truncation depth / strategy bound")
        p.add_argument("--state", default=None, help="restrict to one state")
        p.add_argument("--engine", choices=["em", "kleisli", "logic", "cia"], default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for sampled law inputs")
        p.add_argument("--out", default=None, help="write the report to this path")
        return p

    add("semantics", help="per-state truncated language for one engine")
    add("compare", help="run all applicable engines and compare")
    add("laws", help="check the distributive laws for this machine's configuration")
    add("strategies", help="partial-trace strategies of an io machine")
    add("counterexample", needs_machine=False,
        help="reproduce the logically-equal but trace-distinct pair")
    add("determinise", help="DOT text of the determinised machine")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        report = run_command(args.command, **options)
    except KernelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.command == "determinise":
        text = report["dot"]
    else:
        text = json.dumps(report, indent=2, ensure_ascii=False)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
