"""Machine-file parsing, command dispatch and report/DOT emission.

Machine files are JSON; rationals travel as "p/q" strings so nothing is ever
rounded.  Reports are JSON too and are byte-identical across runs for the
same (file, command, flags, seed), apart from the timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Any, Optional

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
    Done,
    KernelError,
    MassError,
    Modality,
    MonadKind,
    MonadValue,
    Move,
    Universe,
    canon_key,
    double_pow,
    pow_value,
    sub_dist,
)
from tracekit.languages import TruncatedLanguage, TruncatedTreeLanguage, enumerate_trees
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
from tracekit import zoo

FORMAT_VERSION = 1


class MachineFormatError(KernelError):
    """A machine file is missing fields, ill-typed or semantically invalid."""


# ---------------------------------------------------------------------------
# rational / value (de)serialisation


def parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise MachineFormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
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
    if modality is Modality.EXPECT:
        p = parse_rational(v, where)
        if not 0 <= p <= 1:
            raise MachineFormatError(f"{where}: output {p} outside [0, 1]")
        return p
    if not isinstance(v, bool):
        raise MachineFormatError(f"{where}: expected true/false, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# machine parsing


def _field(doc: dict, name: str, where: str = "machine"):
    if not isinstance(doc, dict):
        raise MachineFormatError(f"{where}: expected an object, got {type(doc).__name__}")
    if name not in doc:
        raise MachineFormatError(f"{where}: missing field {name!r}")
    return doc[name]


def _universe(items, where: str) -> Universe:
    try:
        return Universe(items)
    except KernelError as e:
        raise MachineFormatError(f"{where}: {e}") from None


def _parse_monad(doc: dict) -> MonadKind:
    tag = _field(doc, "monad")
    try:
        return MonadKind(tag)
    except ValueError:
        raise MachineFormatError(f"unknown monad {tag!r}") from None


def _parse_modality(doc: dict) -> Modality:
    tag = _field(doc, "modality")
    try:
        return Modality(tag)
    except ValueError:
        raise MachineFormatError(f"unknown modality {tag!r}") from None


def _parse_branching(kind: MonadKind, raw, states: Universe, where: str) -> MonadValue:
    """A powerset value is a list, a subdistribution a {state: weight} map,
    a double-powerset value a list of lists."""
    if kind is MonadKind.POW:
        if not isinstance(raw, list):
            raise MachineFormatError(f"{where}: expected a list of states")
        return pow_value(_state(states, y, where) for y in raw)
    if kind is MonadKind.SUBDIST:
        if not isinstance(raw, dict):
            raise MachineFormatError(f"{where}: expected a state->weight map")
        try:
            return sub_dist({_state(states, y, where): parse_rational(w, where)
                             for y, w in raw.items()})
        except MassError as e:
            raise MachineFormatError(f"{where}: {e}") from None
    if not isinstance(raw, list) or not all(isinstance(s, list) for s in raw):
        raise MachineFormatError(f"{where}: expected a list of lists of states")
    return double_pow([_state(states, y, where) for y in s] for s in raw)


def _pairs(raw, where: str) -> list:
    """A JSON list whose entries are two-element lists."""
    if not isinstance(raw, list):
        raise MachineFormatError(f"{where}: expected a list of pairs, got {raw!r}")
    for e in raw:
        if not (isinstance(e, list) and len(e) == 2):
            raise MachineFormatError(f"{where}: expected a pair, got {e!r}")
    return raw


def _declared_keys(raw, universe: Universe, where: str, what: str) -> None:
    """Every key of the JSON object `raw` names a member of `universe`;
    a key that names nothing would otherwise be dropped without a word."""
    if isinstance(raw, dict):
        for k in raw:
            if k not in universe:
                raise MachineFormatError(f"{where}: undeclared {what} {k!r}")


def _state(states: Universe, y, where: str):
    if y not in states:
        raise MachineFormatError(f"{where}: undeclared state {y!r}")
    return y


def parse_machine(path: str):
    """Load one machine file, returning the corresponding machine object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise MachineFormatError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise MachineFormatError(f"{path}: expected a JSON object at the top level")
    if doc.get("format") != FORMAT_VERSION:
        raise MachineFormatError(f"{path}: unsupported format {doc.get('format')!r}")
    kind_tag = _field(doc, "kind")
    parser = _MACHINE_PARSERS.get(kind_tag)
    if parser is None:
        raise MachineFormatError(f"{path}: unknown machine kind {kind_tag!r}")
    return parser(doc)


def _parse_moore(doc: dict) -> MooreCoalgebra:
    states = _universe(_field(doc, "states"), "states")
    alphabet = _universe(_field(doc, "alphabet"), "alphabet")
    kind = _parse_monad(doc)
    alg = _parse_modality(doc)
    outputs = _field(doc, "outputs")
    trans_doc = _field(doc, "transitions")
    _declared_keys(outputs, states, "outputs", "state")
    _declared_keys(trans_doc, states, "transitions", "state")
    out = {x: parse_output(_field(outputs, x, "outputs"), alg, f"outputs[{x!r}]")
           for x in states}
    trans = {}
    for x in states:
        row = _field(trans_doc, x, "transitions")
        _declared_keys(row, alphabet, f"transitions[{x!r}]", "letter")
        trans[x] = {}
        for a in alphabet:
            raw = _field(row, a, f"transitions[{x!r}]")
            trans[x][a] = _parse_branching(kind, raw, states, f"transitions[{x!r}][{a!r}]")
    try:
        return MooreCoalgebra(states, alphabet, kind, alg, out, trans)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def _parse_generative_entry(entry, kind_note: str, labels: Universe, states: Universe,
                            terminals: Universe):
    if isinstance(entry, str):
        if entry not in terminals:
            raise MachineFormatError(f"{kind_note}: undeclared terminal {entry!r}")
        return Done(entry)
    if isinstance(entry, list) and len(entry) == 2:
        label, target = entry
        if label not in labels:
            raise MachineFormatError(f"{kind_note}: undeclared label {label!r}")
        return Move(label, _state(states, target, kind_note))
    raise MachineFormatError(f"{kind_note}: bad entry {entry!r}")


def _parse_generative(doc: dict) -> GenerativeCoalgebra:
    states = _universe(_field(doc, "states"), "states")
    labels = _universe(_field(doc, "labels"), "labels")
    terminals = _universe(doc.get("terminals", [CHECK]), "terminals")
    kind = _parse_monad(doc)
    if kind is MonadKind.DOUBLE_POW:
        raise MachineFormatError("generative machines need a monad: pow or subdist")
    trans_doc = _field(doc, "transitions")
    _declared_keys(trans_doc, states, "transitions", "state")
    c = {}
    for x in states:
        raw = _field(trans_doc, x, "transitions")
        where = f"transitions[{x!r}]"
        if kind is MonadKind.POW:
            c[x] = pow_value(_parse_generative_entry(e, where, labels, states, terminals)
                             for e in raw)
        else:
            rows = _pairs(raw, where)
            try:
                c[x] = sub_dist((_parse_generative_entry(e, where, labels, states, terminals),
                                 parse_rational(w, where)) for e, w in rows)
            except MassError as e:
                raise MachineFormatError(f"{where}: {e}") from None
    try:
        return GenerativeCoalgebra(states, labels, kind, c, terminals)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def _parse_tree_node(raw, signature: dict, states: Universe, where: str) -> tuple:
    if not (isinstance(raw, list) and len(raw) == 2 and isinstance(raw[1], list)):
        raise MachineFormatError(f"{where}: bad node {raw!r}")
    sym, kids = raw
    if sym not in signature:
        raise MachineFormatError(f"{where}: undeclared symbol {sym!r}")
    return (sym, tuple(_state(states, y, where) for y in kids))


def _parse_tree(doc: dict) -> TreeCoalgebra:
    states = _universe(_field(doc, "states"), "states")
    signature = _field(doc, "signature")
    if not isinstance(signature, dict):
        raise MachineFormatError("signature: expected a symbol->arity map")
    for s, n in signature.items():
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise MachineFormatError(f"signature[{s!r}]: expected a non-negative integer "
                                     f"arity, got {n!r}")
    kind = _parse_monad(doc)
    alg = _parse_modality(doc)
    trans_doc = _field(doc, "transitions")
    _declared_keys(trans_doc, states, "transitions", "state")
    c = {}
    for x in states:
        raw = _field(trans_doc, x, "transitions")
        where = f"transitions[{x!r}]"
        if kind is MonadKind.POW:
            c[x] = pow_value(_parse_tree_node(n, signature, states, where) for n in raw)
        elif kind is MonadKind.SUBDIST:
            rows = _pairs(raw, where)
            try:
                c[x] = sub_dist((_parse_tree_node(n, signature, states, where),
                                 parse_rational(w, where)) for n, w in rows)
            except MassError as e:
                raise MachineFormatError(f"{where}: {e}") from None
        else:
            c[x] = double_pow([_parse_tree_node(n, signature, states, where) for n in inner]
                              for inner in raw)
    try:
        return TreeCoalgebra(states, signature, kind, alg, c)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def _parse_strange(doc: dict) -> StrangeCoalgebra:
    states = _universe(_field(doc, "states"), "states")
    trans_doc = _field(doc, "transitions")
    _declared_keys(trans_doc, states, "transitions", "state")
    c = {}
    for x in states:
        raw = _field(trans_doc, x, "transitions")
        entries = []
        for e in raw:
            if e == STAR:
                entries.append(STAR)
            else:
                entries.append(_state(states, e, f"transitions[{x!r}]"))
        c[x] = pow_value(entries)
    try:
        return StrangeCoalgebra(states, c)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def _parse_io(doc: dict) -> IOSystem:
    states = _universe(_field(doc, "states"), "states")
    operations = _universe(_field(doc, "operations"), "operations")
    _declared_keys(doc.get("arities"), operations, "arities", "operation")
    arities = {k: _universe(_field(_field(doc, "arities"), k, "arities"), f"arities[{k!r}]")
               for k in operations}
    mode = _field(doc, "mode")
    trans_doc = _field(doc, "transitions")
    _declared_keys(trans_doc, states, "transitions", "state")
    trans: dict = {}
    for x in states:
        raw = _field(trans_doc, x, "transitions")
        where = f"transitions[{x!r}]"
        if mode == "generative":
            entries = []
            for e in raw:
                if not (isinstance(e, list) and len(e) == 2 and isinstance(e[1], list)):
                    raise MachineFormatError(f"{where}: bad transition {e!r}")
                k, targets = e
                if k not in operations:
                    raise MachineFormatError(f"{where}: undeclared operation {k!r}")
                entries.append((k, tuple(_state(states, y, where) for y in targets)))
            trans[x] = frozenset(entries)
        else:
            if not isinstance(raw, dict):
                raise MachineFormatError(f"{where}: expected an operation->answers map")
            _declared_keys(raw, operations, where, "operation")
            trans[x] = {}
            for k in operations:
                row = _pairs(raw.get(k, []), f"{where}[{k!r}]")
                for i, _y in row:
                    if i not in arities[k]:
                        raise MachineFormatError(f"{where}[{k!r}]: undeclared answer {i!r}")
                trans[x][k] = frozenset((i, _state(states, y, where)) for i, y in row)
    try:
        return IOSystem(states, IOSignature(operations, arities), mode, trans)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


def _parse_generalized(doc: dict) -> GeneralizedCoalgebra:
    states = _universe(_field(doc, "states"), "states")
    alphabet = _universe(_field(doc, "alphabet"), "alphabet")
    kind = _parse_monad(doc)
    alg = _parse_modality(doc)
    semantic = doc.get("semantic_states", {})
    outputs = doc.get("outputs", {})
    trans_doc = doc.get("transitions", {})
    for name, raw in (("semantic_states", semantic), ("outputs", outputs),
                      ("transitions", trans_doc)):
        if not isinstance(raw, dict):
            raise MachineFormatError(f"{name}: expected an object, got {type(raw).__name__}")
    _declared_keys(semantic, states, "semantic_states", "state")
    _declared_keys(outputs, states, "outputs", "state")
    _declared_keys(trans_doc, states, "transitions", "state")
    c = {}
    for x in states:
        if x in semantic:
            for name, entries in (("outputs", outputs), ("transitions", trans_doc)):
                if x in entries:
                    raise MachineFormatError(f"{name}[{x!r}]: state is semantic")
            spec = semantic[x]
            where = f"semantic_states[{x!r}]"
            depth = _field(spec, "depth", where)
            if isinstance(depth, bool) or not isinstance(depth, int):
                raise MachineFormatError(f"{where}: expected an integer depth, got {depth!r}")
            table_raw = _field(spec, "table", where)
            table = {}
            for word, value in _pairs(table_raw, f"{where}['table']"):
                if not isinstance(word, list):
                    raise MachineFormatError(f"{where}: expected a word as a list, got {word!r}")
                for a in word:
                    if a not in alphabet:
                        raise MachineFormatError(f"{where}: undeclared letter {a!r}")
                table[tuple(word)] = parse_output(value, alg, where)
            try:
                lang = TruncatedLanguage(alphabet, depth, table)
            except KernelError as e:
                raise MachineFormatError(f"semantic_states[{x!r}]: {e}") from None
            c[x] = ("lang", lang)
        else:
            om = parse_output(_field(outputs, x, "outputs"), alg, f"outputs[{x!r}]")
            row = _field(trans_doc, x, "transitions")
            _declared_keys(row, alphabet, f"transitions[{x!r}]", "letter")
            fam = {a: _parse_branching(kind, _field(row, a, f"transitions[{x!r}]"), states,
                                       f"transitions[{x!r}][{a!r}]")
                   for a in alphabet}
            c[x] = ("node", (om, fam))
    try:
        return GeneralizedCoalgebra(states, alphabet, kind, alg, c)
    except KernelError as e:
        raise MachineFormatError(str(e)) from None


_MACHINE_PARSERS = {
    "moore": _parse_moore,
    "generative": _parse_generative,
    "tree": _parse_tree,
    "strange": _parse_strange,
    "io": _parse_io,
    "generalized": _parse_generalized,
}


# ---------------------------------------------------------------------------
# machine serialisation (round-trip support)


def serialize_machine(machine) -> dict:
    if isinstance(machine, MooreCoalgebra):
        return {
            "format": FORMAT_VERSION,
            "kind": "moore",
            "monad": machine.kind.value,
            "modality": machine.alg.value,
            "states": list(machine.states),
            "alphabet": list(machine.alphabet),
            "outputs": {x: show_value(machine.out[x]) if machine.alg is Modality.EXPECT
                        else machine.out[x] for x in machine.states},
            "transitions": {x: {a: _show_branching(machine.trans[x][a])
                                for a in machine.alphabet}
                            for x in machine.states},
        }
    if isinstance(machine, GenerativeCoalgebra):
        def entry(u):
            return u.terminal if isinstance(u, Done) else [u.label, u.target]
        if machine.kind is MonadKind.POW:
            rows = {x: [entry(u) for u in machine.c[x].payload] for x in machine.states}
        else:
            rows = {x: [[entry(u), show_value(w)] for u, w in machine.c[x].payload]
                    for x in machine.states}
        return {
            "format": FORMAT_VERSION,
            "kind": "generative",
            "monad": machine.kind.value,
            "states": list(machine.states),
            "labels": list(machine.labels),
            "terminals": list(machine.terminals),
            "transitions": rows,
        }
    if isinstance(machine, StrangeCoalgebra):
        return {
            "format": FORMAT_VERSION,
            "kind": "strange",
            "states": list(machine.states),
            "transitions": {x: list(machine.c[x].payload) for x in machine.states},
        }
    if isinstance(machine, TreeCoalgebra):
        def node(u):
            return [u[0], list(u[1])]
        if machine.kind is MonadKind.POW:
            rows = {x: [node(u) for u in machine.c[x].payload] for x in machine.states}
        elif machine.kind is MonadKind.SUBDIST:
            rows = {x: [[node(u), show_value(w)] for u, w in machine.c[x].payload]
                    for x in machine.states}
        else:
            rows = {x: [[node(u) for u in inner] for inner in machine.c[x].payload]
                    for x in machine.states}
        return {
            "format": FORMAT_VERSION,
            "kind": "tree",
            "monad": machine.kind.value,
            "modality": machine.alg.value,
            "states": list(machine.states),
            "signature": dict(machine.signature),
            "transitions": rows,
        }
    if isinstance(machine, IOSystem):
        if machine.mode == "generative":
            rows = {x: sorted(([k, list(targets)] for k, targets in machine.trans[x]),
                              key=repr)
                    for x in machine.states}
        else:
            rows = {x: {k: sorted(([i, y] for i, y in machine.trans[x][k]), key=repr)
                        for k in machine.signature.operations}
                    for x in machine.states}
        return {
            "format": FORMAT_VERSION,
            "kind": "io",
            "mode": machine.mode,
            "states": list(machine.states),
            "operations": list(machine.signature.operations),
            "arities": {k: list(machine.signature.arity[k])
                        for k in machine.signature.operations},
            "transitions": rows,
        }
    if isinstance(machine, GeneralizedCoalgebra):
        outputs = {}
        transitions = {}
        semantic = {}
        expect = machine.alg is Modality.EXPECT
        for x in machine.states:
            tag, body = machine.c[x]
            if tag == "lang":
                semantic[x] = {
                    "depth": body.depth,
                    "table": [[list(w), show_value(v) if expect else v]
                              for w, v in body.items()],
                }
            else:
                om, fam = body
                outputs[x] = show_value(om) if expect else om
                transitions[x] = {a: _show_branching(fam[a]) for a in machine.alphabet}
        return {
            "format": FORMAT_VERSION,
            "kind": "generalized",
            "monad": machine.kind.value,
            "modality": machine.alg.value,
            "states": list(machine.states),
            "alphabet": list(machine.alphabet),
            "outputs": outputs,
            "transitions": transitions,
            "semantic_states": semantic,
        }
    raise MachineFormatError(f"cannot serialise {type(machine).__name__}")


def _show_branching(mv: MonadValue):
    if mv.kind is MonadKind.POW:
        return list(mv.payload)
    if mv.kind is MonadKind.SUBDIST:
        return {x: show_value(w) for x, w in mv.payload}
    return [list(s) for s in mv.payload]


# ---------------------------------------------------------------------------
# report building blocks


def show_language(lang: TruncatedLanguage) -> list:
    """The table as [word, value] pairs; a boolean is printed as it is, any
    other value by `show_value`."""
    return [[list(w), v if type(v) is bool else show_value(v)] for w, v in lang.items()]


def show_trace_set(ts) -> list:
    if ts.kind is MonadKind.POW:
        return [[list(w), s] for w, s in ts.payload.elements]
    return [[list(w), s, show_value(m)] for (w, s), m in ts.payload.payload]


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
        return {x: {"language": show_language(langs[x])} for x in states}
    if isinstance(machine, GenerativeCoalgebra) and engine == "kleisli":
        traces = kleisli_traces(machine, depth)
        out = {}
        for x in states:
            out[x] = {"traces": show_trace_set(traces[x])}
            if machine.kind is MonadKind.SUBDIST:
                out[x]["retained_mass"] = show_value(traces[x].retained_mass())
        return out
    if isinstance(machine, TreeCoalgebra) and engine == "logic":
        out = {}
        for x in states:
            lang = TruncatedTreeLanguage.tabulate(machine.signature, max(depth, 1),
                                                  lambda t: logic_eval_tree(machine, x, t))
            out[x] = {"tree_language": [[repr(t), lang.table[t]]
                                        for t in enumerate_trees(machine.signature, lang.depth)]}
        return out
    if isinstance(machine, StrangeCoalgebra) and engine == "logic":
        tables = logic_eval_strange(machine, depth)
        return {x: {"by_steps": list(tables[x])} for x in states}
    raise MachineFormatError(
        f"engine {engine!r} does not apply to {type(machine).__name__}")


def _cmd_compare(options) -> dict:
    machine = _load(options)
    depth = _require_depth(options)
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
        out["languages"] = {
            engine: [{"state": x, "language": show_language(rep.languages[engine][x])}
                     for x in sorted(rep.languages[engine], key=canon_key)]
            for engine in rep.engines if engine in rep.languages
        }
    else:
        out["logic_by_steps"] = {x: list(rep.languages["logic"][x])
                                 for x in sorted(rep.languages["logic"], key=canon_key)}
    if rep.trace_sets:
        out["trace_sets"] = [{"state": x, "traces": show_trace_set(rep.trace_sets[x])}
                             for x in sorted(rep.trace_sets, key=canon_key)]
    if rep.retained_mass:
        out["retained_mass"] = {x: show_value(m) for x, m in rep.retained_mass.items()}
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
    results = [{"state": x, "plays": show_strategy(io_traces(machine, x, bound))}
               for x in _states_in_scope(machine, options)]
    coherence = check_strategy_coalgebra(machine, bound)
    return {"bound": bound, "mode": machine.mode, "results": results,
            "coherence": show_law_report(coherence)}


def _cmd_counterexample(options) -> dict:
    depth = 6 if options.get("depth") is None else _require_depth(options)
    machine = zoo.strange_pair()
    rep = compare_semantics(machine, depth)
    return {
        "depth": depth,
        "machine": serialize_machine(machine),
        "logic_by_steps": {x: list(rep.languages["logic"][x]) for x in machine.states},
        "trace_sets": [{"state": x, "traces": show_trace_set(rep.trace_sets[x])}
                       for x in machine.states],
        "logically_equal_trace_distinct_pairs": [list(p) for p in rep.collapse_witnesses],
        "trace_collapse_injective": rep.collapse_injective,
    }


def _cmd_determinise(options) -> dict:
    machine = _load(options)
    if isinstance(machine, MooreCoalgebra):
        det = determinise_bt(machine)
        dot = moore_dot(det)
        return {"dot": dot, "n_subsets": len(det.subsets)}
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


def _subset_name(u: frozenset) -> str:
    return "{" + ",".join(str(x) for x in sorted(u, key=canon_key)) + "}"


def moore_dot(det: DeterminisedMoore) -> str:
    lines = ["digraph determinised {", "  rankdir=LR;"]
    for u in det.subsets:
        label = f"{_subset_name(u)}|{show_value(det.out[u])}"
        lines.append(f'  "{_subset_name(u)}" [shape=box, label="{label}"];')
    for u in det.subsets:
        for a in det.alphabet:
            v = det.trans[(u, a)]
            lines.append(f'  "{_subset_name(u)}" -> "{_subset_name(v)}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)


def io_dot(det) -> str:
    lines = ["digraph determinised {", "  rankdir=LR;"]
    for u in det.subsets:
        lines.append(f'  "{_subset_name(u)}" [shape=box];')
    for u in det.subsets:
        for k in sorted(det.init[u], key=canon_key):
            for i in det.signature.answers(k):
                v = det.succ[(u, k, i)]
                lines.append(f'  "{_subset_name(u)}" -> "{_subset_name(v)}" '
                             f'[label="{k}/{i}"];')
    lines.append("}")
    return "\n".join(lines)


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
        p.add_argument("--dot", action="store_true",
                       help="print DOT text instead of the JSON report")
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
    if args.command == "determinise" or args.dot:
        text = report.get("dot")
        if text is None:
            print("error: no DOT output for this command", file=sys.stderr)
            return 2
    else:
        text = json.dumps(report, indent=2, ensure_ascii=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
