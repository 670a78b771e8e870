"""Machine-file parsing, report determinism, command behaviour, DOT output."""

import glob
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests import gen, oracles
from tests.fixtures import load
from tracekit import cli, engines, languages, strategies
from tracekit.cli import (
    MachineFormatError,
    main,
    parse_machine,
    run_command,
    serialize_machine,
    strange_pair,
)
from tracekit.engines import GenerativeCoalgebra, MooreCoalgebra, compare_semantics
from tracekit.kernel import (
    CHECK,
    Done,
    KernelError,
    Modality,
    MonadKind,
    Move,
    Universe,
    pow_value,
    sub_dist,
)

FIXTURES = "machines"
ROOT = Path(__file__).resolve().parent.parent


def _strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing_s"}


# ---------------------------------------------------------------------------
# parsing


def test_parse_moore_fixture():
    m = parse_machine(f"{FIXTURES}/nda_exists.json")
    assert isinstance(m, MooreCoalgebra)
    assert len(m.states) == 2


def test_parse_every_fixture():
    for path in sorted(glob.glob(f"{FIXTURES}/*.json")):
        parse_machine(path)


def test_parse_rejects_excess_mass(tmp_path):
    doc = json.loads(open(f"{FIXTURES}/pa_chain.json").read())
    doc["transitions"]["u"]["a"] = {"u": "3/2"}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MachineFormatError, match="mass"):
        parse_machine(str(p))


def test_parse_rejects_undeclared_state(tmp_path):
    doc = json.loads(open(f"{FIXTURES}/nda_exists.json").read())
    doc["transitions"]["q0"]["a"] = ["q0", "ghost"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MachineFormatError, match="ghost"):
        parse_machine(str(p))


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"format": 1,\n  "kind": }')
    with pytest.raises(MachineFormatError, match="line 2"):
        parse_machine(str(p))


#: edits that leave no file, or a directory, where the machine file should be
MISSING, DIRECTORY = object(), object()

#: fixture, in-place edit (or replacement document, raw text or bytes, or MISSING or
#: DIRECTORY), location the error must name
MALFORMED = [
    ("tree_fc", lambda d: d["signature"].update(c="zero"), "signature['c']"),
    ("tree_fc", lambda d: d["signature"].update(c="2"), "signature['c']"),
    ("io_reactive", lambda d: d["transitions"].update(s0=[["k", [["0", "s1"]]]]),
     "transitions['s0']"),
    ("nda_exists", lambda d: [d], "top level"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"].update(depth="x"),
     "semantic_states['sL']: expected an integer depth"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"].update(depth="2"),
     "semantic_states['sL']: expected an integer depth"),
    ("generalized_lookup", lambda d: d["semantic_states"].update(sL=[]),
     "semantic_states['sL']: expected an object"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"]["table"].append([["z"], True]),
     "semantic_states['sL']: undeclared letter 'z'"),
    ("io_reactive", lambda d: d["transitions"]["s0"].update(k=[["0"]]),
     "transitions['s0']['k']: expected a pair"),
    ("io_reactive", lambda d: d["transitions"]["s0"].update(k=[[["0"], "s1"]]),
     "transitions['s0']['k']: undeclared answer"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"]["table"].append([["a"]]),
     "semantic_states['sL']['table']: expected a pair"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"]["table"].append(5),
     "semantic_states['sL']['table']: expected a pair"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"]["table"].append([5, True]),
     "semantic_states['sL']: expected a word as a list"),
    ("generative_half", lambda d: d["transitions"]["p"].append("✓"),
     "transitions['p']: expected a pair"),
    ("tree_fc", lambda d: d.update(monad="subdist", modality="expect",
                                   transitions={"x": ["c"], "y": ["c"]}),
     "transitions['x']: expected a pair"),
    ("generative_half", lambda d: d["transitions"]["p"][0].__setitem__(0, ["z", "q"]),
     "transitions['p']: undeclared label 'z'"),
    ("tree_fc", lambda d: d.update(monad="subdist", modality="expect",
                                   transitions={"x": [[["z", []], "1"]], "y": []}),
     "transitions['x']: undeclared symbol 'z'"),
    ("pa_chain", lambda d: d["transitions"]["u"].update(a={"ghost": "1/2"}),
     "transitions['u']['a']: undeclared state 'ghost'"),
    ("io_self_loop", lambda d: d["transitions"].update(s=[[["k"], ["s", "s"]]]),
     "transitions['s']: undeclared operation ['k']"),
    ("generalized_lookup", lambda d: _expect_lookup(d, "3"),
     "semantic_states['sL']: output 3 outside [0, 1]"),
    ("generalized_lookup", lambda d: _expect_lookup(d, "-1"),
     "semantic_states['sL']: output -1 outside [0, 1]"),
    ("io_reactive", lambda d: d["transitions"]["s0"].update(z=[["0", "s0"]]),
     "transitions['s0']: undeclared operation 'z'"),
    ("io_reactive", lambda d: d["arities"].update(z=["0"]), "arities: undeclared operation 'z'"),
    ("generalized_lookup",
     lambda d: d["semantic_states"].update(ghost={"depth": 0, "table": [[[], True]]}),
     "semantic_states: undeclared state 'ghost'"),
    ("generalized_lookup", lambda d: d["outputs"].update(ghost=False),
     "outputs: undeclared state 'ghost'"),
    ("generalized_lookup", lambda d: d["transitions"].update(ghost={"a": [], "b": []}),
     "transitions: undeclared state 'ghost'"),
    ("generalized_lookup", lambda d: d["transitions"]["s0"].update(z=[]),
     "transitions['s0']: undeclared letter 'z'"),
    ("nda_exists", lambda d: d["outputs"].update(ghost=True), "outputs: undeclared state 'ghost'"),
    ("nda_exists", lambda d: d["transitions"].update(ghost={"a": [], "b": []}),
     "transitions: undeclared state 'ghost'"),
    ("nda_exists", lambda d: d["transitions"]["q0"].update(z=[]),
     "transitions['q0']: undeclared letter 'z'"),
    ("generative_ab", lambda d: d["transitions"].update(ghost=[]),
     "transitions: undeclared state 'ghost'"),
    ("tree_fc", lambda d: d["transitions"].update(ghost=[]),
     "transitions: undeclared state 'ghost'"),
    ("strange_pair", lambda d: d["transitions"].update(ghost=[]),
     "transitions: undeclared state 'ghost'"),
    ("io_self_loop", lambda d: d["transitions"].update(ghost=[]),
     "transitions: undeclared state 'ghost'"),
    ("generalized_lookup", lambda d: d["outputs"].update(sL=True),
     "outputs['sL']: state is semantic"),
    ("generalized_lookup", lambda d: d["transitions"].update(sL={"a": ["s0"], "b": []}),
     "transitions['sL']: state is semantic"),
    ("generalized_lookup", lambda d: d.update(semantic_states="sL"),
     "semantic_states: expected an object"),
    ("nda_exists", lambda d: d.update(states=5), "states: expected a list of strings"),
    ("nda_exists", lambda d: d.update(states=[["q0"], "q1"]),
     "states: expected a list of strings"),
    ("nda_exists", lambda d: d.update(kind=["moore"]), "kind: expected one of"),
    ("generative_ab", lambda d: d.update(terminals=5), "terminals: expected a list of strings"),
    ("generative_ab", lambda d: d["transitions"].update(p=5), "transitions['p']: expected a list"),
    ("tree_fc", lambda d: d["transitions"].update(x=5), "transitions['x']: expected a list"),
    ("strange_pair", lambda d: d["transitions"].update(x=5), "transitions['x']: expected a list"),
    ("io_self_loop", lambda d: d["transitions"].update(s=5), "transitions['s']: expected a list"),
    ("tree_fc", lambda d: d["transitions"].update(x=[[["f"], ["y", "y"]]]),
     "transitions['x']: undeclared symbol ['f']"),
    ("io_reactive", lambda d: d["arities"].update(k=[["0"]]),
     "arities['k']: expected a list of strings"),
    ("nda_exists", lambda d: d.update(alphabet="ab"), "alphabet: expected a list of strings"),
    ("nda_exists", lambda d: json.dumps(d).replace('"q1": true', '"q1": true, "q1": false'),
     "outputs: duplicate key 'q1'"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"]["table"].append([["b"], True]),
     "semantic_states['sL']: word ['b'] listed twice"),
    ("generalized_lookup", lambda d: d["semantic_states"]["sL"].update(depth=1_000_000),
     "semantic_states['sL']: more than 20000 words"),
    ("nda_exists", lambda d: MISSING, "bad.json: cannot read the file"),
    ("nda_exists", lambda d: DIRECTORY, "bad.json: cannot read the file"),
    ("nda_exists", lambda d: json.dumps(d).replace("q0", "qé").encode("latin-1"),
     "bad.json: not UTF-8 text"),
    ("pa_chain", lambda d: d["transitions"]["u"]["a"].update(v="1e-3"),
     "transitions['u']['a']['v']: bad rational '1e-3'"),
    ("pa_chain", lambda d: d["outputs"].update(u="0.5"), "outputs['u']: bad rational '0.5'"),
    ("pa_chain", lambda d: d["transitions"]["v"]["a"].update(v=" 1 "),
     "transitions['v']['a']['v']: bad rational ' 1 '"),
    ("io_self_loop", lambda d: d["transitions"].update(s=[["k", ["s"]]]),
     "transitions['s']: operation 'k' must list 2 continuations"),
    ("tree_fc", lambda d: d["signature"].update(f=1),
     "transitions['x']: arity mismatch at 'f'"),
    ("alternating", lambda d: d.update(modality="join"),
     "modality: join does not evaluate doublepow"),
    ("nda_exists", lambda d: d["outputs"].update(q0=1),
     "outputs['q0']: output 1 is not a boolean"),
    ("pa_chain", lambda d: d["outputs"].update(u="3/2"),
     "outputs['u']: output 3/2 outside [0, 1]"),
]


def _expect_lookup(doc: dict, value: str) -> None:
    """`generalized_lookup` as an expectation machine whose semantic state
    answers `value` on the empty word."""
    doc.update(monad="subdist", modality="expect", outputs={"s0": "0"},
               transitions={"s0": {"a": {"sL": "1"}, "b": {}}},
               semantic_states={"sL": {"depth": 0, "table": [[[], value]]}})


@pytest.mark.parametrize("fixture, edit, location", MALFORMED,
                         ids=["arity-not-int", "arity-string", "reactive-row-list",
                              "top-level-array", "depth-not-int", "depth-string",
                              "semantic-state-not-object", "undeclared-letter",
                              "reactive-entry-not-pair", "reactive-answer-list",
                              "semantic-entry-not-pair", "semantic-entry-number",
                              "semantic-word-number",
                              "generative-entry-not-pair", "tree-entry-not-pair",
                              "generative-subdist-label", "tree-subdist-symbol",
                              "moore-subdist-state", "generative-io-operation-list",
                              "semantic-value-above-one", "semantic-value-negative",
                              "reactive-row-operation", "arities-operation",
                              "generalized-semantic-state", "generalized-output-state",
                              "generalized-row-state", "generalized-row-letter",
                              "moore-output-state", "moore-row-state", "moore-row-letter",
                              "generative-row-state", "tree-row-state", "strange-row-state",
                              "io-row-state", "semantic-state-output",
                              "semantic-state-row", "semantic-states-not-object",
                              "states-not-list", "state-not-name", "kind-list",
                              "terminals-not-list", "generative-row-number",
                              "tree-row-number", "strange-row-number", "io-row-number",
                              "tree-symbol-list", "arity-answer-list", "alphabet-string",
                              "duplicate-key", "semantic-word-twice", "semantic-depth-huge",
                              "missing-file", "directory", "not-utf8",
                              "rational-exponent", "rational-decimal", "rational-padded",
                              "io-continuation-count", "tree-arity", "modality-kind",
                              "moore-output-number", "expect-output-above-one"])
def test_malformed_file_names_the_field(fixture, edit, location, tmp_path, capsys):
    doc = json.loads(open(f"{FIXTURES}/{fixture}.json").read())
    doc = edit(doc) or doc
    p = tmp_path / "bad.json"
    if doc is DIRECTORY:
        p.mkdir()
    elif isinstance(doc, bytes):
        p.write_bytes(doc)
    elif isinstance(doc, str):
        p.write_text(doc)
    elif doc is not MISSING:
        p.write_text(json.dumps(doc))
    with pytest.raises(MachineFormatError, match=re.escape(location)) as err:
        parse_machine(str(p))
    field = location.split(": ")[0]
    assert str(err.value).count(field) == 1, "the location is named more than once"
    assert main(["semantics", str(p), "--depth", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_counterexample_machine_is_the_strange_pair_fixture():
    assert strange_pair() == load("strange_pair")


def test_round_trip_idempotent(tmp_path):
    for path in sorted(glob.glob(f"{FIXTURES}/*.json")):
        m = parse_machine(path)
        doc = serialize_machine(m)
        p = tmp_path / "roundtrip.json"
        p.write_text(json.dumps(doc, ensure_ascii=False))
        m2 = parse_machine(str(p))
        assert serialize_machine(m2) == doc, path


#: every kind of machine `tests/gen.py` builds, as a function of the seed
GENERATED = {
    **{f"moore-{c}": (lambda s, c=c: gen.random_moore(s, c)) for c in gen.CONFIGS},
    "alternating": gen.random_alternating,
    **{f"generative-{k.value}": (lambda s, k=k: gen.random_generative(s, k))
       for k in (MonadKind.POW, MonadKind.SUBDIST)},
    "tree": gen.random_tree_automaton,
    **{f"tree-{alg.value}": (lambda s, alg=alg: gen.random_tree_automaton(s, alg))
       for alg in (Modality.MEET, Modality.EXPECT, Modality.JOIN_MEET)},
    "strange": gen.random_strange,
    **{f"io-{mode}": (lambda s, mode=mode: gen.random_io_system(s, mode))
       for mode in ("generative", "reactive")},
    **{f"generalized-{c}": (lambda s, c=c: gen.random_generalized(s, c, 2))
       for c in gen.CONFIGS},
}


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_parse_inverts_serialise_on_generated_machines(kind, tmp_path):
    p = tmp_path / "machine.json"
    for seed in range(40):
        machine = GENERATED[kind](seed)
        doc = serialize_machine(machine)
        p.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        back = parse_machine(str(p))
        assert back == machine, seed
        assert serialize_machine(back) == doc, seed


#: names and values that occur in the fixtures, so that mutations stay close to valid files
_TOKENS = ["q0", "q1", "a", "b", "x", "y", "s", "s0", "sL", "k", "0", "1", "1/2", "3/2", "✓",
           "*", "c", "f", "pow", "subdist", "doublepow", "join", "expect", "generative",
           "reactive", "moore", "tree", "depth", "table"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.sampled_from([-1, 0, 1, 2, 1_000_000, *_TOKENS]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_TOKENS), inner, max_size=3),
    max_leaves=6)


#: the locations a machine file error may start with: the file's fields, or the whole machine
_FIELDS = {"machine", "kind"} | {name for kind in cli._KINDS.values() for name, _ in kind.fields}


def _mutate(node, data):
    """`node` with one value somewhere inside it replaced, dropped or added."""
    children = list(node) if isinstance(node, dict) else range(len(node)) \
        if isinstance(node, list) else []
    if children and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(children))
        node[key] = _mutate(node[key], data)
        return node
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "drop" and children:
        del node[data.draw(st.sampled_from(children))]
    elif action == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(_TOKENS))] = data.draw(_JSON)
    elif action == "add" and isinstance(node, list):
        node.append(data.draw(_JSON))
    else:
        return data.draw(_JSON)
    return node


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_parses_or_fails_with_machine_format_error(data, tmp_path):
    name = data.draw(st.sampled_from(FIXTURE_NAMES))
    doc = json.loads((ROOT / FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    try:
        parse_machine(str(p))
    except MachineFormatError as e:
        field = re.match(r"(\w+)(\[|: )", str(e))
        assert str(e).startswith(f"{p}: ") or field and field[1] in _FIELDS, str(e)


def test_semantic_table_is_kept_in_word_order(tmp_path):
    path = f"{FIXTURES}/generalized_lookup.json"
    doc = json.loads(open(path).read())
    doc["semantic_states"]["sL"]["table"].reverse()
    p = tmp_path / "reversed.json"
    p.write_text(json.dumps(doc))
    assert serialize_machine(parse_machine(str(p))) == serialize_machine(parse_machine(path))


# ---------------------------------------------------------------------------
# commands


def test_semantics_each_engine():
    for engine in ["em", "logic"]:
        rep = run_command("semantics", machine=f"{FIXTURES}/nda_exists.json",
                          depth=2, engine=engine)
        assert rep["engine"] == engine
        langs = {r["state"]: dict((tuple(w), v) for w, v in r["language"])
                 for r in rep["results"]}
        assert langs["q0"][("a",)] is True
    rep = run_command("semantics", machine=f"{FIXTURES}/generative_ab.json",
                      depth=2, engine="kleisli", state="p")
    assert rep["results"][0]["traces"] == [[["a"], "✓"], [["a", "a"], "✓"], [["a", "b"], "✓"]]


def test_semantics_engine_mismatch():
    with pytest.raises(MachineFormatError):
        run_command("semantics", machine=f"{FIXTURES}/nda_exists.json",
                    depth=2, engine="kleisli")


def test_semantics_requires_depth():
    with pytest.raises(MachineFormatError, match="--depth"):
        run_command("semantics", machine=f"{FIXTURES}/nda_exists.json")


def test_semantics_of_a_machine_with_no_states_is_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "format": 1, "kind": "moore", "monad": "doublepow", "modality": "joinmeet",
        "states": [], "alphabet": ["a"], "outputs": {}, "transitions": {}}))
    for engine in ("em", "logic"):
        rep = run_command("semantics", machine=str(path), depth=2, engine=engine)
        assert rep["results"] == []
    assert run_command("compare", machine=str(path), depth=2)["verdicts"] == []


def test_semantics_cia_and_tree_and_strange():
    rep = run_command("semantics", machine=f"{FIXTURES}/generalized_lookup.json",
                      depth=2, engine="cia", state="s0")
    lang = dict((tuple(w), v) for w, v in rep["results"][0]["language"])
    assert lang[("a", "b")] is True
    rep = run_command("semantics", machine=f"{FIXTURES}/tree_fc.json", depth=2,
                      state="x")
    assert rep["engine"] == "logic"
    rep = run_command("semantics", machine=f"{FIXTURES}/strange_pair.json", depth=3)
    assert rep["results"][0]["by_steps"] == [True, True, True, True]


FIXTURE_NAMES = sorted(p.rsplit("/", 1)[-1][:-5] for p in glob.glob(f"{FIXTURES}/*.json"))


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
@pytest.mark.parametrize("engine", [None, "em", "kleisli", "logic", "cia"])
def test_semantics_state_scope_picks_the_whole_machine_entry(fixture, engine):
    path = f"{FIXTURES}/{fixture}.json"
    states = list(parse_machine(path).states)
    try:
        whole = run_command("semantics", machine=path, depth=2, engine=engine)
    except KernelError as e:  # the engine does not apply to this machine
        for x in states:
            with pytest.raises(type(e), match=re.escape(str(e))):
                run_command("semantics", machine=path, depth=2, engine=engine, state=x)
        return
    by_state = {r["state"]: r for r in whole["results"]}
    assert list(by_state) == states
    for x in states:
        one = run_command("semantics", machine=path, depth=2, engine=engine, state=x)
        assert one["results"] == [by_state[x]]


def test_semantics_state_scope_needs_only_that_states_depth():
    # sL answers words up to length 2; s0 reaches it after one letter
    path = f"{FIXTURES}/generalized_lookup.json"
    with pytest.raises(KernelError, match="cannot answer"):
        run_command("semantics", machine=path, depth=3)
    rep = run_command("semantics", machine=path, depth=3, state="s0")
    assert len(rep["results"][0]["language"]) == 15


def _count_calls(monkeypatch, name: str, modules=(engines,)) -> list:
    """Record every call of `name` made through any of `modules`."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _ring(n: int, kind: str):
    """An n-state machine over {a, b}: `a` steps round a ring, `b` back to s0."""
    states = Universe([f"s{i}" for i in range(n)])
    nxt = {x: f"s{(i + 1) % n}" for i, x in enumerate(states)}
    if kind == "generative":
        return GenerativeCoalgebra(states, Universe(["a", "b"]), MonadKind.SUBDIST, {
            x: sub_dist({Move("a", nxt[x]): F(1, 2), Move("b", "s0"): F(1, 4),
                         Done(CHECK): F(1, 4)}) for x in states})
    return MooreCoalgebra(states, Universe(["a", "b"]), MonadKind.POW, Modality.JOIN,
                          {x: i % 3 == 0 for i, x in enumerate(states)},
                          {x: {"a": pow_value([nxt[x], x]), "b": pow_value(["s0"])}
                           for x in states})


def test_word_lists_per_command_do_not_grow_with_the_states(monkeypatch, tmp_path):
    # engines hand over columns in `enumerate_words` order and check them by
    # length: no word list is built per state
    calls = _count_calls(monkeypatch, "enumerate_words", (languages, engines, cli))
    counts: dict = {}
    for kind in ("generative", "moore"):
        for n in (1, 2, 4, 8):
            path = tmp_path / f"{kind}{n}.json"
            path.write_text(json.dumps(serialize_machine(_ring(n, kind))))
            for command, engine in (("compare", None), ("semantics", "em"),
                                    ("semantics", "logic")):
                calls.clear()
                run_command(command, machine=str(path), depth=4, engine=engine)
                counts.setdefault((kind, command, engine), set()).add(len(calls))
    assert all(len(c) == 1 for c in counts.values()), counts
    assert max(max(c) for c in counts.values()) <= 2, counts  # the engine's and the report's


def test_one_chain_and_one_memo_per_machine(monkeypatch):
    chains = _count_calls(monkeypatch, "_trace_deltas")
    iterates = _count_calls(monkeypatch, "kleisli_iterates")
    passes = _count_calls(monkeypatch, "_suffix_pass")
    half = F(1, 2)
    g = GenerativeCoalgebra(
        Universe(["p", "q", "r"]), Universe(["a", "b"]), MonadKind.SUBDIST,
        {"p": sub_dist({Move("a", "q"): half, Move("b", "r"): half}),
         "q": sub_dist({Move("a", "r"): half, Done(CHECK): half}),
         "r": sub_dist({Move("b", "p"): half, Done(CHECK): F(1, 4)})})
    assert compare_semantics(g, 3).all_equal
    assert (len(chains), len(passes)) == (1, 1)
    run_command("counterexample")
    assert len(chains) == 2
    run_command("semantics", machine=f"{FIXTURES}/generative_ab.json", depth=3,
                engine="kleisli")
    assert len(chains) == 3
    run_command("semantics", machine=f"{FIXTURES}/nda_exists.json", depth=3, engine="logic")
    assert len(passes) == 2
    assert iterates == []


def test_moore_compare_builds_no_monad_values(monkeypatch):
    binds = _count_calls(monkeypatch, "monad_bind")
    dists = _count_calls(monkeypatch, "sub_dist")
    maps = _count_calls(monkeypatch, "algebra_map")
    assert compare_semantics(parse_machine(f"{FIXTURES}/pa_chain.json"), 6).all_equal
    assert compare_semantics(gen.random_moore(3, "pa"), 5).all_equal
    assert (len(binds), len(dists), len(maps)) == (0, 0, 0)
    for config in ("nda-exists", "nda-forall"):
        assert compare_semantics(gen.random_moore(3, config), 5).all_equal
    assert compare_semantics(parse_machine(f"{FIXTURES}/nda_exists.json"), 5).all_equal
    assert len(binds) == 0


def test_powerset_moore_compare_calls_no_algebra_map(monkeypatch):
    maps = _count_calls(monkeypatch, "algebra_map")
    for config in ("nda-exists", "nda-forall"):
        assert compare_semantics(gen.random_moore(3, config), 5).all_equal
    for name in ("nda_exists", "alternating"):
        assert compare_semantics(parse_machine(f"{FIXTURES}/{name}.json"), 5).all_equal
    assert compare_semantics(gen.random_alternating(3), 5).all_equal
    assert len(maps) == 0


@pytest.mark.parametrize("argv", [
    ["semantics", f"{FIXTURES}/nda_exists.json"],
    ["semantics", f"{FIXTURES}/generative_ab.json", "--engine", "kleisli"],
    ["semantics", f"{FIXTURES}/strange_pair.json"],
    ["compare", f"{FIXTURES}/generative_ab.json"],
    ["compare", f"{FIXTURES}/strange_pair.json"],
    ["strategies", f"{FIXTURES}/io_self_loop.json"],
    ["counterexample"],
], ids=lambda argv: "-".join(a.rsplit("/", 1)[-1] for a in argv))
def test_negative_depth_is_rejected(argv, capsys):
    assert main(argv + ["--depth", "-2"]) == 2
    assert capsys.readouterr().err.startswith("error: --depth must be >= 0")


def _cli(*argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """`tracekit` run as a child process from the repository root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "tracekit.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def test_tree_semantics_beyond_the_budget_fails_fast():
    # trees up to height 6 over tree_fc's signature number 677 ** 2 + 1; the
    # budget is checked on that count, before the layer is built
    assert all(len(r["tree_language"]) == 677 for r in run_command(
        "semantics", machine=f"{FIXTURES}/tree_fc.json", depth=5)["results"])
    done = _cli("semantics", f"{FIXTURES}/tree_fc.json", "--depth", "6")
    assert done.returncode == 2 and done.stdout == ""
    assert re.fullmatch(r"error: \d+ trees exceeds guard 20000\n", done.stderr)


#: `bench/generate.py`'s `tree(rng, 4)`, drawn from `random.Random(1)` after `tree(rng, 2)`
SHARED_SUBTREES = {
    "format": 1, "kind": "tree", "monad": "pow", "modality": "join",
    "states": ["s0", "s1", "s2", "s3"], "signature": {"c": 0, "f": 2},
    "transitions": {
        "s0": [["f", ["s0", "s2"]], ["f", ["s1", "s1"]], ["f", ["s2", "s0"]],
               ["f", ["s2", "s1"]], ["f", ["s3", "s0"]], ["f", ["s3", "s1"]],
               ["f", ["s3", "s3"]]],
        "s1": [["c", []], ["f", ["s0", "s2"]], ["f", ["s0", "s3"]], ["f", ["s1", "s0"]],
               ["f", ["s1", "s2"]], ["f", ["s1", "s3"]], ["f", ["s2", "s3"]],
               ["f", ["s3", "s2"]], ["f", ["s3", "s3"]]],
        "s2": [["f", ["s1", "s1"]], ["f", ["s2", "s3"]], ["f", ["s3", "s0"]],
               ["f", ["s3", "s3"]]],
        "s3": [["f", ["s0", "s2"]], ["f", ["s1", "s3"]], ["f", ["s2", "s1"]],
               ["f", ["s2", "s2"]], ["f", ["s3", "s2"]], ["f", ["s3", "s3"]]]}}


def test_tree_semantics_evaluates_each_subtree_once(tmp_path):
    # 677 trees up to height 5 on 4 states: evaluated one (state, tree) pair
    # at a time, without sharing subtrees, they take over a minute
    path = _write_machine(tmp_path / "shared.json", SHARED_SUBTREES)
    done = _cli("semantics", path, "--depth", "5", timeout=10)
    assert done.returncode == 0, done.stderr
    assert [len(r["tree_language"]) for r in json.loads(done.stdout)["results"]] == [677] * 4


@pytest.mark.parametrize("depth", [150, 631, 632])
def test_unary_trees_stop_at_the_node_budget(tmp_path, depth):
    # x -> c | g(x) accepts every tree; the trees up to height d hold
    # d * (d + 1) / 2 nodes: 199,396 at height 631, 200,028 at 632.  Neither
    # the engine nor the tree names recurse on a tree.
    path = _write_machine(tmp_path / "unary.json", {
        "format": 1, "kind": "tree", "monad": "pow", "modality": "join", "states": ["x"],
        "signature": {"c": 0, "g": 1}, "transitions": {"x": [["c", []], ["g", ["x"]]]}})
    done = _cli("semantics", path, "--depth", str(depth))
    assert "Traceback" not in done.stderr
    if depth > 631:
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: more than 200000 nodes in the trees up to height 632\n"
        return
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["results"][0]["tree_language"]
    assert len(rows) == depth
    assert rows[-1] == ["g(" * (depth - 1) + "c" + ")" * (depth - 1), True]


def test_counterexample_depth_defaults_only_when_absent():
    assert run_command("counterexample")["depth"] == 6
    rep = run_command("counterexample", depth=0)
    assert rep["depth"] == 0
    assert rep["logic_by_steps"] == {"x": [True], "y": [True]}


def test_compare_command():
    rep = run_command("compare", machine=f"{FIXTURES}/generative_ab.json", depth=3)
    assert rep["all_equal"] is True
    assert rep["trace_collapse_injective"] is True
    rep = run_command("compare", machine=f"{FIXTURES}/generative_half.json", depth=2)
    assert rep["all_equal"] is True
    assert rep["retained_mass"]["p"] == "7/8"


def test_laws_command_moore():
    rep = run_command("laws", machine=f"{FIXTURES}/nda_exists.json")
    assert rep["all_hold"] is True
    assert {r["law"] for r in rep["laws"]} == {"em_law", "pentagon_em_logic"}


def test_laws_command_generative():
    rep = run_command("laws", machine=f"{FIXTURES}/generative_ab.json")
    assert rep["all_hold"] is True
    assert {r["law"] for r in rep["laws"]} == {
        "kl_law", "extension_square", "extension_requirement", "pentagon_kl_logic"}


def test_laws_command_subdist_requires_seed():
    with pytest.raises(MachineFormatError, match="--seed"):
        run_command("laws", machine=f"{FIXTURES}/pa_chain.json")
    rep = run_command("laws", machine=f"{FIXTURES}/pa_chain.json", seed=3)
    assert rep["all_hold"] is True


def test_laws_command_doublepow_notes_no_monad():
    rep = run_command("laws", machine=f"{FIXTURES}/alternating.json")
    assert rep["laws"] == [] and "note" in rep


def test_counterexample_command():
    rep = run_command("counterexample")
    assert rep["logically_equal_trace_distinct_pairs"] == [["x", "y"]]
    assert rep["trace_collapse_injective"] is False
    assert rep["logic_by_steps"]["x"] == rep["logic_by_steps"]["y"]
    traces = {r["state"]: r["traces"] for r in rep["trace_sets"]}
    assert len(traces["x"]) == 1 and len(traces["y"]) == 7


def test_strategies_command():
    rep = run_command("strategies", machine=f"{FIXTURES}/io_self_loop.json", depth=2)
    assert rep["coherence"]["holds"] is True
    assert rep["results"][0]["plays"] == [["k"], ["k", "0", "k"], ["k", "1", "k"]]


def test_strategies_command_builds_the_trace_map_once(monkeypatch):
    calls, io_traces = [], strategies.io_traces

    def counted(machine, bound):
        calls.append(bound)
        return io_traces(machine, bound)

    monkeypatch.setattr(cli, "io_traces", counted)
    monkeypatch.setattr(strategies, "io_traces", counted)
    for machine in ("io_self_loop", "io_reactive"):
        calls.clear()
        rep = run_command("strategies", machine=f"{FIXTURES}/{machine}.json", depth=3)
        assert rep["coherence"]["holds"] is True and calls == [3]


def test_determinise_command_dot():
    rep = run_command("determinise", machine=f"{FIXTURES}/nda_exists.json")
    dot = rep["dot"]
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert '"{q0,q1}"' in dot
    assert rep["n_subsets"] == 4
    assert re.search(r'"\{q0\}" -> "\{q0,q1\}" \[label="a"\]', dot)
    rep = run_command("determinise", machine=f"{FIXTURES}/io_self_loop.json")
    assert '"{s}" -> "{s}" [label="k/0"]' in rep["dot"]


def test_reports_deterministic_apart_from_timing():
    a = run_command("compare", machine=f"{FIXTURES}/generative_ab.json", depth=3)
    b = run_command("compare", machine=f"{FIXTURES}/generative_ab.json", depth=3)
    assert json.dumps(_strip_timing(a)) == json.dumps(_strip_timing(b))
    a = run_command("laws", machine=f"{FIXTURES}/pa_chain.json", seed=9)
    b = run_command("laws", machine=f"{FIXTURES}/pa_chain.json", seed=9)
    assert json.dumps(_strip_timing(a)) == json.dumps(_strip_timing(b))


def test_unknown_command():
    with pytest.raises(MachineFormatError):
        run_command("frobnicate")


# ---------------------------------------------------------------------------
# the executable entry point


def test_main_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["semantics", f"{FIXTURES}/nda_exists.json", "--depth", "1",
                 "--state", "q0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "semantics"


def test_main_reports_an_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["semantics", f"{FIXTURES}/nda_exists.json", "--depth", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


def test_main_prints_dot(capsys):
    code = main(["determinise", f"{FIXTURES}/nda_exists.json"])
    assert code == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_depth_beyond_the_size_guard_fails_fast(capsys):
    assert main(["semantics", f"{FIXTURES}/nda_exists.json", "--depth", "100000"]) == 2
    assert "more than 20000 words" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["semantics", f"{FIXTURES}/strange_pair.json", "--depth", "20000"],
    ["semantics", f"{FIXTURES}/generative_ab.json", "--engine", "kleisli", "--depth", "15"],
], ids=["strange", "kleisli"])
def test_engines_without_word_tables_guard_their_depth(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: more than 20000 words")


def test_one_letter_words_stop_at_the_letter_budget(tmp_path, capsys):
    # the words up to length d over one letter hold d * (d + 1) / 2 letters:
    # 199,396 at depth 631, 200,028 at depth 632
    path = _write_machine(tmp_path / "loop.json", {
        "format": 1, "kind": "moore", "monad": "pow", "modality": "join", "states": ["s"],
        "alphabet": ["a"], "outputs": {"s": True}, "transitions": {"s": {"a": ["s"]}}})
    assert main(["semantics", path, "--depth", "631"]) == 0
    words = json.loads(capsys.readouterr().out)["results"][0]["language"]
    assert len(words) == 632 and words[-1] == [["a"] * 631, True]
    assert main(["semantics", path, "--depth", "632"]) == 2
    assert capsys.readouterr().err == ("error: more than 200000 letters in the words up to "
                                       "length 632 (limits: 20000 words, 200000 letters)\n")


def _write_machine(path: Path, machine: dict) -> str:
    path.write_text(json.dumps(machine))
    return str(path)


def test_strange_semantics_runs_down_a_long_chain(tmp_path, capsys):
    # s0 -> s1 -> ... -> s1199 -> *: s_i can stop within n steps iff n >= 1199 - i
    states = [f"s{i}" for i in range(1200)]
    trans = {x: [y] for x, y in zip(states, states[1:])}
    trans["s1199"] = ["*"]
    path = _write_machine(tmp_path / "chain.json", {"format": 1, "kind": "strange",
                                                    "states": states, "transitions": trans})
    assert main(["semantics", path, "--depth", "900"]) == 0
    rows = {r["state"]: r["by_steps"] for r in json.loads(capsys.readouterr().out)["results"]}
    sc = parse_machine(path)
    assert all(rows[x][900] == oracles.strange_reachable_stop(sc, x, 900) for x in states[::7])
    for x in ("s0", "s298", "s299", "s300", "s1198", "s1199"):
        assert [rows[x][n] for n in (0, 1, 898, 899)] == \
            [oracles.strange_reachable_stop(sc, x, n) for n in (0, 1, 898, 899)]


def test_strange_semantics_runs_up_a_two_wide_ladder(tmp_path, capsys):
    # a_k and b_k both step to a_{k+1} and b_{k+1}; only a_39 and b_39 stop outright.
    # Every state below the top has two predecessors, so each must enter the
    # backward pass once, not once per path (2**k paths reach level 39 - k).
    levels = [(f"a{k}", f"b{k}") for k in range(40)]
    trans = {x: list(nxt) for lvl, nxt in zip(levels, levels[1:]) for x in lvl}
    trans.update({x: ["*"] for x in levels[-1]})
    states = [x for lvl in levels for x in lvl]
    path = _write_machine(tmp_path / "ladder.json", {"format": 1, "kind": "strange",
                                                     "states": states, "transitions": trans})
    assert main(["semantics", path, "--depth", "40"]) == 0
    rows = {r["state"]: r["by_steps"] for r in json.loads(capsys.readouterr().out)["results"]}
    sc = parse_machine(path)
    assert all(rows[x] == [oracles.strange_reachable_stop(sc, x, n) for n in range(41)]
               for x in states)


def test_determinise_beyond_the_size_guard_fails(tmp_path, capsys):
    # "the 15th letter from the end is a": 2**15 subsets contain q0, beyond the 20,000 guard
    states = [f"q{i}" for i in range(16)]
    trans = {x: {"a": [y], "b": [y]} for x, y in zip(states[1:], states[2:])}
    trans["q0"] = {"a": ["q0", "q1"], "b": ["q0"]}
    trans["q15"] = {"a": [], "b": []}
    machine = {"format": 1, "kind": "moore", "monad": "pow", "modality": "join",
               "states": states, "alphabet": ["a", "b"],
               "outputs": {x: x == "q15" for x in states}, "transitions": trans}
    path = _write_machine(tmp_path / "suffix15.json", machine)
    assert main(["determinise", path]) == 2
    assert capsys.readouterr().err.startswith("error: more than 20000 subsets")


def test_strategies_beyond_the_play_budget_fails(tmp_path, capsys):
    # one state, 2 operations x 2 answers looping back: 21,845 plays up to 7 outputs
    loop = [["0", "x"], ["1", "x"]]
    machine = {"format": 1, "kind": "io", "mode": "reactive", "states": ["x"],
               "operations": ["k", "l"], "arities": {"k": ["0", "1"], "l": ["0", "1"]},
               "transitions": {"x": {"k": loop, "l": loop}}}
    path = _write_machine(tmp_path / "loop.json", machine)
    assert main(["strategies", path, "--depth", "6"]) == 0
    capsys.readouterr()
    assert main(["strategies", path, "--depth", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: more than 20000 plays up to 7 outputs"]


def _readme_commands() -> list:
    """The `tracekit ...` lines of the README's CLI block, as argument lists."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI")[1]
    block = block.split("```sh")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tracekit ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = [str(tmp_path / a) if i and argv[i - 1] == "--out" else a for i, a in enumerate(argv)]
    assert main(argv) == 0, capsys.readouterr().err


def test_main_error_exit_code(capsys):
    code = main(["semantics", f"{FIXTURES}/nda_exists.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
