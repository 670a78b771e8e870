"""Per-layer measurement, taken entirely from the benchmark's own files.

* `Tracer` records a span around every call of the public tracekit
  functions listed in `SPAN_LAYERS`, by rebinding each function wherever a
  tracekit module refers to it while the traced pass runs.  The commands
  therefore make exactly their own sequence of calls, and the untraced
  passes run unmodified code.
* `profile_counts` turns one `cProfile` run into exact call counts of kernel
  and `fractions` functions, ratios over the inputs' table sizes, and
  profiled self times (inflated by the profiler; compare them only with
  each other).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

#: span layer -> "module.function" names whose calls it times
SPAN_LAYERS = {
    "engines.em": ["engines.em_language_bt", "engines.em_language_ta"],
    "engines.logic": ["engines.logic_language_word", "engines.logic_language_generative"],
    "engines.kleisli": ["engines.kleisli_traces", "engines.kbar"],
    "engines.determinise": ["engines.determinise_bt", "strategies.determinise_io"],
    "engines.other": ["engines.cia_language", "engines.logic_eval_tree",
                      "engines.logic_eval_strange"],
    "languages.language_equal": ["languages.language_equal"],
    "cli.parse_machine": ["cli.parse_machine"],
    "cli.report": ["cli.show_language", "cli.show_trace_set", "cli.show_law_report",
                   "cli.show_strategy", "cli.moore_dot", "cli.io_dot"],
    "laws.em_law": ["laws.check_em_law"],
    "laws.kl_law": ["laws.check_kl_law"],
    "laws.extension_square": ["laws.check_extension_square"],
    "laws.extension_requirement": ["laws.check_extension_requirement"],
    "laws.pentagon_em_logic": ["laws.check_pentagon_em_logic"],
    "laws.pentagon_kl_logic": ["laws.check_pentagon_kl_logic"],
    "strategies.io_traces": ["strategies.io_traces"],
    "strategies.check_strategy_coalgebra": ["strategies.check_strategy_coalgebra"],
}

#: root span of one job: the self time of `run_command` outside every listed layer
JOB_LAYER = "cli.run_command"


def _tracekit_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "tracekit" or name.startswith("tracekit."))]


class Tracer:
    """In-memory spans: (layer, job id, parent span id, start, end)."""

    def __init__(self):
        self.spans: list = []
        self.law_cases = 0
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, layer: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (layer, self.job, parent, start, end)
        if layer.startswith("laws."):
            self.law_cases += result.checked
        return result

    def install(self) -> None:
        """Rebind every listed function in every tracekit namespace to a wrapper."""
        modules = _tracekit_modules()
        for layer, names in SPAN_LAYERS.items():
            for qualified in names:
                module, name = qualified.split(".")
                original = getattr(sys.modules.get(f"tracekit.{module}"), name, None)
                if original is None:
                    self.missing.append(qualified)
                    continue

                def wrapper(*args, _layer=layer, _fn=original, **kwargs):
                    return self.call(_layer, _fn, *args, **kwargs)

                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Summed self time per layer: span length minus its children's."""
        child = [0.0] * len(self.spans)
        for _layer, _job, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {layer: 0.0 for layer in [*SPAN_LAYERS, JOB_LAYER]}
        for sid, (layer, _job, _parent, start, end) in enumerate(self.spans):
            out[layer] += end - start - child[sid]
        return out

    def metrics(self) -> dict:
        own = self.self_times()
        law_s = sum(s for layer, s in own.items() if layer.startswith("laws."))
        out = {f"{layer}.s": s for layer, s in own.items()}
        out["laws.cases"] = self.law_cases
        out["laws.s_per_case"] = law_s / self.law_cases if self.law_cases else 0.0
        return out

    def as_records(self) -> list[dict]:
        return [{"id": sid, "layer": layer, "job": job, "parent": parent,
                 "start": start, "end": end}
                for sid, (layer, job, parent, start, end) in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# profiled counts

KERNEL_COUNTED = ("monad_bind", "sub_dist", "pow_value", "functor_map", "algebra_eval",
                  "canon_key")
FRACTION_GROUPS = {
    "new": ("__new__",),
    "arith": ("_add", "_sub", "_mul", "_div"),
    "cmp": ("__eq__", "_richcmp"),
}


def _key(fn) -> tuple:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_counts(stats: dict, entries: int, tables: int, kleisli_machines: int) -> dict:
    """Counts, ratios and profiled self times from `pstats.Stats(...).stats`.

    `entries` (states x words), `tables` (per-state word tables) and
    `kleisli_machines` are the ratio bases, known from the inputs.
    """
    kernel = sys.modules["tracekit.kernel"]
    engines = sys.modules["tracekit.engines"]
    languages = sys.modules["tracekit.languages"]

    def calls(fn) -> int:
        return 0 if fn is None else stats.get(_key(fn), (0, 0))[1]

    def per(n: int, base: int) -> float:
        return n / base if base else 0.0

    out = {f"kernel.{name}.calls": calls(getattr(kernel, name, None))
           for name in KERNEL_COUNTED}
    for group, names in FRACTION_GROUPS.items():
        out[f"fractions.{group}.calls"] = sum(calls(getattr(Fraction, n, None)) for n in names)
    logic_ev = sum(v[1] for (path, _line, name), v in stats.items()
                   if path == engines.__file__ and name == "ev")
    out.update({
        "kernel.monad_bind.per_entry": per(out["kernel.monad_bind.calls"], entries),
        "kernel.canon_key.per_entry": per(out["kernel.canon_key.calls"], entries),
        "fractions.new.per_entry": per(out["fractions.new.calls"], entries),
        "engines.logic_ev.per_entry": per(logic_ev, entries),
        "engines.kleisli_iterates.per_machine":
            per(calls(getattr(engines, "kleisli_iterates", None)), kleisli_machines),
        "languages.enumerate_words.per_table":
            per(calls(getattr(languages, "enumerate_words", None)), tables),
        "kernel.self_s": sum(v[2] for k, v in stats.items() if k[0] == kernel.__file__),
        "fractions.self_s": sum(v[2] for k, v in stats.items()
                                if k[0] == sys.modules["fractions"].__file__),
        "jobs.entries": entries,
        "jobs.word_tables": tables,
        "jobs.kleisli_machines": kleisli_machines,
    })
    return out
