"""Benchmark workloads: seeded, closed-loop streams of `run_command` jobs.

A job is one `tracekit.cli.run_command` call on its own freshly generated
machine file.  Job `i` of a workload is a pure function of (seed, i): its
size comes from a fixed cycle of slots, so every run sees the same mix of
sizes in the same order, and only the random structure of each machine
depends on the seed.  That keeps the spread between seeds low while no two
jobs ever share a machine, so a process-wide cache cannot be credited for
reuse that a one-command CLI user would never get.

Why these workloads and sizes:

* `subdist-compare` -- `compare` on subdistribution machines, half Moore
  `EXPECT` (3-6 states, 2 letters, depth 6) and half generative (3-6 states,
  2 labels, depth 5).  All three engines run; the per-state Kleene chain and
  `Fraction` construction and addition dominate, and the largest machines
  set p90.  Sizes stop at 6 states so that one run holds over 200 jobs
  (7-state machines gave about 170 in 30 seconds).
* `pow-compare` -- `compare` on powerset Moore machines (`JOIN`, `MEET`, and
  `JOIN_MEET` double-powerset machines, which run `logic` only), 4-10
  states, 2 letters at depth 7 or 3 letters at depth 5, plus `determinise`
  jobs.  No `Fraction` is ever built and `kleisli` never runs, so it is the
  control for arithmetic and fixpoint changes, and the target for set
  representation and shared-memo changes.
* `cli-mixed` -- every machine kind at fixture scale (1-4 states) through
  every command that applies to it: `laws`, `strategies`, `semantics`
  (tree `logic`, generalized `cia`), `determinise` (generative io),
  `compare` (small generative pow, strange) and `counterexample`.  The law
  checkers' sampled pools dominate its time; each small command appears
  twice per cycle, so small commands outnumber law checks 16 to 6: p50 is a
  typical small command and p90 a law check, each well inside its cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import generate
from tracekit.engines import GenerativeCoalgebra, StrangeCoalgebra, TreeCoalgebra
from tracekit.kernel import Modality, MonadKind
from tracekit.languages import enumerate_trees


@dataclass(frozen=True)
class Slot:
    """One position of a workload's cycle: what to build and which command to run."""

    command: str
    build: Optional[Callable[[random.Random], object]]
    depth: Optional[int] = None


@dataclass
class Job:
    index: int
    command: str
    machine: object  # None for `counterexample`
    depth: Optional[int]
    law_seed: Optional[int]
    check_seed: str
    path: Optional[str] = None

    def options(self) -> dict:
        return {"machine": self.path, "depth": self.depth, "seed": self.law_seed}


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    pool: int  # jobs generated (and timed) in set-up
    layer_jobs: int  # jobs in the traced and in the profiled pass

    def job(self, seed: int, index: int) -> Job:
        slot = self.slots[index % len(self.slots)]
        rng = random.Random(f"{self.name}:{seed}:{index}")
        machine = slot.build(rng) if slot.build is not None else None
        law_seed = rng.randrange(1 << 16) if slot.command == "laws" else None
        return Job(index, slot.command, machine, slot.depth, law_seed,
                   f"check:{self.name}:{seed}:{index}")


def _moore_sd(n: int):
    return lambda rng: generate.moore_subdist(rng, n, 2)


def _gen(kind: MonadKind, n: int, labels: int = 2):
    return lambda rng: generate.generative(rng, kind, n, labels)


def _moore_pow(n: int, letters: int, alg: Modality):
    return lambda rng: generate.moore_pow(rng, n, letters, alg)


def _moore_dpow(n: int, letters: int):
    return lambda rng: generate.moore_doublepow(rng, n, letters)


SUBDIST_COMPARE = Workload(
    "subdist-compare",
    tuple(slot for n in range(3, 7)
          for slot in (Slot("compare", _moore_sd(n), 6),
                       Slot("compare", _gen(MonadKind.SUBDIST, n), 5))),
    pool=200,
    layer_jobs=20,
)

POW_COMPARE = Workload(
    "pow-compare",
    (
        Slot("compare", _moore_pow(4, 2, Modality.JOIN), 7),
        Slot("compare", _moore_pow(5, 3, Modality.MEET), 5),
        Slot("compare", _moore_dpow(4, 2), 7),
        Slot("compare", _moore_pow(6, 2, Modality.MEET), 7),
        Slot("determinise", _moore_pow(8, 2, Modality.JOIN)),
        Slot("compare", _moore_pow(7, 3, Modality.JOIN), 5),
        Slot("compare", _moore_dpow(6, 3), 5),
        Slot("compare", _moore_pow(8, 2, Modality.JOIN), 7),
        Slot("compare", _moore_pow(9, 3, Modality.MEET), 5),
        Slot("determinise", _moore_pow(10, 3, Modality.MEET)),
        Slot("compare", _moore_dpow(8, 2), 7),
        Slot("compare", _moore_pow(10, 2, Modality.JOIN), 7),
    ),
    pool=400,
    layer_jobs=48,
)

_SMALL = (
    Slot("strategies", lambda rng: generate.io_system(rng, "generative", 3), 3),
    Slot("semantics", lambda rng: generate.tree(rng, 2), 3),
    Slot("compare", _gen(MonadKind.POW, 3), 4),
    Slot("strategies", lambda rng: generate.io_system(rng, "reactive", 3), 3),
    Slot("determinise", lambda rng: generate.io_system(rng, "generative", 4)),
    Slot("semantics", lambda rng: generate.generalized(rng, MonadKind.POW, 3, 2, 4), 4),
    Slot("compare", lambda rng: generate.strange(rng, 3), 6),
    Slot("counterexample", None, 6),
)

_LAWS = (
    Slot("laws", _moore_pow(2, 2, Modality.JOIN)),
    Slot("laws", lambda rng: generate.moore_subdist(rng, 2, 1)),
    Slot("laws", _gen(MonadKind.POW, 2)),
    Slot("laws", _gen(MonadKind.SUBDIST, 2, 1)),
    Slot("laws", lambda rng: generate.strange(rng, 2)),
    Slot("laws", lambda rng: generate.generalized(rng, MonadKind.POW, 2, 2, 2)),
)

CLI_MIXED = Workload(
    "cli-mixed",
    _LAWS + _SMALL + _SMALL,
    pool=300,
    layer_jobs=44,
)

WORKLOADS = {w.name: w for w in (SUBDIST_COMPARE, POW_COMPARE, CLI_MIXED)}


# ---------------------------------------------------------------------------
# what a job's report holds, known from its inputs


def _words(machine, depth: int) -> int:
    letters = len(machine.labels if isinstance(machine, GenerativeCoalgebra)
                  else machine.alphabet)
    return sum(letters ** i for i in range(depth + 1))


def table_sizes(job: Job) -> tuple[int, int, int]:
    """(entries, word tables, kleisli machines) the job's report is built from.

    Entries are states x words (x trees, x step counts) of every per-state
    table, counted once per state whatever the number of engines; word
    tables are per-state word languages, one per engine.
    """
    m = job.machine
    if job.command == "counterexample":
        return 2 * (job.depth + 1), 0, 1
    if job.command == "compare":
        n = len(m.states)
        if isinstance(m, StrangeCoalgebra):
            return n * (job.depth + 1), 0, 1
        engines = 3 if isinstance(m, GenerativeCoalgebra) else (
            1 if m.kind is MonadKind.DOUBLE_POW else 2)
        return n * _words(m, job.depth), n * engines, int(isinstance(m, GenerativeCoalgebra))
    if job.command == "semantics":
        n = len(m.states)
        if isinstance(m, TreeCoalgebra):
            return n * len(enumerate_trees(m.signature, job.depth)), 0, 0
        return n * _words(m, job.depth), n, 0
    return 0, 0, 0
