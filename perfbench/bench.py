"""Run one workload, check its outputs, write its result JSON for ``run.py``.

Invoked by ``run.py`` in a child process of its own (see there).  A run
repeats its pass — set-up, timed batches, queries — from a fresh program
state on the same seeded input until ``--seconds`` have gone by (at least
``MIN_PASSES`` times).  Each batch and each query is scored by its fastest
time across the passes, which discounts the machine's bursty slow-downs;
set-up time is the median over the passes.  The passes take turns over
the CPUs (``Runner.cpu``).  Outputs of every pass are
compared with the last pass, and the last pass is checked in full against
the brute-force reference (``reference.py``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bdd.predicate import PredicateEngine
from repro.dataplane.rule import DROP
from repro.fleet.supervisor import FleetSupervisor
from repro.flash import Flash
from repro.headerspace.match import Match, MatchCompiler
from repro.results import LoopReport
from repro.serve.daemon import ServeDaemon
from repro.serve.queries import LoopQuery, ReachabilityQuery, WaypointQuery
from repro.telemetry import Telemetry

import reference as ref
from run import OUT_DIR
from tracing import Tracer
from workloads import BUILDERS, Inputs

MIN_PASSES = 3
#: The child gives up (closing what it opened) before run.py's own deadline.
DEADLINE_S = 160
#: Wait bound for queue space, one fleet batch and the fleet's hello.  A serve batch that is never published ends the run at
#: ``DEADLINE_S``.
STEP_TIMEOUT_S = 60.0
#: Pinned workloads move to the next CPU at the first pass that
#: starts this long after the last move (see ``Runner.cpu``); most passes
#: then run on caches their CPU has already warmed.
CPU_TURN_S = 1.0

clock = time.perf_counter


class Deadline(Exception):
    """Raised by the alarm handler: the run exceeded ``DEADLINE_S``."""


@dataclass
class Pass:
    setup_s: float = 0.0
    batch_s: List[float] = field(default_factory=list)
    #: Fleet only: ``finish(collect_models=True)`` closes the timed phase.
    finish_s: float = 0.0
    query_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Comparable outputs: per-batch verdicts and query answers.
    verdicts: List[tuple] = field(default_factory=list)
    answers: List[tuple] = field(default_factory=list)
    probe_verdicts: tuple = ()
    worker_hwm_kb: int = 0
    registry: object = None
    t0: float = 0.0
    #: Serve only: submit times, and the writer thread that applies them.
    submits: List[float] = field(default_factory=list)
    ingest_thread: Optional[int] = None
    state: object = None  # what the final check needs (last pass only)


def make_query(spec, layout):
    kind, source, waypoint, scope = spec
    match = Match.dst_prefix(scope[0], scope[1], layout) if scope else None
    if kind == "reach":
        return ReachabilityQuery(source, match)
    if kind == "loop":
        return LoopQuery(match)
    return WaypointQuery(source, waypoint, match)


def ask_views(query, views, topology) -> Tuple[bool, int]:
    """One query over a model split in subspace views: all hold, sum count."""
    holds, headers = True, 0
    for view in views:
        answer = query.evaluate(view, topology)
        holds &= answer.holds
        headers += answer.headers
    return holds, headers


def summarise(reports) -> tuple:
    """Engine-independent form of one batch's reports."""
    return tuple(
        ("loop", r.verdict.value) if isinstance(r, LoopReport)
        else (r.requirement, r.verdict.value)
        for r in reports
    )


class CollectedView:
    """A fleet's collected EC list, readable by ``repro.serve.queries``."""

    def __init__(self, engine, layout, entries, universe) -> None:
        self.engine = engine
        self.layout = layout
        self.universe = universe
        self.compiler = MatchCompiler(engine, layout)
        self._entries = [(pred, i) for i, (pred, _) in enumerate(entries)]
        self._actions = [actions for _, actions in entries]

    def entries(self):
        return self._entries

    def action_of(self, vector: int, device: int):
        return self._actions[vector].get(device, DROP)


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


# ----------------------------------------------------------------------
# One pass per workload kind
# ----------------------------------------------------------------------

class Runner:
    #: Whether each pass runs on one CPU at a time (see ``cpu``).
    pinned = True

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.queries = [make_query(q, inputs.layout) for q in inputs.queries]
        self.switches = sorted(inputs.topology.switches())
        self.cpus = sorted(os.sched_getaffinity(0))
        #: Which CPU's turn it is, advanced by ``measure``.
        self.turn = 0

    def cpu(self) -> set:
        """The CPU for this pass, and for every thread the pass starts.

        One CPU of the VM can run much slower than the other for seconds at
        a time, and the kernel keeps a busy thread on the CPU it started
        on, so a whole run could land on the slow one.  The pass is
        therefore pinned, and the CPUs take turns: each batch and query
        runs on every CPU, and its fastest time comes from the faster one.
        """
        return {self.cpus[self.turn % len(self.cpus)]}

    def ops_per_pass(self) -> int:
        return len(self.inputs.batches) + len(self.queries) + (
            1 if self.inputs.loop_probe else 0
        )

    def _ask_all(self, p: Pass, views) -> None:
        topo = self.inputs.topology
        for query in self.queries:
            t = clock()
            answer = ask_views(query, views, topo)
            p.query_s.append(clock() - t)
            p.answers.append(answer)


class FlashRunner(Runner):
    """``Flash.ingest`` per device batch; queries on the verified model."""

    def run_pass(self) -> Pass:
        inp, p = self.inputs, Pass()
        t0 = p.t0 = clock()
        flash = Flash(inp.topology, inp.layout, requirements=inp.requirements,
                      check_loops=True, partition=inp.partition,
                      telemetry=Telemetry())
        for device, updates in inp.base:
            base_reports = flash.ingest(device, updates)
        p.setup_s = clock() - t0
        if inp.base:
            p.verdicts.append(summarise(base_reports))
        for device, updates in inp.batches:
            t = clock()
            reports = flash.ingest(device, updates)
            p.batch_s.append(clock() - t)
            p.verdicts.append(summarise(reports))
        views = [m.read_view() for m in flash.dispatcher.latest_verifier().members]
        self._ask_all(p, views)
        if inp.loop_probe:
            for device, updates in inp.loop_probe:
                reports = flash.ingest(device, updates)
            p.probe_verdicts = summarise(reports)
        p.wall_s = clock() - t0
        p.registry = flash.telemetry.registry
        p.state = views
        return p

    def check(self, passes: List[Pass]) -> Tuple[List[str], int]:
        """(errors, failed probes): every pass's outputs must equal the
        last pass's, which are checked against the reference."""
        inp, last = self.inputs, passes[-1]
        errors = [
            f"pass {i}: outputs differ from the last pass"
            for i, p in enumerate(passes[:-1])
            if (p.verdicts, p.answers) != (last.verdicts, last.answers)
        ]
        space = ref.HeaderSpace(inp.layout)
        fib = ref.ReferenceFib(space, self.switches)
        graph = ref.Graph(inp.topology, self.switches)
        loop_now = False
        # Once every switch has sent a batch, each subspace owes a definite
        # loop verdict on every batch.
        synced = len(inp.partition) if inp.partition else 1
        if inp.base:
            for _, updates in inp.base:
                fib.apply_all(updates)
            vectors, groups = fib.classes()
            loop_now = any(graph.loops(v) for v in groups)
            errors += ref.check_loop_verdicts(last.verdicts[:1], loop_now,
                                              "base", synced)
            for i, (device, updates) in enumerate(inp.batches):
                fib.apply_all(updates)
                loop_now = self._loop_after(fib, graph, device, updates, loop_now)
                errors += ref.check_loop_verdicts(
                    last.verdicts[1 + i: 2 + i], loop_now, f"batch {i}", synced)
        else:
            for _, updates in inp.batches:
                fib.apply_all(updates)
        vectors, groups = fib.classes()
        if not inp.base:  # a storm: every early verdict must match the end
            loop_now = any(graph.loops(v) for v in groups)
            errors += ref.check_loop_verdicts(last.verdicts[:-1], loop_now,
                                              "storm", 0)
            errors += ref.check_loop_verdicts(last.verdicts[-1:], loop_now,
                                              "last storm batch", synced)
            for name, (space_prefix, source, dest) in inp.req_specs.items():
                want = ref.requirement_verdict(
                    graph, vectors, space.dst_scope(space_prefix), source, dest)
                got = {v for batch in last.verdicts for n, v in batch
                       if n == name and v != "unknown"}
                if got != {want}:
                    errors.append(f"requirement {name}: verdicts {sorted(got)}, reference {want}")
        errors += self._check_views(space, vectors, last.state)
        errors += self._check_answers(space, graph, groups, last.answers)
        failed = 0
        if inp.loop_probe:
            for device, updates in inp.loop_probe:
                fib.apply_all(updates)
                loop_now = self._loop_after(fib, graph, device, updates, loop_now)
            want = (("loop", "violated" if loop_now else "satisfied"),)
            failed = sum(p.probe_verdicts != want for p in passes)
        return errors, failed

    def _loop_after(self, fib, graph, device, updates, loop_before) -> bool:
        """Whether the FIB has a loop after a batch on ``device``.

        From a loop-free state a new cycle must pass through ``device``,
        so only the headers the batch touched are walked from it.
        """
        if loop_before:
            _, groups = fib.classes()
            return any(graph.loops(v) for v in groups)
        columns = {d: fib.actions(d) for d in self.switches}
        touched = {h for u in updates for h in fib.space.headers_of(u.rule.match)}
        for h in touched:
            vec = tuple(columns[d][h] for d in self.switches)
            if graph.loops(vec):
                return True
        return False

    def _check_views(self, space, vectors, views) -> List[str]:
        errors: List[str] = []
        subspaces = list(self.inputs.partition) if self.inputs.partition else [None]
        for subspace, view in zip(subspaces, views):
            label = subspace.name if subspace else "model"
            universe = space.headers_of(subspace.match if subspace else None)
            errors += ref.check_model(space, self.switches, vectors, universe,
                                      ref.model_ecs(view, self.switches), label)
        return errors

    def _check_answers(self, space, graph, groups, answers) -> List[str]:
        scopes = {}

        def expected(spec):
            scope = scopes.setdefault(spec[3], set(space.dst_scope(spec[3])))
            return ref.query_answer(graph, groups, scope, spec)

        return ref.check_answers(list(zip(self.inputs.queries, answers)),
                                 expected, "query")


class ServeRunner(Runner):
    """A client that submits churn batches to a ``ServeDaemon`` and, once
    each batch is visible, asks its share of the queries through ``ask``.

    Reads and writes take turns.  With the queries asked from a second
    thread while each batch was applied, ten-run sets spread by 0.24-0.37
    and their medians differed by up to 58%: the two threads' contention
    for the interpreter lock on this VM's two CPUs decided the figures.
    Pinned like the ``Flash`` workloads (see ``Runner.cpu``): the client,
    the writer and the query pool take turns, so one CPU serves them all,
    and each hand-off stays on that CPU.
    """

    def run_pass(self) -> Pass:
        inp, p = self.inputs, Pass()
        share = len(self.queries) // len(inp.batches)
        t0 = p.t0 = clock()
        daemon = ServeDaemon(inp.topology, inp.layout, telemetry=Telemetry())
        try:
            daemon.start()
            p.ingest_thread = next(
                t.ident for t in threading.enumerate() if t.name == "serve-ingest")
            self._submit_visible(daemon, inp.base[0][1], 1)
            p.setup_s = clock() - t0
            for k, (_, updates) in enumerate(inp.batches):
                t = clock()
                p.submits.append(t)
                self._submit_visible(daemon, updates, k + 2)
                p.batch_s.append(clock() - t)
                for query in self.queries[k * share:(k + 1) * share]:
                    t = clock()
                    result = daemon.ask(query)
                    p.query_s.append(clock() - t)
                    p.answers.append((result.epoch,
                                      (result.answer.holds, result.answer.headers)))
            p.wall_s = clock() - t0
            snapshot = daemon.snapshots.pin()
            p.state = snapshot.view
            snapshot.unpin()
            p.registry = daemon.telemetry.registry
        finally:
            daemon.close()
        if daemon.failures:
            raise RuntimeError(f"serve ingest failed: {daemon.failures[0].error}")
        return p

    @staticmethod
    def _submit_visible(daemon, updates, epoch: int) -> None:
        """Submit one batch and block until its snapshot is published.

        The writer thread marks a queued batch done only after publishing
        its snapshot, so joining the ingest queue waits without polling.
        """
        daemon.submit_updates(updates, timeout=STEP_TIMEOUT_S)
        daemon._queue.join()
        if daemon.failures or (daemon.epoch or 0) < epoch:
            raise RuntimeError(f"serve epoch {epoch} never became visible")

    def check(self, passes: List[Pass]) -> Tuple[List[str], int]:
        """Every served answer of every pass, at the epoch it was pinned
        to, plus the last pass's final model."""
        inp = self.inputs
        space = ref.HeaderSpace(inp.layout)
        fib = ref.ReferenceFib(space, self.switches)
        graph = ref.Graph(inp.topology, self.switches)
        epochs = [inp.base[0][1]] + [u for _, u in inp.batches]
        wanted: Dict[int, List[tuple]] = {}
        for p in passes:
            for spec, (epoch, answer) in zip(inp.queries, p.answers):
                wanted.setdefault(epoch, []).append((spec, answer))
        errors: List[str] = []
        scopes: Dict[object, set] = {}
        for epoch in range(len(epochs) + 1):
            if epoch:
                fib.apply_all(epochs[epoch - 1])
            if epoch not in wanted and epoch != len(epochs):
                continue
            vectors, groups = fib.classes()

            def expected(spec, groups=groups):
                scope = scopes.setdefault(spec[3], set(space.dst_scope(spec[3])))
                return ref.query_answer(graph, groups, scope, spec)

            errors += ref.check_answers(wanted.get(epoch, []), expected, f"epoch {epoch}")
        errors += ref.check_model(space, self.switches, vectors,
                                  list(range(space.size)),
                                  ref.model_ecs(passes[-1].state, self.switches), "final")
        return errors, 0


class FleetRunner(FlashRunner):
    """``FleetSupervisor.submit``/``wait`` per device batch, one worker.

    Not pinned: the supervisor blocks on every batch, so the kernel places
    it anew each time it wakes, and its worker needs the other CPU.
    """

    pinned = False

    def run_pass(self) -> Pass:
        inp, p = self.inputs, Pass()
        t0 = p.t0 = clock()
        fleet = FleetSupervisor(self.switches, inp.layout, inp.partition,
                                processes=1, parent=Telemetry())
        try:
            fleet.start()
            limit = time.monotonic() + STEP_TIMEOUT_S
            while not all(w.hello for w in fleet.workers.values()):
                if time.monotonic() > limit:
                    raise RuntimeError("fleet worker never said hello")
                fleet.pump()
                time.sleep(0.0005)
            p.setup_s = clock() - t0
            for _, updates in inp.batches:
                t = clock()
                fleet.submit(updates)
                if not fleet.wait(timeout=STEP_TIMEOUT_S):
                    raise RuntimeError("fleet batch was never acked")
                p.batch_s.append(clock() - t)
            p.worker_hwm_kb = sum(
                _vm_hwm_kb(w.process.pid) for w in fleet.workers.values()
            )
            t = clock()
            outcome = fleet.finish(collect_models=True, timeout=STEP_TIMEOUT_S)
            p.finish_s = clock() - t
        finally:
            fleet.close()
        if not outcome.ok or any(s.degraded for s in outcome.shards.values()):
            raise RuntimeError("fleet degraded or lost a shard")
        engine = PredicateEngine(inp.layout.total_bits)
        compiler = MatchCompiler(engine, inp.layout)
        views = []
        for subspace in inp.partition:
            frames, actions = outcome.shards[subspace.name].model
            entries = list(zip(engine.import_frames(frames), actions))
            views.append(CollectedView(engine, inp.layout, entries,
                                       compiler.compile(subspace.match)))
        self._ask_all(p, views)
        p.wall_s = clock() - t0
        p.registry = fleet.parent.registry
        p.state = views
        return p

    def _check_views(self, space, vectors, views) -> List[str]:
        errors: List[str] = []
        for subspace, view in zip(self.inputs.partition, views):
            entries = [(pred, view._actions[i]) for pred, i in view.entries()]
            errors += ref.check_model(space, self.switches, vectors,
                                      space.headers_of(subspace.match),
                                      ref.collected_ecs(entries, self.switches),
                                      subspace.name)
        return errors


RUNNERS = {
    "ecmp_storm": FlashRunner,
    "fattree_churn": FlashRunner,
    "serve_rw": ServeRunner,
    "fleet_storm": FleetRunner,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(inputs: Inputs, passes: List[Pass], peak_kb: int) -> Dict[str, tuple]:
    batch = [min(col) for col in zip(*(p.batch_s for p in passes))]
    query = [min(col) for col in zip(*(p.query_s for p in passes))]
    timed = sum(batch) + min(p.finish_s for p in passes)
    return {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "updates_per_s": (inputs.num_updates / timed, "updates/s"),
        "batch_latency_p50_ms": (statistics.median(batch) * 1e3, "ms"),
        "batch_latency_p90_ms": (p90(batch) * 1e3, "ms"),
        "queries_per_s": (len(query) / sum(query), "queries/s"),
        "query_latency_p50_ms": (statistics.median(query) * 1e3, "ms"),
        "query_latency_p90_ms": (p90(query) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MiB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(p: Pass, tracer: Tracer) -> Dict[str, tuple]:
    """The traced pass's layer figures (see README for what each moves)."""
    reg = p.registry
    reg.collect()
    v = reg.value
    layers = tracer.layer_seconds()
    spans = tracer.spans
    t = lambda name: layers.get(name, 0.0)
    n = lambda name: sum(1 for s in spans if s.name == name)
    wait = 0.0  # serve: submit until the writer's first layer span
    starts = sorted(s.start for s in spans if s.thread == p.ingest_thread)
    for submitted in p.submits:
        i = bisect.bisect_left(starts, submitted)
        if i < len(starts):
            wait += starts[i] - submitted
    ops = sum(val for key, val in reg.snapshot()["counters"].items()
              if key.startswith("predicate.ops."))
    busy = v("span.parallel.worker.seconds")
    covered = tracer.covered_seconds(p.t0, p.t0 + p.wall_s)
    return {
        "compile.calls": (n("compile"), "count"),
        "compile.s": (t("compile"), "s"),
        "mr2.map.s": (t("mr2.map"), "s"),
        "mr2.reduce.s": (t("mr2.reduce"), "s"),
        "mr2.overwrites.atomic": (v("mr2.overwrites.atomic"), "count"),
        "mr2.overwrites.aggregated": (v("mr2.overwrites.aggregated"), "count"),
        "apply.calls": (n("apply"), "count"),
        "apply.s": (t("apply"), "s"),
        "apply.ecs_skipped_ratio": (
            _ratio(v("mr2.apply.ecs_skipped"), tracer.counts.get("apply.ecs_in", 0)), "ratio"),
        "apply.pairs_pruned": (v("mr2.apply.pairs_pruned"), "count"),
        "bdd.predicate_ops": (ops, "count"),
        "bdd.ite_calls": (v("bdd.ite.calls"), "count"),
        "bdd.op_cache_hit_ratio": (_ratio(v("bdd.cache.hits"), v("bdd.cache.lookups")), "ratio"),
        "bdd.nodes_allocated": (v("bdd.nodes.allocated"), "count"),
        "bdd.gc.runs": (v("bdd.gc.runs"), "count"),
        "ce2d.dispatch.s": (t("ce2d.dispatch"), "s"),
        "ce2d.loop.s": (t("ce2d.loop"), "s"),
        "ce2d.regex.s": (t("ce2d.regex"), "s"),
        "ce2d.deltas": (tracer.counts.get("ce2d.deltas", 0), "count"),
        "wire.encode.s": (t("wire.encode"), "s"),
        "wire.decode.s": (t("wire.decode"), "s"),
        "wire.bytes": (tracer.counts.get("wire.bytes", 0), "bytes"),
        "serve.ingest.wait.s": (wait, "s"),
        "serve.publish.s": (t("serve.publish"), "s"),
        "serve.query.eval.s": (t("serve.query.eval"), "s"),
        "serve.cache.hit_ratio": (_ratio(v("serve.query.cached"), v("serve.query.count")), "ratio"),
        "serve.ingest.rejected": (v("serve.ingest.rejected"), "count"),
        "fleet.submit.s": (t("fleet.submit"), "s"),
        "fleet.wait.s": (t("fleet.wait"), "s"),
        "fleet.worker.busy.s": (busy, "s"),
        "fleet.overhead.s": (t("fleet.wait") - busy, "s"),
        "fleet.checkpoint.bytes": (v("fleet.checkpoint.bytes"), "bytes"),
        "fleet.ship.bytes": (v("fleet.ship.bytes"), "bytes"),
        "fleet.checkpoints": (v("fleet.checkpoints"), "count"),
        "fleet.blocks.replayed": (v("fleet.blocks.replayed"), "count"),
        "unattributed.s": (p.wall_s - covered, "s"),
        "wall.s": (p.wall_s, "s"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _raise_deadline(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def measure(inputs: Inputs, seconds: float, trace: bool) -> Dict[str, object]:
    runner = RUNNERS[inputs.name](inputs)
    tracer = Tracer() if trace else None
    passes: List[Pass] = []
    best: Optional[Tuple[Pass, Dict[str, tuple], list]] = None
    turn_started = clock()
    if tracer is not None:
        tracer.install()
    try:
        stop = clock() + seconds
        while len(passes) < MIN_PASSES or clock() < stop:
            gc.collect()  # start without the previous pass's cyclic garbage
            if clock() - turn_started >= CPU_TURN_S:
                runner.turn += 1
                turn_started = clock()
            if runner.pinned:
                os.sched_setaffinity(0, runner.cpu())
            if tracer is not None:
                tracer.reset()
            p = runner.run_pass()
            if not passes:
                # Peak memory of one pass in a fresh process.  Threads that
                # later passes start take fresh malloc arenas, so the
                # high-water mark would climb with the number of passes.
                peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           + p.worker_hwm_kb)
            if tracer is not None and (best is None or p.wall_s < best[0].wall_s):
                best = (p, per_layer(p, tracer), tracer.spans)
            p.registry = None  # it roots the pass's engines
            if passes:
                passes[-1].state = None  # keep only the last pass's model
            passes.append(p)
    finally:
        os.sched_setaffinity(0, runner.cpus)
        if tracer is not None:
            tracer.uninstall()
    errors, failed = runner.check(passes)
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    if trace:
        metrics = best[1]
        tracer.spans = best[2]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{inputs.name}.json"),
                    {"workload": inputs.name, "wall_s": best[0].wall_s})
    else:
        metrics = end_to_end(inputs, passes, peak_kb)
    info = dict(inputs.describe(), passes=len(passes),
                pass_wall_min_s=min(p.wall_s for p in passes))
    print(json.dumps({"info": info}), file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(passes) * runner.ops_per_pass(),
        "failed": failed,
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
    }


def _short_mp_tempdir() -> None:
    """Keep multiprocessing's temp dir relative to the checkout.

    The fleet's forkserver listens on an AF_UNIX socket in that dir, and
    such a path may hold at most 107 bytes: under an absolute ``TMPDIR`` in
    a deep checkout the bind fails.  The child runs from the checkout root,
    so the relative path is short wherever the checkout is.
    """
    rel = os.path.relpath(os.path.join(OUT_DIR, "mp"))
    os.makedirs(rel, exist_ok=True)
    multiprocessing.process.current_process()._config["tempdir"] = rel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _raise_deadline)
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.alarm(DEADLINE_S)
    _short_mp_tempdir()
    result = measure(BUILDERS[args.workload](args.seed), args.seconds,
                     bool(args.trace))
    signal.alarm(0)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
