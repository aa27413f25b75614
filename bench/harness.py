"""Measurement machinery: set-up timing, the closed query loop, the tracer,
the machine-speed probe and the metrics computed from them."""

from __future__ import annotations

from array import array
import dataclasses
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from collections import defaultdict
from time import perf_counter

from workloads import Env, Refs

MIN_QUERIES = 200  # so that at least ten samples lie beyond p95
SETUPS = 15  # clean set-ups per run at least, spread over its passes
PROBE_EVERY_S = 0.25  # wall seconds between machine-speed probes
# Share of --seconds planned for the timed passes; the reference words, the
# memory count and replays slower than the first pass take the rest.
PLANNED = 0.85
# When the machine slows down for long, replays stop before a pass would end
# past this share of --seconds, after MIN_PASSES passes at least, so that a
# run's length stays bounded.
DEADLINE = 0.95
MIN_PASSES = 3


class Tracer:
    """Spans and counts recorded from the benchmark side of each layer call.

    A span is (name, start, end, parent index, query id).  Its self time is
    its duration minus the time its child spans cover; totals per name are
    kept as the spans close, the records themselves stay in memory until
    ``write``.
    """

    def __init__(self):
        self.records: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.query = 0
        self._open: list[list] = []  # [record index or -1, child seconds]

    @contextmanager
    def span(self, name, keep=True):
        index = -1
        if keep:
            index = len(self.records)
            self.records.append(None)
        parent = self._open[-1][0] if self._open else -1
        frame = [index, 0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            took = end - start
            self.self_s[name] += took - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += took
            if keep:
                self.records[index] = (name, start, end, parent, self.query)

    def count(self, name, n=1):
        self.counts[name] += n

    def counter(self, name, fn):
        """``fn`` counting its calls under ``name``."""

        def counted(*args):
            self.counts[name] += 1
            return fn(*args)

        return counted

    def timed(self, name, fn, keep=True):
        """``fn`` with each call in a span of its own."""

        def timed_call(*args):
            with self.span(name, keep):
                return fn(*args)

        return timed_call

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "query": query}) + "\n")


def probe_ms() -> float:
    """A fixed loop owned by the benchmark; it tracks machine speed only."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i
    return (perf_counter() - start) * 1000


def _purge():
    for name in [n for n in sys.modules if n == "realizability" or n.startswith("realizability.")]:
        del sys.modules[name]


def timed_setup(wl, data, reps=1):
    """Import the library and build the shared objects, ``reps`` times from a
    clean module table; returns the times and the last set of objects."""
    times = []
    for _ in range(reps):
        _purge()
        gc.collect()
        start = perf_counter()
        lib = importlib.import_module("realizability")
        cli = importlib.import_module("realizability.cli")
        shared = wl.setup(lib, data)
        times.append(perf_counter() - start)
    return times, lib, cli, shared


def digest(x) -> int:
    """A 64-bit fingerprint of an output's plain form, for this process."""
    return hash(repr(canon(x)))


def canon(x):
    """A plain, comparable form of a library output.  Each pass imports the
    library afresh, and dataclasses of two imports never compare equal."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, tuple(canon(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return ("dict", tuple(sorted(((canon(k), canon(v)) for k, v in x.items()), key=repr)))
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted((canon(v) for v in x), key=repr)))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    return x


class Run:
    """One process measuring one workload."""

    def __init__(self, wl, seed, workdir):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.data = wl.fixtures(random.Random(f"{wl.name}/{seed}/fixtures"))
        self.refs = Refs()
        self.attempted = self.failed = 0
        self.probes: list[float] = []
        self._probed = float("-inf")
        self.failures: list[str] = []
        self.inputs = array("q")  # a fingerprint of each measured query's input

    def _fail(self, i, q, why):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"query {i} ({q.kind}): {why}")

    def _prepare(self, env, q):
        env.paths = {}
        for name, text in q.files.items():
            path = os.path.join(self.workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            env.paths[name] = path

    def _query(self, env, i, q, hint):
        """Run query i once, timed; returns (output, seconds, exception)."""
        self._prepare(env, q)
        if perf_counter() - self._probed >= PROBE_EVERY_S:
            self.probes.append(probe_ms())
            self._probed = perf_counter()
        if env.tr is not None:
            env.tr.query = i
        error = None
        start = perf_counter()
        try:
            out = self.wl.run(env, q, hint)
        except Exception as exc:  # a raising query is a failed query
            out, error = None, exc
        took = perf_counter() - start
        self.attempted += 1
        if error is not None:
            self._fail(i, q, f"raised {error!r}")
        return out, took, error

    def measure(self, env, seconds, passes, min_queries, per_pass=0.0, corrupt=None):
        """First pass: closed loop, one caller; the next query starts when the
        previous one and its reference check are done.  The pass runs whole
        cycles of the workload's schedule, so every run has the same mix: at
        least ``min_queries`` queries, and then as many cycles as fit in
        ``seconds`` together with ``passes - 1`` replays of them, each
        costing what the first pass spent on its queries plus ``per_pass``.
        ``corrupt`` lets a test damage an output before it is checked.

        Returns the durations, a digest of each output and the first
        ``min_queries`` outputs themselves (a traced pass reads lengths from
        them)."""
        durations, digests, hints = array("d"), array("q"), []
        replay_s, i = 0.0, 0
        start = perf_counter()
        while True:
            if i >= min_queries and i % self.wl.cycle == 0:
                projected = perf_counter() - start + (passes - 1) * (replay_s + per_pass)
                if projected * (1 + self.wl.cycle / i) > seconds:
                    break
            began = perf_counter()
            q = self.wl.draw(self.seed, i, self.data)
            out, took, error = self._query(env, i, q, None)
            durations.append(took)
            digests.append(digest(out))
            replay_s += perf_counter() - began
            self.inputs.append(hash(repr((q.kind, q.p))))
            if i < min_queries:
                hints.append(out)
            if error is None:
                if corrupt is not None:
                    out = corrupt(out)
                try:
                    ok = self.wl.check(env, self.refs, q, out)
                except Exception as exc:
                    ok, out = False, f"check raised {exc!r}"
                if not ok:
                    self._fail(i, q, f"wrong output {out!r}"[:300])
            i += 1
        return durations, digests, hints

    def replay(self, env, expected, hints=None, order=None):
        """Queries 0..len(expected)-1 again, drawn afresh from the seed, in
        ``order``; each must reproduce the digest of its output in the
        checked pass.  Returns durations by query index."""
        durations = array("d", bytes(8 * len(expected)))
        for i in range(len(expected)) if order is None else order:
            q = self.wl.draw(self.seed, i, self.data)
            out, took, error = self._query(env, i, q, None if hints is None else hints[i])
            durations[i] = took
            if error is None and digest(out) != expected[i]:
                self._fail(i, q, "output differs from the checked pass")
        return durations


def end_to_end(durations, setup_s, retained):
    ms = [d * 1000 for d in durations]
    return {
        "queries_per_s": (len(durations) / sum(durations), "1/s"),
        "query_ms_p50": (statistics.median(ms), "ms"),
        "query_ms_p95": (statistics.quantiles(ms, n=20)[18], "ms"),
        "setup_s": (setup_s, "s"),
        "retained_mb": (retained, "MB"),
    }


def fastest(durations, inputs):
    """Each query's time as the least over every run of the same input: a
    workload that repeats inputs (the diagonal's indices, the rr walks'
    automata) gets more samples of each, spread over the whole run."""
    least: dict[int, float] = {}
    for key, took in zip(inputs, durations):
        least[key] = min(least.get(key, took), took)
    return [least[key] for key in inputs]


def retained_mb(wl, run):
    """Memory the library holds after a clean import, the workload's set-up
    and one query of each kind in its schedule, once a full collection has
    run: modules, shared objects and whatever the calls left cached.  It
    counts the Python allocations still alive (``tracemalloc``), not
    resident pages, so it follows neither the allocator's fragmentation
    after the largest query of a run nor machine speed.  Outputs are dropped
    as they come; errors were counted by the checked pass."""
    firsts: dict[str, int] = {}
    for i, (kind, _) in enumerate(wl.schedule):
        firsts.setdefault(kind, i)
    _purge()
    gc.collect()
    tracemalloc.start()
    try:
        lib = importlib.import_module("realizability")
        cli = importlib.import_module("realizability.cli")
        env = Env(lib, cli, wl.setup(lib, run.data))
        for i in firsts.values():
            q = wl.draw(run.seed, i, run.data)
            run._prepare(env, q)
            try:
                wl.run(env, q, None)
            except Exception:
                pass
        del q
        env.last = None
        gc.collect()
        return tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rate(n, seconds):
    """Millions per second; 0 for a layer the workload does not reach."""
    return n / seconds / 1e6 if seconds > 0 else 0.0


def per_layer(tr: Tracer, probes, overhead):
    """Per-layer metrics: self times and counts summed over the traced pass."""
    s, c, n = tr.self_s, tr.counts, tr.calls
    gens = ("champernowne", "universal", "morphism")
    sym = {g: c[f"words.gen.{g}.symbols"] for g in gens}
    attempts = c["decide.attempts"]
    cli = [(end - start) * 1000 for name, start, end, _, _ in tr.records if name == "cli"]
    return {
        "words.gen_symbols": (sum(sym.values()), "count"),
        "words.gen_s": (sum(s[f"words.gen.{g}"] for g in gens), "s"),
        **{f"words.{g}_msym_per_s": (_rate(sym[g], s[f"words.gen.{g}"]), "Msym/s") for g in gens},
        "words.image_calls": (c["words.image_calls"], "count"),
        "decide.steps": (c["decide.steps"], "count"),
        "decide.busy_s": (s["decide"], "s"),
        "decide.msteps_per_s": (_rate(c["decide.steps"], s["decide"]), "Mstep/s"),
        "decide.resolved_ratio": (c["decide.resolved"] / attempts if attempts else 0.0, "ratio"),
        "definitive.word_s": (s["definitive.word"], "s"),
        "definitive.word_len": (c["definitive.word_len"], "count"),
        "definitive.check_s": (s["definitive.check"], "s"),
        "definitive.language_s": (s["definitive.language"], "s"),
        "definitive.language_states": (c["definitive.language_states"], "count"),
        "definitive.witness_s": (s["definitive.witness"], "s"),
        "automata.build_s": (s["automata.build"], "s"),
        "automata.dead_lock_s": (s["automata.dead_lock"], "s"),
        "automata.regex_s": (s["automata.regex"], "s"),
        "automata.regex_states": (c["automata.regex_states"], "count"),
        "omega.buchi_ultper_calls": (n["omega.buchi_ultper"], "count"),
        "omega.buchi_ultper_s": (s["omega.buchi_ultper"], "s"),
        "omega.limit_set_s": (s["omega.limit_set"], "s"),
        "omega.muller_s": (s["omega.muller"], "s"),
        "omega.sigma_prefix_s": (s["omega.sigma_prefix"], "s"),
        "effective.reduce_s": (s["effective.reduce"], "s"),
        "effective.reduce_states": (c["effective.reduce_states"], "count"),
        "effective.dead_locks_s": (s["effective.dead_locks"], "s"),
        "effective.fuel_s": (s["effective.fuel"], "s"),
        "effective.fuel_symbols": (c["effective.fuel_symbols"], "count"),
        "effective.steps": (c["effective.steps"], "count"),
        "effective.simulate_s": (s["effective.simulate"], "s"),
        "effective.oracle_calls": (n["effective.oracle"], "count"),
        "effective.oracle_s": (s["effective.oracle"], "s"),
        "bridge.rr_to_prefix_s": (s["bridge.rr_to_prefix"], "s"),
        "bridge.rr_to_prefix_states": (c["bridge.rr_to_prefix_states"], "count"),
        "bridge.filter_to_word_s": (s["bridge.filter_to_word"], "s"),
        "bridge.rr_calls": (n["bridge.rr"], "count"),
        "bridge.rr_s": (s["bridge.rr"], "s"),
        "bridge.enum_calls": (n["bridge.enum"], "count"),
        "bridge.enum_s": (s["bridge.enum"], "s"),
        "bridge.stage_s": (s["bridge.stage"], "s"),
        "bridge.stage_symbols": (c["bridge.stage_symbols"], "count"),
        "bridge.theorem1_decide_s": (s["bridge.theorem1_decide"], "s"),
        "textio.parse_s": (s["textio.parse"], "s"),
        "cli.calls": (c["cli.calls"], "count"),
        "cli.ms_p50": (statistics.median(cli) if cli else 0.0, "ms"),
        "bench.probe_ms": (statistics.median(probes), "ms"),
        "bench.peak_rss_mb": (peak_rss_mb(), "MB"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def run_workload(wl, seed, seconds, trace, root, corrupt=None):
    """Measure one workload in this process; returns (result dict, lines)."""
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir)
    per_pass = -(-SETUPS // wl.passes)
    deadline = perf_counter() + seconds * DEADLINE
    try:
        run = Run(wl, seed, workdir)
        setups, lib, cli, shared = timed_setup(wl, run.data, per_pass)
        best, digests, hints = run.measure(Env(lib, cli, shared), seconds * PLANNED, wl.passes, MIN_QUERIES,
                                           per_pass=sum(setups), corrupt=corrupt)
        # Later passes replay the checked queries in a seeded shuffled order,
        # each against a fresh import, so a query's runs lie seconds apart.
        passes, last = 1, 0.0
        while passes < wl.passes and (passes < MIN_PASSES or perf_counter() + last < deadline):
            began = perf_counter()
            times, lib, cli, shared = timed_setup(wl, run.data, per_pass)
            setups += times
            order = random.Random(f"{wl.name}/{seed}/pass{passes}").sample(range(len(best)), len(best))
            for i, took in enumerate(run.replay(Env(lib, cli, shared), digests, order=order)):
                best[i] = min(best[i], took)
            passes += 1
            last = perf_counter() - began
        if not trace:
            del hints
            metrics = end_to_end(fastest(best, run.inputs), statistics.median(setups), retained_mb(wl, run))
        else:
            # Replay the first queries twice against freshly built shared
            # objects, untraced and then traced; the overhead compares the two.
            first = digests[:MIN_QUERIES]
            plain = run.replay(Env(lib, cli, wl.setup(lib, run.data)), first)
            tr = Tracer()
            env = Env(lib, cli, wl.instrument(lib, wl.setup(lib, run.data), tr), tr)
            traced = run.replay(env, first, hints)
            overhead = sum(traced) / sum(plain) - 1
            metrics = per_layer(tr, run.probes, overhead)
            tr.write(os.path.join(out_dir, f"trace-{wl.name}-{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [f"workload={wl.name} seed={seed} trace={int(trace)} queries={len(best)} passes={passes}"]
    lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"  error_rate = {run.failed / run.attempted:.6g} ratio")
    if not trace:
        lines.append(f"  bench.probe_ms = {statistics.median(run.probes):.6g} ms")
    lines += [f"  FAILED {f}" for f in run.failures]
    return result, lines
