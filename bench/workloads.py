"""The four workloads: seeded queries, how each runs, and how each is checked.

A query is one top-level library or CLI call.  ``run`` with ``tr=None`` is
the untraced path: the public call exactly as a user makes it.  With a
tracer, composite calls are split into the public calls they are made of,
and each lands in a span named after its layer; ``hint`` is the untraced
output of the same query, from which the length a cold word must be forced
to is read, so generation and stepping get separate spans.
"""

from __future__ import annotations

import random
import re
from contextlib import nullcontext
from dataclasses import dataclass, field

import inputs as gen
import reference as ref
from inputs import Table

# Symbols per scan window: a query takes 3-8 ms, so that a run has room
# for many passes over its queries (see Scan.passes).
WINDOW = (8_000, 12_000)
FACTOR_LEN = {"01": 12, "abc": 7}  # first occurrences average about 5k and 3k symbols
WARM = 20_000  # symbols of each shared word warmed in set-up; runs stay within it
CHECK_LEN = {"01": 5, "abc": 3}
REF_SYMBOLS = 200_000  # reference words cover every run of every workload  # all words up to this length check a language
BUCHI_CLI_FUEL = 1_000_000  # see Reduce.run_cli_infinite


@dataclass
class Query:
    kind: str
    p: dict
    files: dict[str, str] = field(default_factory=dict)  # name -> text, written before timing


class Env:
    """What one pass of a workload runs against."""

    def __init__(self, lib, cli, shared, tr=None):
        self.lib, self.cli, self.shared, self.tr = lib, cli, shared, tr
        self.paths: dict[str, str] = {}
        self.forced = {id(w): n for w, n in shared.get("warm", ())}
        self.last = None  # side channel from run to check (diagonal word)


def span(tr, name):
    return nullcontext() if tr is None else tr.span(name)


def count(tr, name, n=1):
    if tr is not None:
        tr.count(name, n)


def force(env, name, w, n, shared=False):
    """Traced runs generate the first n symbols in their own span."""
    tr = env.tr
    have = env.forced.get(id(w), 0) if shared else 0
    if tr is None or n <= have:
        return
    with tr.span(f"words.gen.{name}"):
        w.prefix(n)
    tr.count(f"words.gen.{name}.symbols", n - have)
    if shared:
        env.forced[id(w)] = n


def to_dfa(lib, alphabet, t: Table, prefix="s", base=0):
    """The library automaton of a table, states named prefix + number."""
    names = tuple(f"{prefix}{q + base}" for q in range(t.n))
    delta = {(names[q], s): names[r] for q, row in enumerate(t.trans) for s, r in zip(t.symbols, row)}
    return lib.Dfa(alphabet, names, delta, names[0], frozenset(names[q] for q in t.accepting))


def dfa(env, t: Table, prefix="s", base=0):
    with span(env.tr, "automata.build"):
        return to_dfa(env.lib, env.shared["alphabet"][t.symbols], t, prefix, base)


def call_cli(env, argv):
    """In-process ``realizability.cli.main``; an escaping exception propagates
    and fails the query instead of turning into an exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out = io.StringIO()
    with span(env.tr, "cli"), redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = env.cli.main(argv)
    count(env.tr, "cli.calls")
    return code, out.getvalue()


def answer_line(out) -> tuple | None:
    """(answer, evidence) from the CLI's first stdout line and exit code."""
    code, text = out
    m = re.match(r"ANSWER=(Yes|No|FuelExhausted) EVIDENCE=(\d+)\n", text)
    if m is None or code != {"Yes": 0, "No": 1, "FuelExhausted": 2}[m.group(1)]:
        return None
    return (m.group(1), int(m.group(2)))


def verdict(out) -> tuple | None:
    """(answer, evidence) of a Verdict whose steps match its evidence."""
    answer = getattr(out, "answer", None)
    if answer is None or out.steps_used != out.evidence:
        return None
    return (answer, out.evidence)


def decide(env, fn, *args):
    """A call into the decide module's stepping loop."""
    tr = env.tr
    with span(tr, "decide"):
        out = fn(*args)
    if tr is not None and fn in (env.lib.decide_prefix, env.lib.decide_buchi):
        tr.count("decide.attempts")
        tr.count("decide.resolved", int(hasattr(out, "answer")))
        tr.count("decide.steps", out.steps_used)
    return out


def fuel_from_definitive(env, a, w):
    """Derived fuel: occurrence bound of a definitive word."""
    tr, lib = env.tr, env.lib
    with span(tr, "definitive.word"):
        word = lib.find_definitive_word(a)
    count(tr, "definitive.word_len", len(word))
    return lib.Fuel(w.occurrence_bound(word))


def effective_decision(env, ea, w, buchi):
    """Traced split of a fuel-derived effective decision, up to the stepping
    loop: dead-locks, then derived fuel for the automaton that is run."""
    lib, tr = env.lib, env.tr
    count(tr, "effective.reduce_states", len(ea.states))
    with span(tr, "effective.dead_locks"):
        dead = lib.effective_dead_locks(ea)
    target = ea.with_accepting(dead) if buchi else ea
    with span(tr, "effective.fuel"):
        fuel = lib.Fuel(max(1, w.occurrence_bound(lib.definitive_index_sequence(target))))
    count(tr, "effective.fuel_symbols", fuel.max_steps)
    return target, fuel


def simulate(env, target, w, fuel, hint, buchi, fresh):
    """The traced stepping loop; a Buchi answer negates the variant's."""
    lib, tr = env.lib, env.tr
    force(env, "universal", w, hint.steps_used, shared=not fresh)
    with span(tr, "effective.simulate"):
        inner = lib.decide_prefix_infinite(target, w, fuel)
    count(tr, "effective.steps", inner.steps_used)
    if not buchi or not hasattr(inner, "answer"):
        return inner
    return lib.Verdict(lib.NO if inner.answer == lib.YES else lib.YES, inner.evidence, inner.steps_used)


class Workload:
    name: str
    # One cycle of (query kind, variant): every class of query once, so that
    # runs, which end on whole cycles, all have the same mix.
    schedule: tuple[tuple[str, object], ...]
    # Each query runs once per pass, the passes spread over the run; its
    # latency is the least of these, which the machine's slow spells inflate
    # only when they cover every pass.
    passes: int

    def fixtures(self, rng: random.Random) -> dict:
        """Seeded plain data for the shared objects (not timed)."""
        return {}

    def setup(self, lib, data) -> dict:
        """Shared library objects; timed as part of ``setup_s``."""
        return {"alphabet": {s: lib.Alphabet(tuple(s)) for s in ("01", "abc")}}

    def instrument(self, lib, shared, tr) -> dict:
        """The shared objects with their callbacks wrapped for a traced pass."""
        return shared

    @property
    def cycle(self) -> int:
        """Queries in one pass over the schedule; runs end on a whole cycle."""
        return len(self.schedule)

    def draw(self, seed: int, i: int, data) -> Query:
        rng = random.Random(f"{self.name}/{seed}/{i}")
        kind, variant = self.schedule[i % len(self.schedule)]
        return getattr(self, "draw_" + kind)(rng, data, variant)

    def run(self, env, q: Query, hint=None):
        return getattr(self, "run_" + q.kind)(env, q.p, hint)

    def check(self, env, refs, q: Query, out) -> bool:
        return getattr(self, "check_" + q.kind)(env, refs, q.p, out)


def _morphisms(lib) -> dict:
    return {gen.RUNS: lib.zero_one_runs(), gen.BLOCKS: lib.zero_one_blocks()}


def _counted(lib, phi, tr):
    """The morphism with its image and oracle callbacks counted and timed."""
    return lib.EffectiveMorphism(phi.alphabet, tr.counter("words.image_calls", phi.image),
                                 tr.timed("effective.oracle", phi.image_language_oracle))


def _counted_morphisms(lib, morphisms, tr) -> dict:
    return {spec: _counted(lib, phi, tr) for spec, phi in morphisms.items()}


def _spec(rng, v):
    """Morphism number v: zero_one_runs, zero_one_blocks, or (v >= 2) an
    index-periodic one drawn for this query, so that a run averages over
    many of them instead of following a few drawn once per seed."""
    return (gen.RUNS, gen.BLOCKS)[v] if v < 2 else gen.random_periodic(rng)


def _morphism(env, spec):
    """The shared morphism of a spec, or an index-periodic one built here."""
    shared = env.shared["morphism"]
    if spec in shared:
        return shared[spec]
    lib = env.lib
    with span(env.tr, "automata.build"):
        phi = lib.EffectiveMorphism.index_periodic(spec[1], env.shared["alphabet"]["01"])
    return phi if env.tr is None else _counted(lib, phi, env.tr)


MORPHISMS = range(5)


# ---------------------------------------------------------------------------


class Scan(Workload):
    """Long runs along fresh words: generation plus the stepping loop."""

    name = "scan"
    # The machine's speed changes every few seconds, by up to half; twelve
    # passes spread over the run let each query meet a fast spell.
    passes = 12
    DUMPS = (("champernowne", "01"), ("champernowne", "abc"), ("universal-indexed", None),
             ("morphism", "zero-one-runs"), ("morphism", "zero-one-blocks"))
    # Eight Champernowne windows hold the middle of the latency order, so the
    # median query is always one of them rather than a neighbour of another
    # kind, whose order would change with machine speed.
    schedule = (
        *[("factor", s) for s in ("01", "abc", "01", "abc")],
        *[("count", s) for s in ("01", "abc") * 4], *[("morph_count", v) for v in MORPHISMS],
        *[("brute", s) for s in ("01", "abc", 0, 1)],
        ("prefix_gen", None), *[("cli_dump", d) for d in DUMPS],
        ("cli_decide", ("01", False)), ("cli_decide", ("abc", True)),
    )

    def setup(self, lib, data):
        shared = super().setup(lib, data)
        shared["morphism"] = _morphisms(lib)
        return shared

    def instrument(self, lib, shared, tr):
        return {**shared, "morphism": _counted_morphisms(lib, shared["morphism"], tr)}

    def _word(self, env, source):
        """A fresh Champernowne word, or a fresh morphism image of the
        universal indexed word."""
        lib = env.lib
        if source in ("01", "abc"):
            return lib.champernowne(env.shared["alphabet"][source])
        return lib.apply_morphism(_morphism(env, source), lib.universal_indexed_word())

    @staticmethod
    def _gen_name(source):
        return "champernowne" if source in ("01", "abc") else "morphism"

    def _ref_text(self, refs, source, n):
        if source in ("01", "abc"):
            return refs.champ[source].upto(n)[:n]
        return ref.morphism_text(source, refs.universal, n)

    # factor queries: does the Champernowne word contain u?  prefix question of Sigma* u
    def draw_factor(self, rng, data, v):
        m = FACTOR_LEN[v]
        return Query("factor", {"u": gen.random_word(rng, v, m, m), "symbols": v})

    def run_factor(self, env, p, hint):
        lib, tr = env.lib, env.tr
        alphabet = env.shared["alphabet"][p["symbols"]]
        with span(tr, "omega.sigma_prefix"):
            a = lib.prepend_sigma_star(lib.literal_dfa(p["u"], alphabet))
        w = lib.champernowne(alphabet)
        fuel = w.occurrence_bound(p["u"])
        if tr is not None:
            force(env, "champernowne", w, hint.steps_used)
        return decide(env, lib.decide_prefix, a, w, fuel)

    def check_factor(self, env, refs, p, out):
        u, champ = p["u"], refs.champ[p["symbols"]]
        n = 2 * len(u)
        while (pos := champ.upto(n).find(u)) < 0:
            n *= 2
        return verdict(out) == ("Yes", pos + len(u))

    # windows: accepted-prefix counts and first accepted prefix
    def draw_count(self, rng, data, v):
        return Query("count", {"t": gen.random_table(rng, v, 2, 6), "source": v,
                               "n": rng.randint(*WINDOW)})

    def draw_morph_count(self, rng, data, v):
        return Query("count", {"t": gen.random_table(rng, "01", 2, 6), "source": _spec(rng, v),
                               "n": rng.randint(*WINDOW)})

    def run_count(self, env, p, hint):
        a = dfa(env, p["t"])
        w = self._word(env, p["source"])
        force(env, self._gen_name(p["source"]), w, p["n"] + 1)
        out = decide(env, env.lib.count_accepted_prefixes, a, w, p["n"])
        count(env.tr, "decide.steps", p["n"])
        return out

    def check_count(self, env, refs, p, out):
        return out == ref.count_accepted(p["t"], self._ref_text(refs, p["source"], p["n"]))

    def draw_brute(self, rng, data, v):
        source = v if v in ("01", "abc") else _spec(rng, v)
        symbols = v if v in ("01", "abc") else "01"
        return Query("brute", {"t": gen.random_table(rng, symbols, 2, 6, accept_p=0.2),
                               "source": source, "n": rng.randint(*WINDOW)})

    def run_brute(self, env, p, hint):
        a = dfa(env, p["t"])
        w = self._word(env, p["source"])
        # the scan reads one symbol past the window when nothing is accepted
        force(env, self._gen_name(p["source"]), w, p["n"] + 1 if hint is None else hint)
        out = decide(env, env.lib.brute_force_prefix_check, a, w, p["n"])
        count(env.tr, "decide.steps", p["n"] if out is None else out)
        return out

    def check_brute(self, env, refs, p, out):
        return out == ref.first_accepted(p["t"], self._ref_text(refs, p["source"], p["n"]))

    # plain generation of a fresh universal indexed word
    def draw_prefix_gen(self, rng, data, v):
        return Query("prefix_gen", {"n": rng.randint(*WINDOW)})

    def run_prefix_gen(self, env, p, hint):
        w = env.lib.universal_indexed_word()
        with span(env.tr, "words.gen.universal"):
            out = w.prefix(p["n"])
        count(env.tr, "words.gen.universal.symbols", p["n"])
        return out

    def check_prefix_gen(self, env, refs, p, out):
        return out == tuple(refs.universal.upto(p["n"])[1: p["n"] + 1])

    # CLI: word dump and fuel-derived decisions along the Champernowne word
    def draw_cli_dump(self, rng, data, v):
        return Query("cli_dump", {"dump": v, "n": rng.randint(*WINDOW)})

    def run_cli_dump(self, env, p, hint):
        gen_name, arg = p["dump"]
        argv = ["word", "dump", "--gen", gen_name, "--upto", str(p["n"])]
        if gen_name == "champernowne":
            argv += ["--alphabet", arg]
        elif gen_name == "morphism":
            argv += ["--morphism", arg]
        return call_cli(env, argv)

    def check_cli_dump(self, env, refs, p, out):
        gen_name, arg = p["dump"]
        n = p["n"]
        if gen_name == "champernowne":
            expected = refs.champ[arg].upto(n)[:n]
        elif gen_name == "universal-indexed":
            expected = " ".join(map(str, refs.universal.upto(n)[1: n + 1]))
        else:
            expected = ref.morphism_text(gen.RUNS if arg == "zero-one-runs" else gen.BLOCKS,
                                         refs.universal, n)
        return out == (0, expected + "\n")

    def draw_cli_decide(self, rng, data, v):
        symbols, buchi = v
        t = gen.random_table(rng, symbols, 2, 6, accept_p=0.3)
        return Query("cli_decide", {"t": t, "buchi": buchi},
                     {"a.dfa": gen.table_text(t)})

    def run_cli_decide(self, env, p, hint):
        t = p["t"]
        return call_cli(env, ["decide-buchi" if p["buchi"] else "decide-prefix", "--automaton",
                              env.paths["a.dfa"], "--gen", "champernowne", "--alphabet", t.symbols])

    def check_cli_decide(self, env, refs, p, out):
        check = ref.buchi_verdict if p["buchi"] else ref.prefix_verdict
        return answer_line(out) == check(p["t"], refs.champ[p["t"].symbols])


# ---------------------------------------------------------------------------


class Construct(Workload):
    """Many fresh small automata with short runs along one shared word."""

    name = "construct"
    passes = 15  # queries of 0.05 ms: many passes are cheap, and each may meet a fast spell
    # One CLI call per cycle, over a drawn alphabet: a call costs about 2.5 ms,
    # 30 times a library query, so two per cycle would set most of the time.
    schedule = (*((kind, s) for kind in (
        "definitive_word", "is_definitive", "witness", "language", "decide_prefix", "decide_buchi",
        "buchi_ultper", "limit_set", "muller", "regex") for s in ("01", "abc")),
        ("cli_definitive", None))

    def setup(self, lib, data):
        shared = super().setup(lib, data)
        words = {s: lib.champernowne(a) for s, a in shared["alphabet"].items()}
        for w in words.values():
            w.prefix(WARM)
        shared["word"] = words
        shared["warm"] = tuple((w, WARM) for w in words.values())
        return shared

    # Over three symbols the definitive language of an 8-state automaton
    # reaches 15,000 states in one draw of 800, and the peak memory of a run
    # would follow its single largest draw, so abc automata keep 6 states.
    MAX_STATES = {"01": 8, "abc": 6}
    # The constructions that search words (definitive_language, the CLI's
    # --language, definitive_witness) take 0.1 ms on most automata and over
    # 200 ms on one binary 8-state draw in a few thousand: a run's throughput
    # followed whether it drew one.  They get automata up to where the
    # largest of 400 draws costs under 50 times the mean.
    SEARCH_MAX_STATES = {"01": 6, "abc": 5}

    def _table(self, rng, symbols, limits=MAX_STATES):
        return gen.random_table(rng, symbols, 1, limits[symbols])

    def draw_definitive_word(self, rng, data, v):
        return Query("definitive_word", {"t": self._table(rng, v)})

    def run_definitive_word(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "definitive.word"):
            out = env.lib.find_definitive_word(a)
        count(env.tr, "definitive.word_len", len(out))
        return out

    def check_definitive_word(self, env, refs, p, out):
        return ref.is_definitive(p["t"], "".join(out))

    def draw_is_definitive(self, rng, data, v):
        t = self._table(rng, v)
        return Query("is_definitive", {"t": t, "w": gen.random_word(rng, t.symbols, 0, 8)})

    def run_is_definitive(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "definitive.check"):
            return env.lib.is_definitive(a, p["w"])

    def check_is_definitive(self, env, refs, p, out):
        outcomes = ref.definitive_outcomes(p["t"], p["w"])
        if None in outcomes:
            return type(out).__name__ == "Refutation" and out.state == f"s{outcomes.index(None)}"
        if type(out).__name__ != "DefinitiveCertificate" or out.word != tuple(p["w"]):
            return False
        got = {}
        for q, o in out.outcomes.items():
            kind = type(o).__name__
            got[q] = ("pass", o.position) if kind == "PassedAccepting" else ("dead", int(o.state[1:]))
        return got == {f"s{q}": o for q, o in enumerate(outcomes)}

    def draw_witness(self, rng, data, v):
        return Query("witness", {"t": self._table(rng, v, self.SEARCH_MAX_STATES)})

    def run_witness(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "definitive.witness"):
            return env.lib.definitive_witness(a)

    def check_witness(self, env, refs, p, out):
        return out is not None and "".join(out) == ref.least_definitive(p["t"])

    def draw_language(self, rng, data, v):
        return Query("language", {"t": self._table(rng, v, self.SEARCH_MAX_STATES)})

    def run_language(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "definitive.language"):
            out = env.lib.definitive_language(a)
        count(env.tr, "definitive.language_states", len(out.states))
        return out

    def check_language(self, env, refs, p, out):
        t = p["t"]
        return all(ref.delta_accepts(out.initial, out.accepting, out.delta, w) == ref.is_definitive(t, w)
                   for w in ref.words_upto(t.symbols, CHECK_LEN[t.symbols]))

    def draw_decide_prefix(self, rng, data, v):
        return Query("decide_prefix", {"t": self._table(rng, v)})

    def draw_decide_buchi(self, rng, data, v):
        return Query("decide_buchi", {"t": self._table(rng, v)})

    def _decide(self, env, p, hint, buchi):
        lib = env.lib
        a = dfa(env, p["t"])
        w = env.shared["word"][p["t"].symbols]
        if buchi:
            with span(env.tr, "automata.dead_lock"):
                variant = lib.deadlock_accepting_variant(a)
            fuel = fuel_from_definitive(env, variant, w)
        else:
            fuel = fuel_from_definitive(env, a, w)
        if env.tr is not None:
            force(env, "champernowne", w, hint.steps_used, shared=True)
        return decide(env, lib.decide_buchi if buchi else lib.decide_prefix, a, w, fuel)

    def run_decide_prefix(self, env, p, hint):
        return self._decide(env, p, hint, buchi=False)

    def run_decide_buchi(self, env, p, hint):
        return self._decide(env, p, hint, buchi=True)

    def check_decide_prefix(self, env, refs, p, out):
        return verdict(out) == ref.prefix_verdict(p["t"], refs.champ[p["t"].symbols])

    def check_decide_buchi(self, env, refs, p, out):
        return verdict(out) == ref.buchi_verdict(p["t"], refs.champ[p["t"].symbols])

    def _lasso(self, rng, kind, v):
        t = self._table(rng, v)
        stem, loop = gen.random_lasso(rng, t.symbols)
        return Query(kind, {"t": t, "stem": stem, "loop": loop, "family": gen.random_family(rng, t.n)})

    def draw_buchi_ultper(self, rng, data, v):
        return self._lasso(rng, "buchi_ultper", v)

    def draw_limit_set(self, rng, data, v):
        return self._lasso(rng, "limit_set", v)

    def draw_muller(self, rng, data, v):
        return self._lasso(rng, "muller", v)

    def run_buchi_ultper(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "omega.buchi_ultper"):
            return env.lib.buchi_accepts_ultper(a, p["stem"], p["loop"])

    def check_buchi_ultper(self, env, refs, p, out):
        return out is bool(ref.limit_set(p["t"], p["stem"], p["loop"]) & p["t"].accepting)

    def run_limit_set(self, env, p, hint):
        a = dfa(env, p["t"])
        with span(env.tr, "omega.limit_set"):
            return env.lib.limit_set_ultper(a, p["stem"], p["loop"])

    def check_limit_set(self, env, refs, p, out):
        return out == {f"s{q}" for q in ref.limit_set(p["t"], p["stem"], p["loop"])}

    def run_muller(self, env, p, hint):
        lib, tr, t = env.lib, env.tr, p["t"]
        a = dfa(env, t)
        family = frozenset(frozenset(f"s{q}" for q in member) for member in p["family"])
        with span(tr, "automata.build"):
            m = lib.MullerAutomaton(a.alphabet, a.states, a.delta, a.initial, family)

        def infinitely_often(d):
            with span(tr, "omega.buchi_ultper"):
                return lib.buchi_accepts_ultper(d, p["stem"], p["loop"])

        with span(tr, "omega.muller"):
            return lib.muller_acceptance_via_buchi_queries(m, infinitely_often)

    def check_muller(self, env, refs, p, out):
        return out is (ref.limit_set(p["t"], p["stem"], p["loop"]) in set(p["family"]))

    def draw_regex(self, rng, data, v):
        return Query("regex", {"pattern": gen.random_regex(rng, v), "symbols": v})

    def run_regex(self, env, p, hint):
        with span(env.tr, "automata.regex"):
            out = env.lib.regex_dfa(p["pattern"], env.shared["alphabet"][p["symbols"]])
        count(env.tr, "automata.regex_states", len(out.states))
        return out

    def check_regex(self, env, refs, p, out):
        compiled = re.compile(p["pattern"])
        return all(ref.delta_accepts(out.initial, out.accepting, out.delta, w)
                   == (compiled.fullmatch(w) is not None)
                   for w in ref.words_upto(p["symbols"], CHECK_LEN[p["symbols"]]))

    def draw_cli_definitive(self, rng, data, v):
        t = self._table(rng, rng.choice(("01", "abc")), self.SEARCH_MAX_STATES)
        return Query("cli_definitive", {"t": t}, {"a.dfa": gen.table_text(t)})

    def run_cli_definitive(self, env, p, hint):
        return call_cli(env, ["definitive", env.paths["a.dfa"], "--language"])

    def check_cli_definitive(self, env, refs, p, out):
        code, text = out
        t = p["t"]
        first, _, rest = text.partition("\n")
        if code != 0 or not first.startswith("DEFINITIVE="):
            return False
        if not ref.is_definitive(t, first[len("DEFINITIVE="):]):
            return False
        lang = ref.read_dfa(rest)
        return lang is not None and all(
            ref.delta_accepts(*lang, w) == ref.is_definitive(t, w)
            for w in ref.words_upto(t.symbols, CHECK_LEN[t.symbols]))


# ---------------------------------------------------------------------------


class Reduce(Workload):
    """Effective automata, morphism reductions and the rr bridge."""

    name = "reduce"
    # rr costs 1 ms to 150 ms, set by the automaton far more than by the
    # filter.  Every cycle asks each filter with a one-state automaton, and
    # four rr queries walk the 64 two-state automata in a seeded order, each
    # with the next filter in turn; a run ends on whole walks (RR_CYCLES
    # cycles), so every run pays for the same automata and only the order
    # and the other queries depend on the seed.  A third state multiplies
    # the spread of costs.  Ten CLI decide-infinite calls (1.2-1.5 ms) sit
    # between eight effective decisions (0.2 ms) and the costlier rest, so
    # that the median query is one of them rather than the edge between two
    # kinds whose share moves with the seed.
    passes = 5  # a pass holds the whole walk, about 4 s
    RR_WALK = 4
    RR_CYCLES = 16
    schedule = (
        *[("morph_prefix", v) for v in MORPHISMS], *[("morph_buchi", v) for v in MORPHISMS],
        *[(kind, None) for kind in ("eff_prefix", "eff_buchi") * 4],
        *[("rr", (f, 1)) for f in range(len(gen.FILTERS))], *[("rr", (k, 2)) for k in range(RR_WALK)],
        *[("cli_rr", (f, 1)) for f in range(len(gen.FILTERS))],
        *[("cli_infinite", buchi) for buchi in (False, True) * 5],
    )
    cycle = RR_CYCLES * len(schedule)

    def fixtures(self, rng):
        """For each state count, every rr automaton in a seeded order."""
        return {"rr": {n: rng.sample(tables, len(tables))
                       for n in (1, 2) for tables in [gen.all_tables("01", n)]}}

    def draw(self, seed, i, data):
        """rr queries by the walks above; the CLI's rr calls alternate the two
        one-state automata (5 ms and 15 ms) the same way."""
        kind, v = self.schedule[i % len(self.schedule)]
        if kind not in ("rr", "cli_rr"):
            return super().draw(seed, i, data)
        base = i // len(self.schedule)
        if v[1] == 1:
            f = v[0]
            tables = data["rr"][1]
            t = tables[(base + f + (kind == "cli_rr")) % len(tables)]
        else:
            step = base * self.RR_WALK + v[0]
            tables = data["rr"][2]
            t, f = tables[step % len(tables)], step % len(gen.FILTERS)
        if kind == "rr":
            return Query("rr", {"t": t, "f": f})
        return Query("cli_rr", {"t": t, "f": f},
                     {"r.dfa": gen.table_text(t), "filter.dfa": gen.table_text(gen.FILTERS[f])})

    def setup(self, lib, data):
        shared = super().setup(lib, data)
        shared["morphism"] = _morphisms(lib)
        shared["word"] = w = lib.universal_indexed_word()
        w.prefix(WARM)
        shared["warm"] = ((w, WARM),)
        binary = shared["alphabet"]["01"]
        shared["filter"] = [lib.FilterLanguage.from_dfa(to_dfa(lib, binary, f, "f")) for f in gen.FILTERS]
        return shared

    def instrument(self, lib, shared, tr):
        filters = [lib.FilterLanguage(f.alphabet, f.membership,
                                      tr.timed("bridge.enum", f.enumeration, keep=False),
                                      tr.timed("bridge.rr", f.rr)) for f in shared["filter"]]
        return {**shared, "morphism": _counted_morphisms(lib, shared["morphism"], tr),
                "filter": filters}

    def _morph(self, rng, data, kind, v):
        return Query(kind, {"t": gen.random_table(rng, "01", 3, 4), "spec": _spec(rng, v)})

    def draw_morph_prefix(self, rng, data, v):
        return self._morph(rng, data, "morph_prefix", v)

    def draw_morph_buchi(self, rng, data, v):
        return self._morph(rng, data, "morph_buchi", v)

    def _run_morph(self, env, p, hint, buchi):
        lib, tr = env.lib, env.tr
        a = dfa(env, p["t"])
        phi, w = _morphism(env, p["spec"]), env.shared["word"]
        if tr is None:
            return (lib.decide_buchi_morphism if buchi else lib.decide_prefix_morphism)(a, phi, w)
        with span(tr, "effective.reduce"):
            ea = lib.reduce_morphism_automaton(a, phi)
        target, fuel = effective_decision(env, ea, w, buchi)
        return simulate(env, target, w, fuel, hint, buchi, fresh=False)

    def run_morph_prefix(self, env, p, hint):
        return self._run_morph(env, p, hint, buchi=False)

    def run_morph_buchi(self, env, p, hint):
        return self._run_morph(env, p, hint, buchi=True)

    def check_morph_prefix(self, env, refs, p, out):
        return verdict(out) == ref.morphism_verdict(p["t"], p["spec"], refs.universal, buchi=False)

    def check_morph_buchi(self, env, refs, p, out):
        return verdict(out) == ref.morphism_verdict(p["t"], p["spec"], refs.universal, buchi=True)

    def _eff(self, rng, kind):
        e = gen.random_effective(rng)
        text = gen.effective_text(e)
        return Query(kind, {"e": e, "text": text}, {"e.ea": text})

    def draw_eff_prefix(self, rng, data, v):
        return self._eff(rng, "eff_prefix")

    def draw_eff_buchi(self, rng, data, v):
        return self._eff(rng, "eff_buchi")

    def _run_eff(self, env, p, hint, buchi):
        lib, tr, w = env.lib, env.tr, env.shared["word"]
        with span(tr, "textio.parse"):
            ea = lib.parse_effective(p["text"])
        if tr is None:
            if buchi:
                variant = ea.with_accepting(lib.effective_dead_locks(ea))
                return lib.decide_buchi_infinite(ea, w, lib.derived_fuel(variant, w))
            return lib.decide_prefix_infinite(ea, w, lib.derived_fuel(ea, w))
        target, fuel = effective_decision(env, ea, w, buchi)
        return simulate(env, target, w, fuel, hint, buchi, fresh=False)

    def run_eff_prefix(self, env, p, hint):
        return self._run_eff(env, p, hint, buchi=False)

    def run_eff_buchi(self, env, p, hint):
        return self._run_eff(env, p, hint, buchi=True)

    def check_eff_prefix(self, env, refs, p, out):
        return verdict(out) == ref.effective_verdict(p["e"], refs.universal, buchi=False)

    def check_eff_buchi(self, env, refs, p, out):
        return verdict(out) == ref.effective_verdict(p["e"], refs.universal, buchi=True)

    def run_rr(self, env, p, hint):
        lib, tr = env.lib, env.tr
        a = dfa(env, p["t"])
        lang = env.shared["filter"][p["f"]]
        if tr is None:
            return lib.rr_pipeline(a, lang)
        with span(tr, "bridge.rr_to_prefix"):
            r = lib.rr_to_prefix(a)
        count(tr, "bridge.rr_to_prefix_states", len(r.states))
        with span(tr, "bridge.filter_to_word"):
            phi, _image = lib.filter_to_word(lang)
        phi = _counted(lib, phi, tr)
        w = lib.universal_indexed_word()
        with span(tr, "effective.reduce"):
            ea = lib.reduce_morphism_automaton(r, phi)
        target, fuel = effective_decision(env, ea, w, buchi=False)
        return simulate(env, target, w, fuel, hint, buchi=False, fresh=True)

    def check_rr(self, env, refs, p, out):
        f = p["f"]
        return verdict(out) == ref.rr_verdict(p["t"], gen.FILTERS[f], refs.enum[f], refs.universal)

    def run_cli_rr(self, env, p, hint):
        return call_cli(env, ["rr", "--filter", env.paths["filter.dfa"], "--automaton", env.paths["r.dfa"]])

    def check_cli_rr(self, env, refs, p, out):
        f = p["f"]
        return answer_line(out) == ref.rr_verdict(p["t"], gen.FILTERS[f], refs.enum[f], refs.universal)

    def draw_cli_infinite(self, rng, data, v):
        q = self._eff(rng, "cli_infinite")
        q.p["buchi"] = v
        return q

    def run_cli_infinite(self, env, p, hint):
        # With --buchi and no --fuel the CLI derives fuel from the automaton
        # instead of its dead-lock-accepting variant and can report
        # FuelExhausted (test_bench.test_cli_buchi_derived_fuel), so --buchi
        # queries pass a fixed budget.
        fuel = ["--buchi", "--fuel", str(BUCHI_CLI_FUEL)] if p["buchi"] else []
        return call_cli(env, ["decide-infinite", "--effective", env.paths["e.ea"]] + fuel)

    def check_cli_infinite(self, env, refs, p, out):
        return answer_line(out) == ref.effective_verdict(p["e"], refs.universal, p["buchi"])


# ---------------------------------------------------------------------------


class Diagonal(Workload):
    """A fresh diagonal word per query, decided by the fuel-free decider."""

    name = "diagonal"
    schedule = (("theorem1", None),)
    MAX_INDEX = 50
    passes = 8  # each index runs four times a pass, so its time is the least of 32
    cycle = MAX_INDEX

    def draw(self, seed, i, data):
        """Each run of MAX_INDEX queries visits every index once, in a seeded
        order: a stage costs about index^4, so independent draws would let
        a few large indices set the whole run's throughput."""
        order = random.Random(f"{self.name}/{seed}/{i // self.MAX_INDEX}").sample(
            range(1, self.MAX_INDEX + 1), self.MAX_INDEX)
        return Query("theorem1", {"i": order[i % self.MAX_INDEX]})

    def setup(self, lib, data):
        shared = super().setup(lib, data)
        shared["machines"] = lib.parse_machines(gen.MACHINES_TEXT)
        return shared

    def run_theorem1(self, env, p, hint):
        lib, tr, i = env.lib, env.tr, p["i"]
        a = dfa(env, gen.canonical_table(i), prefix="q", base=1)
        machines = env.shared["machines"]
        w = env.last = lib.theorem1_word(machines)
        if tr is not None:
            with span(tr, "bridge.stage"):
                stage = w.ensure_stage(i)
            count(tr, "bridge.stage_symbols", stage.end)
        with span(tr, "bridge.theorem1_decide"):
            return lib.decide_prefix_theorem1(a, machines, word=w)

    def check_theorem1(self, env, refs, p, out):
        t = gen.canonical_table(p["i"])
        end = env.last.stage(p["i"]).end
        text = "".join(env.last.prefix(end))
        longest = refs.diagonal
        if not (text.startswith(longest) or longest.startswith(text)):
            return False  # the word must not depend on which query built it
        refs.diagonal = max(text, longest, key=len)
        if re.fullmatch(r"(10+1)*", text) is None:
            return False
        idx = {"0": 0, "1": 1}
        steps = []
        q = 0
        for s in text:
            q = t.trans[q][idx[s]]
            steps.append(q)
        try:
            expected = ref.resolve(0, t.accepting, ref.table_dead(t), iter(steps))
        except RuntimeError:
            expected = ("No", end)
        return verdict(out) == expected


WORKLOADS = {w.name: w for w in (Scan(), Construct(), Reduce(), Diagonal())}


class Refs:
    """The benchmark's own reference words, shared by the checks of one run.

    They are built to a fixed length before set-up, so that the memory they
    take is the same in every run and does not depend on the seed."""

    def __init__(self):
        self.champ = {s: ref.Champernowne(s) for s in ("01", "abc")}
        for word in self.champ.values():
            word.upto(REF_SYMBOLS)
        self.universal = ref.Universal()
        self.universal.upto(REF_SYMBOLS)
        self.enum = [ref.Enumeration(f) for f in gen.FILTERS]
        self.diagonal = ""
