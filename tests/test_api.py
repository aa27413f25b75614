"""The public surface the benchmark and outside callers build on.

``EXPORTS`` is frozen: a name may be added to ``realizability/__init__.py``,
but none of these may go.  The shape tests pin the constructor and record
layouts that ``bench/workloads.py`` uses directly.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

import realizability
from conftest import MACHINES_TEXT
from helpers import BINARY
from realizability import (
    MullerAutomaton,
    Stage,
    limit_set_ultper,
    parse_machines,
    theorem1_word,
)

EXPORTS = (
    "absorbing_accepting",
    "Alphabet",
    "AlphabetMismatchError",
    "apply_morphism",
    "as_word",
    "AugmentedState",
    "Automaton",
    "Block",
    "block_word_dfa",
    "brute_force_prefix_check",
    "buchi_accepts_ultper",
    "canonical_state_count_block",
    "champernowne",
    "complement",
    "concatenate",
    "count_accepted_prefixes",
    "dead_lock_states",
    "deadlock_accepting_variant",
    "decide_buchi",
    "decide_buchi_infinite",
    "decide_buchi_morphism",
    "decide_prefix",
    "decide_prefix_infinite",
    "decide_prefix_morphism",
    "decide_prefix_theorem1",
    "decode_dfa",
    "definitive_index_sequence",
    "definitive_language",
    "definitive_witness",
    "DefinitiveCertificate",
    "delta_relation",
    "derived_fuel",
    "determinize",
    "Dfa",
    "difference",
    "effective_dead_locks",
    "effective_from_index_sets",
    "EffectiveAutomaton",
    "EffectiveFormatError",
    "EffectiveMorphism",
    "empty_language",
    "encode_dfa",
    "EndedDeadLock",
    "EPSILON",
    "equivalent",
    "factor_search",
    "FACTOR_UNIVERSAL",
    "filter_to_word",
    "FilterLanguage",
    "find_definitive_word",
    "find_transition_witness",
    "FormatError",
    "Fuel",
    "FuelExhausted",
    "indexed_factor_search",
    "indexed_periodic",
    "IndexedInfiniteWord",
    "IndexSet",
    "InfiniteWord",
    "intersect",
    "is_definitive",
    "is_empty",
    "limit_set_ultper",
    "literal_dfa",
    "MachineList",
    "macrostate_automaton",
    "MorphismStallError",
    "muller_acceptance_via_buchi_queries",
    "muller_accepts_ultper",
    "MullerAutomaton",
    "Nfa",
    "NO",
    "Outcome",
    "parse_dfa",
    "parse_effective",
    "parse_machines",
    "parse_muller",
    "parse_nfa",
    "PassedAccepting",
    "prefix_via_rr",
    "prepend_sigma_star",
    "reachable_closure",
    "reachable_states",
    "reduce_morphism_automaton",
    "Refutation",
    "regex_dfa",
    "relabel_bfs",
    "render_word",
    "rr_pipeline",
    "rr_to_prefix",
    "serialize_dfa",
    "serialize_muller",
    "serialize_nfa",
    "shortlex_smallest",
    "sigma_star",
    "sigma_star_prefix",
    "split_blocks",
    "Stage",
    "star",
    "theorem1_word",
    "Theorem1Word",
    "ultimately_periodic",
    "union",
    "universal_indexed_word",
    "universal_round_end",
    "universal_round_length",
    "UNKNOWN",
    "Verdict",
    "with_initial",
    "Word",
    "words_upto",
    "YES",
    "zero_one_blocks",
    "zero_one_runs",
)


def test_every_exported_name_is_importable():
    assert [name for name in EXPORTS if not hasattr(realizability, name)] == []


def test_muller_automaton_takes_five_positional_arguments():
    delta = {("q0", "0"): "q1", ("q0", "1"): "q0", ("q1", "0"): "q0", ("q1", "1"): "q1"}
    family = frozenset({frozenset({"q0", "q1"})})
    m = MullerAutomaton(BINARY, ("q0", "q1"), delta, "q0", family)
    assert (m.alphabet, m.states, m.delta, m.initial, m.acceptance_family) == (
        BINARY,
        ("q0", "q1"),
        delta,
        "q0",
        family,
    )
    assert limit_set_ultper(m, "", "0") == frozenset({"q0", "q1"})


def test_stage_record_fields():
    stage = theorem1_word(parse_machines(MACHINES_TEXT)).stage(2)
    assert isinstance(stage, Stage)
    assert (stage.n, stage.alive, stage.patch_ranks, stage.end) == (2, (1, 2), (), 10)
    assert "".join(stage.machine_word) == "1011001"
    assert stage.patch_word == ()


def test_every_record_writes_its_init_out_over_its_fields():
    # a generated __init__ interns one throwaway name per field on every import
    records = {obj for module in list(sys.modules.values()) if module.__name__.startswith("realizability")
               for obj in vars(module).values() if dataclasses.is_dataclass(obj) and isinstance(obj, type)}
    assert {cls.__name__ for cls in records} >= {"Alphabet", "Dfa", "Stage", "Verdict", "MullerAutomaton"}
    for cls in records:
        assert cls.__init__.__code__.co_filename == inspect.getfile(cls), cls
        params = list(inspect.signature(cls).parameters.values())
        fields = [f for f in dataclasses.fields(cls) if f.init]
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default) for f in fields
        ], cls


@pytest.mark.parametrize(
    "name", ["decide_prefix", "decide_buchi", "decide_prefix_infinite", "decide_buchi_infinite"]
)
def test_deciders_take_optional_fuel_then_on_step(name):
    # fuel=None derives the budget from the automaton the decider steps
    params = list(inspect.signature(getattr(realizability, name)).parameters.values())
    assert [(p.name, p.default) for p in params[2:]] == [("fuel", None), ("on_step", None)]
    assert [p.default for p in params[:2]] == [inspect.Parameter.empty] * 2


@pytest.mark.parametrize("name", ["decide_prefix_morphism", "decide_buchi_morphism"])
def test_morphism_deciders_take_optional_fuel(name):
    params = list(inspect.signature(getattr(realizability, name)).parameters.values())
    assert [(p.name, p.default) for p in params[3:]] == [("fuel", None)]


def test_every_fuel_parameter_defaults_to_none():
    # fuel=None derives the budget, so a decider that misses the default is not total
    defaults = {}
    for name in EXPORTS:
        obj = getattr(realizability, name)
        params = inspect.signature(obj).parameters if inspect.isfunction(obj) else {}
        if "fuel" in params:
            defaults[name] = params["fuel"].default
    assert "prefix_via_rr" in defaults
    assert {name: d for name, d in defaults.items() if d is not None} == {}


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names in order to export them
    unused = []
    for path in sorted(Path(realizability.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_the_library_imports_only_the_standard_library():
    # the package is stdlib-only: every import is relative or names a standard module
    foreign = []
    for path in sorted(Path(realizability.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_every_f_string_has_a_placeholder():
    # an f prefix without a placeholder is a leftover, or a value that was meant and lost
    bare = []
    for path in sorted(Path(realizability.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        specs = {id(node.format_spec) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue)}
        bare += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            and id(node) not in specs  # the spec of f"{x:>4}" is an f-string of constants
            and not any(isinstance(value, ast.FormattedValue) for value in node.values)
        ]
    assert bare == []


def _uses(nodes: list[ast.AST]) -> set[str]:
    """Every name, attribute and imported name inside ``nodes``."""
    uses: set[str] = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions() -> tuple[list[tuple[str, str]], list[tuple[str, str]], set[str]]:
    """The library's private top-level names and private methods, each as (label, name), and
    every name some definition uses; a definition does not count as its own use."""
    top: list[tuple[str, str]] = []
    methods: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for path in sorted(Path(realizability.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            top += [(f"{path.name} {name}", name) for name in sorted(own) if _private(name)]
            if not isinstance(stmt, ast.ClassDef):
                referenced |= _uses([stmt]) - own
                continue
            defs = [node for node in stmt.body if isinstance(node, ast.FunctionDef)]
            methods += [(f"{path.name} {stmt.name}.{m.name}", m.name) for m in defs if _private(m.name)]
            rest = [node for node in stmt.body if node not in defs]
            referenced |= _uses(rest + stmt.bases + stmt.decorator_list) - own
            for m in defs:  # each method apart, so that its own body is no use of it
                referenced |= _uses([m]) - own - {m.name}
    return top, methods, referenced


def test_every_private_top_level_name_is_used():
    # a helper that a simplification leaves without callers should go with it
    top, _methods, referenced = _private_definitions()
    assert sorted(label for label, name in top if name not in referenced) == []


def test_every_private_method_is_used():
    # so should a private method, also one that outlived the class it was written for
    _top, methods, referenced = _private_definitions()
    assert methods  # Theorem1Word._generate, the word buffer's _pull, ...
    assert sorted(label for label, name in methods if name not in referenced) == []
