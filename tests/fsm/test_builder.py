"""Tests for CircuitBuilder compilation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdd import Function
from repro.circuits import build_pipeline
from repro.errors import ModelError
from repro.expr import parse_expr
from repro.expr.arith import increment_mod_bits
from repro.fsm import NEXT_SUFFIX, CircuitBuilder
from repro.lang import elaborate, parse_module
from repro.obs.bench import WORD_COMPARE_RML

ROOT = Path(__file__).resolve().parents[2]


def build_toggle():
    b = CircuitBuilder("toggle")
    b.input("en")
    b.latch("t", init=False, next_="t ^ en")
    return b.build()


def build_mod3_counter():
    b = CircuitBuilder("mod3")
    bits = [f"c{i}" for i in range(2)]
    nxt = increment_mod_bits(bits, 3)
    b.latch("c0", init=False, next_=nxt[0])
    b.latch("c1", init=False, next_=nxt[1])
    b.word("c", bits)
    b.define("at_top", "c = 2")
    return b.build()


class TestDeclarations:
    def test_duplicate_name_rejected(self):
        b = CircuitBuilder("x")
        b.input("a")
        with pytest.raises(ModelError):
            b.latch("a", init=False, next_="a")

    def test_reserved_suffix_rejected(self):
        b = CircuitBuilder("x")
        with pytest.raises(ModelError):
            b.input("a#next")

    def test_empty_circuit_rejected(self):
        with pytest.raises(ModelError):
            CircuitBuilder("empty").build()

    def test_word_latch_width_mismatch(self):
        b = CircuitBuilder("x")
        with pytest.raises(ModelError):
            b.word_latch("w", width=2, init=0, next_=["w0"])

    def test_unknown_signal_in_next_rejected_at_build(self):
        b = CircuitBuilder("x")
        b.latch("a", init=False, next_="ghost")
        with pytest.raises(ModelError):
            b.build()

    def test_combinational_cycle_rejected(self):
        b = CircuitBuilder("x")
        b.latch("a", init=False, next_="a")
        b.define("d1", "d2")
        b.define("d2", "d1")
        with pytest.raises(ModelError):
            b.build()

    def test_define_chain_resolves(self):
        b = CircuitBuilder("x")
        b.latch("a", init=True, next_="a")
        b.define("d1", "a")
        b.define("d2", "!d1")
        fsm = b.build()
        assert fsm.signal("d2") == ~fsm.signal("a")


class TestCompiledStructure:
    def test_interleaved_variable_order(self):
        fsm = build_toggle()
        order = fsm.manager.var_names
        assert order == ["t", "t#next", "en", "en#next"]

    def test_state_vars_latches_inputs(self):
        fsm = build_toggle()
        assert fsm.state_vars == ["t", "en"]
        assert fsm.latches == ["t"]
        assert fsm.inputs == ["en"]

    def test_init_constrains_latches_only(self):
        fsm = build_toggle()
        # init: t=0, en free -> 2 states
        assert fsm.count_states(fsm.init) == 2

    def test_transition_semantics_of_toggle(self):
        fsm = build_toggle()
        # From t=0,en=1 the only latch successor is t=1 (en' free).
        start = fsm.state_cube({"t": False, "en": True})
        succ = fsm.image(start)
        expected = fsm.signal("t")  # t=1, en free
        assert succ == expected

    def test_stalled_toggle_keeps_value(self):
        fsm = build_toggle()
        start = fsm.state_cube({"t": True, "en": False})
        succ = fsm.image(start)
        assert succ == fsm.signal("t")


class TestModCounter:
    def test_reachable_excludes_unused_encoding(self):
        fsm = build_mod3_counter()
        # Counter counts 0,1,2: value 3 is unreachable.
        reach = fsm.reachable()
        assert fsm.count_states(reach) == 3
        three = fsm.symbolize(parse_expr("c = 3"))
        assert not reach.intersects(three)

    def test_counting_sequence(self):
        fsm = build_mod3_counter()
        zero = fsm.symbolize(parse_expr("c = 0"))
        one = fsm.symbolize(parse_expr("c = 1"))
        two = fsm.symbolize(parse_expr("c = 2"))
        # Image of {0} is {1}, of {1} is {2}, of {2} wraps to {0}.
        assert fsm.image(zero).subseteq(one)
        assert fsm.image(one).subseteq(two)
        assert fsm.image(two).subseteq(zero)

    def test_define_signal(self):
        fsm = build_mod3_counter()
        assert fsm.signal("at_top") == fsm.symbolize(parse_expr("c = 2"))


class TestFairness:
    def test_fairness_symbolized(self):
        b = CircuitBuilder("f")
        b.input("stall")
        b.latch("x", init=False, next_="x | !stall")
        b.fairness("!stall")
        fsm = b.build()
        assert len(fsm.fairness) == 1
        assert fsm.fairness[0] == ~fsm.signal("stall")


#: Prints the derived order of every builtin target and every shipped
#: ``.rml`` example as one JSON document.
ORDERS_SCRIPT = """
import json, sys
from pathlib import Path
from repro.circuits import BUILTIN_TARGETS, builtin_source
from repro.lang import elaborate, load_module, parse_module
def order(text):
    return elaborate(parse_module(text)).fsm.manager.var_names
orders = {name: order(builtin_source(name)) for name in BUILTIN_TARGETS}
orders["buffer-lo --buggy"] = order(builtin_source("buffer-lo", buggy=True))
for path in sorted(Path(sys.argv[1]).glob("*.rml")):
    orders[path.name] = elaborate(load_module(path)).fsm.manager.var_names
print(json.dumps(orders))
"""


class TestDerivedOrder:
    """The BDD order follows the next-state dependencies, not declaration."""

    def test_pipeline_controls_sit_above_the_stages(self):
        fsm = build_pipeline(stages=3)
        order = fsm.manager.var_names
        level = {name: position for position, name in enumerate(order)}
        for control in ("stall", "h0", "h1"):
            assert level[control] < level["v1"]
        for var in fsm.state_vars:
            assert level[var + NEXT_SUFFIX] == level[var] + 1
        assert fsm.state_vars == [
            "v1", "d1", "v2", "d2", "v3", "d3", "h0", "h1",
            "in_valid", "in_data", "stall",
        ]

    def test_words_that_meet_are_interleaved_by_index(self):
        # The bench registry's word-compare model (``next(a) := x``,
        # ``next(b) := x``, ``same := a = b``) narrowed to 4 bits.
        fsm = elaborate(parse_module(WORD_COMPARE_RML.replace("[12]", "[4]"))).fsm
        current = [
            name for name in fsm.manager.var_names
            if not name.endswith(NEXT_SUFFIX)
        ]
        assert [name[1:] for name in current] == [
            str(index) for index in range(4) for _word in "xab"
        ]

    def test_initial_set_is_one_cube(self):
        fsm = build_pipeline(stages=90)
        # Folding the 182 latch literals one by one creates ~19k nodes.
        assert fsm.manager.created_nodes < 5000
        fold = Function.true(fsm.manager)
        for latch in fsm.latches:
            fold = fold & ~fsm.signal(latch)
        assert fsm.init == fold

    def test_order_ignores_the_hash_seed(self):
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(ROOT / "src"))
            proc = subprocess.run(
                [sys.executable, "-c", ORDERS_SCRIPT, str(ROOT / "examples")],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        examples = [path.name for path in (ROOT / "examples").glob("*.rml")]
        assert examples and set(examples) <= set(outputs[0])
