"""Tests for ``build_fsm``: the FSM an elaborated ``.rml`` module compiles to."""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.bdd import Function
from repro.circuits import build_pipeline
from repro.engine import EngineConfig
from repro.expr import parse_expr
from repro.fsm import NEXT_SUFFIX, TRANS_MODES
from repro.lang import elaborate, load_module, parse_module
from repro.obs.bench import WORD_COMPARE_RML

from ..builtins import rml_fsm

ROOT = Path(__file__).resolve().parents[2]


def build_toggle():
    return rml_fsm("""
MODULE toggle
VAR
  en : boolean;
  t : boolean;
ASSIGN
  next(t) := t ^ en;
""")


def build_mod3_counter():
    return rml_fsm("""
MODULE mod3
VAR
  c : word[2];
ASSIGN
  init(c) := 0;
  next(c) := case
    c = 2 : 0;
    TRUE : c + 1;
  esac;
DEFINE
  at_top := c = 2;
""")


class TestDeclarations:
    def test_config_policy_reaches_the_new_manager(self):
        config = EngineConfig(gc_threshold=40, cache_threshold=77)
        fsm = rml_fsm("MODULE x\nVAR\n  a : boolean;\nASSIGN\n  next(a) := !a;\n",
                      config=config)
        assert fsm.manager.policy == config.policy()

    def test_define_chain_resolves(self):
        fsm = rml_fsm("""
MODULE x
VAR
  a : boolean;
ASSIGN
  init(a) := TRUE;
  next(a) := a;
DEFINE
  d1 := a;
  d2 := !d1;
""")
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
        fsm = rml_fsm("""
MODULE f
VAR
  stall : boolean;
  x : boolean;
ASSIGN
  next(x) := x | !stall;
FAIRNESS !stall;
""")
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


class TestManagerLifetime:
    """Dropping an FSM frees its BDD manager by reference counting alone:
    nothing the build leaves behind holds the manager in a cycle that only
    the cyclic collector could break."""

    @pytest.fixture(autouse=True)
    def cyclic_gc_off(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("trans", TRANS_MODES)
    def test_builtin_fsm_frees_its_manager(self, trans):
        manager = weakref.ref(
            build_pipeline(3, config=EngineConfig(trans=trans)).manager
        )
        assert manager() is None

    @pytest.mark.parametrize("trans", TRANS_MODES)
    def test_elaborated_fsm_frees_its_manager(self, trans):
        model = elaborate(
            load_module(ROOT / "examples" / "counter.rml"),
            config=EngineConfig(trans=trans),
        )
        manager = weakref.ref(model.fsm.manager)
        del model
        assert manager() is None
