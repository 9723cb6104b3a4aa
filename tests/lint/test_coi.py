"""Cone-of-influence analysis cross-checked against explicit semantics.

The lint COI is purely structural (a dependency closure over the parsed
module), but it makes a semantic claim: a latch *outside* the observed
cone cannot influence any observed signal.  These tests validate that
claim against the ground-truth :class:`ExplicitModel` — rewriting the
next-state logic of an out-of-cone latch must leave the projection of
the state graph onto in-cone signals byte-identical, while the same
edit to an in-cone latch must not.
"""

from repro.fsm.explicit import enumerate_model
from repro.lang import elaborate, parse_module
from repro.lang.check import check_module
from repro.lint.coi import (
    observed_cone,
    property_cones,
    spec_seeds,
    union_property_cone,
)

BASE = """MODULE coi
VAR
  x : boolean;
  w : word[2];
  y : boolean;
ASSIGN
  init(x) := 0;
  next(x) := w = 3;
  init(w) := 0;
  next(w) := w + 1;
  init(y) := 0;
  next(y) := {y_next};
SPEC AG (x | y);
OBSERVED x;
"""


def cones_of(source):
    return check_module(parse_module(source, filename="coi.rml"))


def flatten(names, table):
    """Expand word names in ``names`` to their per-bit signal names, the
    granularity :class:`ExplicitModel` labels states with."""
    flat = set()
    for name in names:
        flat.update(table.word_bits.get(name, [name]))
    return flat


def projected_graph(source, names):
    """The state graph of ``source`` with labels restricted to ``names``:
    projected initial labels plus the set of projected edges."""
    model = enumerate_model(elaborate(parse_module(source)).fsm)

    def label(i):
        return tuple(
            (name, model.signal_values[i][name]) for name in sorted(names)
        )

    initials = {label(i) for i in model.initial}
    edges = {
        (label(i), label(j))
        for i in range(model.n)
        for j in model.successors[i]
    }
    return initials, edges


class TestStructuralCones:
    def test_observed_cone_is_dependency_closure(self):
        check = cones_of(BASE.format(y_next="!y"))
        # x depends on w; y is its own island.
        assert observed_cone(check) == {"x", "w"}

    def test_property_cone_follows_spec_atoms(self):
        check = cones_of(BASE.format(y_next="!y"))
        (cone,) = property_cones(check.graph, spec_seeds(check))
        assert cone == union_property_cone(check.graph, spec_seeds(check))
        # AG (x | y) mentions both latches; closure pulls in w through x.
        assert cone == {"x", "w", "y"}

    def test_word_bit_atoms_resolve_to_parent_word(self):
        source = BASE.format(y_next="!y").replace(
            "SPEC AG (x | y);", "SPEC AG (x | w1);"
        )
        check = cones_of(source)
        assert union_property_cone(check.graph, spec_seeds(check)) == {"x", "w"}


class TestSemanticCrossCheck:
    def test_out_of_cone_edit_is_observationally_invisible(self):
        check = cones_of(BASE.format(y_next="!y"))
        cone = flatten(observed_cone(check), check.table)
        assert "y" not in cone
        reference = projected_graph(BASE.format(y_next="!y"), cone)
        for y_next in ("y", "x | y", "FALSE"):
            variant = projected_graph(BASE.format(y_next=y_next), cone)
            assert variant == reference, y_next

    def test_in_cone_edit_is_observationally_visible(self):
        # Positive control: the same experiment on an in-cone latch must
        # change the projection, or the previous test proves nothing.
        check = cones_of(BASE.format(y_next="!y"))
        cone = flatten(observed_cone(check), check.table)
        assert "w0" in cone
        reference = projected_graph(BASE.format(y_next="!y"), cone)
        variant_source = BASE.format(y_next="!y").replace(
            "next(w) := w + 1;", "next(w) := w;"
        )
        assert projected_graph(variant_source, cone) != reference

    def test_cone_projection_hides_dead_state_blowup(self):
        # Driving the dead latch from a free input blows up the raw
        # state count; the projection onto the observed cone must not
        # grow with it.
        source = BASE.format(y_next="j").replace(
            "  y : boolean;", "  y : boolean;\n  j : boolean;"
        )
        check = cones_of(source)
        cone = flatten(observed_cone(check), check.table)
        assert cone == {"x", "w0", "w1"}
        model = enumerate_model(elaborate(parse_module(source)).fsm)
        _, edges = projected_graph(source, cone)
        projected_states = {src for src, _ in edges} | {
            dst for _, dst in edges
        }
        assert len(projected_states) < model.n
