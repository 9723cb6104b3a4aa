"""The ``repro-key/v2`` scheme: stability, invariance, and sensitivity.

The cache is only sound if the key is exactly as blind as the engine:
invariant under concrete-syntax noise (whitespace, comments — the
engine never sees them), distinct under anything the engine *does* see
(semantic edits, config knobs, property selection), and distinct under
the fields a result echoes back (name, path, stage).
"""

import pytest
from hypothesis import given, settings

from repro.engine import EngineConfig
from repro.errors import ParseError
from repro.lang import module_to_str, parse_module
from repro.serve.keys import canonical_rml, model_key, request_key
from repro.suite.registry import builtin_source

from ..strategies import modules

BASE = (
    "MODULE m\n"
    "VAR x : boolean;\n"
    "ASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\n"
    "OBSERVED x;\n"
)

# The same module under concrete-syntax noise only: re-indented, blank
# lines, `--` comments.  The grammar treats all of it as trivia.
NOISY = (
    "MODULE m  -- a comment\n"
    "\n"
    "  VAR x : boolean;\n"
    "-- standalone comment line\n"
    "  ASSIGN next(x) := !x;\n"
    "\n"
    "  SPEC AG (x | !x);\n"
    "  OBSERVED x;  -- trailing\n"
)

# One semantic edit (negation dropped from the assignment).
SEMANTIC_EDIT = BASE.replace("next(x) := !x", "next(x) := x")


class TestModelKey:
    def test_whitespace_and_comment_edits_share_a_key(self):
        assert model_key(BASE) == model_key(NOISY)

    def test_semantic_edit_changes_the_key(self):
        assert model_key(BASE) != model_key(SEMANTIC_EDIT)

    def test_text_and_parsed_module_agree(self):
        module = parse_module(BASE)
        assert model_key(BASE) == model_key(module)

    def test_canonical_form_is_the_printers(self):
        assert canonical_rml(NOISY) == module_to_str(parse_module(NOISY))

    def test_invalid_text_raises_parse_error(self):
        with pytest.raises(ParseError):
            model_key("MODULE broken\nVAR ; ;\n")

    @settings(max_examples=25, deadline=None)
    @given(generated=modules())
    def test_reprint_fixpoint_for_generated_models(self, generated):
        """For any generated model, the canonical text is a fixpoint:
        hashing the reprint equals hashing the original — the property
        behind whitespace/comment invariance."""
        assert model_key(generated.text) == model_key(
            canonical_rml(generated.text)
        )

    @settings(max_examples=25, deadline=None)
    @given(generated=modules())
    def test_comment_only_edit_never_splits_generated_models(self, generated):
        commented = "-- leading comment\n" + generated.text.replace(
            "\n", "  -- note\n", 1
        )
        assert model_key(generated.text) == model_key(commented)


class TestRequestKey:
    def test_builtins_are_keyed_by_their_text(self):
        """There is no builtin key kind: a builtin target's key is its
        module text's, so a stage (another suite) or an edit to the
        circuit lands on another key."""
        with pytest.raises(TypeError):
            request_key(target="counter")
        full = builtin_source("counter", "full")
        assert request_key(full) == request_key(parse_module(full))
        assert request_key(full) != request_key(builtin_source("counter", "partial"))
        edited = full.replace("stall : count;", "stall : count + 1;")
        assert edited != full
        assert request_key(full) != request_key(edited)

    def test_rml_accepts_parsed_module(self):
        module = parse_module(BASE)
        assert request_key(rml=BASE) == request_key(rml=module)

    def test_config_is_part_of_the_key(self):
        mono = EngineConfig(trans="mono")
        assert request_key(rml=BASE) != request_key(rml=BASE, config=mono)

    def test_echoed_fields_are_part_of_the_key(self):
        base = request_key(BASE)
        keys = {
            base,
            request_key(BASE, name="rml:a"),
            request_key(BASE, name="rml:b"),
            request_key(BASE, path="a/m.rml"),
            request_key(BASE, stage="final"),
        }
        assert len(keys) == 5

    def test_echoed_fields_cannot_spill_into_each_other(self):
        # Each field is JSON-encoded on its own header line, so a value
        # holding a newline and another field's text stays one value.
        assert request_key(BASE, name='a\npath="p"') != request_key(
            BASE, name="a", path="p"
        )

    def test_default_config_is_explicit_not_absent(self):
        """An explicitly-passed default config and no config at all are
        the same request — defaults are serialised, not omitted."""
        assert request_key(rml=BASE) == request_key(
            rml=BASE, config=EngineConfig()
        )

    def test_keys_are_stable_hex_digests(self):
        key = request_key(rml=BASE)
        assert len(key) == 64
        assert key == request_key(rml=BASE)
        int(key, 16)  # hex or bust
