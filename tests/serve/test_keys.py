"""The ``repro-key/v1`` scheme: stability, invariance, and sensitivity.

The cache is only sound if the key is exactly as blind as the engine:
invariant under concrete-syntax noise (whitespace, comments — the
engine never sees them), distinct under anything the engine *does* see
(semantic edits, config knobs, property selection).
"""

import pytest
from hypothesis import given, settings

from repro.engine import EngineConfig
from repro.errors import ParseError
from repro.lang import module_to_str, parse_module
from repro.serve.keys import canonical_rml, model_key, request_key

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
    def test_exactly_one_of_rml_and_target(self):
        with pytest.raises(ValueError):
            request_key()
        with pytest.raises(ValueError):
            request_key(rml=BASE, target="counter")

    def test_rml_and_builtin_never_collide(self):
        assert request_key(rml=BASE) != request_key(target="counter")

    def test_rml_accepts_parsed_module(self):
        module = parse_module(BASE)
        assert request_key(rml=BASE) == request_key(rml=module)

    def test_config_is_part_of_the_key(self):
        mono = EngineConfig(trans="mono")
        assert request_key(rml=BASE) != request_key(rml=BASE, config=mono)
        assert request_key(target="counter") != request_key(
            target="counter", config=mono
        )

    def test_property_selection_is_part_of_the_key(self):
        base = request_key(target="counter")
        assert base != request_key(target="counter", stage="partial")
        assert base != request_key(target="counter", buggy=True)
        assert request_key(target="counter", stage="partial") != request_key(
            target="counter", stage="full"
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
