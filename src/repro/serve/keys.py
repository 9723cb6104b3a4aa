"""Content-addressed request keys — the ``repro-key/v2`` scheme.

The paper's coverage metric is a pure function of (model, property suite,
engine config): two requests that agree on those, and on the fields the
result echoes back, produce byte-identical
:class:`~repro.analysis.AnalysisResult` JSON.  This module turns a request
into one stable hex digest the cache and the in-flight deduplicator index
by.

Scheme ``repro-key/v2``
-----------------------
The digest is ``sha256`` over a newline-joined header block::

    repro-key/v2
    model=<sha256 of the reprinted module>
    name=<JSON string or null>
    path=<JSON string or null>
    stage=<JSON string or null>
    config=<EngineConfig.fingerprint()>

* ``model`` is the ``sha256`` of the module's *reprinted* source: the text
  is parsed and printed back through the canonical printer
  (:func:`repro.lang.module_to_str`), so whitespace, comments, and other
  concrete-syntax noise never split the cache, while any semantic edit
  (a renamed variable, a changed assignment, an added SPEC) lands on a
  different key.  The module carries its own property suite; a builtin
  target is keyed by the text :func:`~repro.circuits.builtin_source`
  renders, so an edit to a circuit changes its key.
* ``name``, ``path`` and ``stage`` are the fields the result echoes
  from the request, JSON-encoded so no value can spill into the next
  line: a request for the same model under another name or path is a
  different answer.
* ``config`` is the engine config's canonical JSON fingerprint
  (:meth:`repro.engine.EngineConfig.fingerprint`), every field explicit,
  so new engine knobs join the key automatically.

Like the lint code catalogue, the scheme is **append-only**: any change
to how a component is serialised (a new printer normalisation, a new
header line) must bump the leading version tag so old cache entries can
never be misread as answers to new keys.  Entry-level invalidation on
engine upgrades is the cache's job (see :mod:`repro.serve.cache`), not
the key's.

    >>> from repro.engine import EngineConfig
    >>> a = model_key("MODULE m VAR x : boolean;\\nASSIGN next(x) := !x;\\n"
    ...               "SPEC AG (x | !x); OBSERVED x;")
    >>> b = model_key("MODULE m  -- comment\\n  VAR x : boolean;\\n\\n"
    ...               "ASSIGN next(x) := !x;\\nSPEC AG (x | !x);\\nOBSERVED x;")
    >>> a == b
    True
    >>> text = "MODULE m VAR x : boolean;\\nASSIGN next(x) := !x;\\nOBSERVED x;"
    >>> request_key(text, name="a") != request_key(text, name="b")
    True
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Union

from ..engine import EngineConfig
from ..lang import module_to_str, parse_module
from ..lang.ast import Module

__all__ = ["KEY_SCHEME", "canonical_rml", "model_key", "request_key"]

#: Version tag of the key scheme (append-only; bump on any serialisation
#: change so stale cache entries self-invalidate by key mismatch).
KEY_SCHEME = "repro-key/v2"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_rml(
    source: Union[str, Module], filename: Optional[str] = None
) -> str:
    """The parser∘printer normal form of ``source``.

    Accepts module text or an already-parsed :class:`~repro.lang.Module`
    (the server reuses the module it parsed for key computation).  Raises
    :class:`~repro.errors.ParseError` for invalid text.
    """
    module = (
        source
        if isinstance(source, Module)
        else parse_module(source, filename=filename)
    )
    return module_to_str(module)


def model_key(
    source: Union[str, Module], filename: Optional[str] = None
) -> str:
    """sha256 of the reprint-normalised model — invariant under
    whitespace/comment-only edits, distinct under any semantic edit."""
    return _sha256(canonical_rml(source, filename=filename))


def request_key(
    rml: Union[str, Module],
    *,
    config: Optional[EngineConfig] = None,
    name: Optional[str] = None,
    path: Optional[str] = None,
    stage: Optional[str] = None,
) -> str:
    """The ``repro-key/v2`` digest of one analysis request.

    ``rml`` is the module text (parsed with ``path`` as its file name) or
    an already-parsed module; ``name``, ``path`` and ``stage`` are the
    fields the result echoes.  ``config`` defaults to the default
    :class:`~repro.engine.EngineConfig`.
    """
    config = config if config is not None else EngineConfig()
    header = "\n".join(
        (
            KEY_SCHEME,
            f"model={model_key(rml, filename=path)}",
            f"name={json.dumps(name)}",
            f"path={json.dumps(path)}",
            f"stage={json.dumps(stage)}",
            f"config={config.fingerprint()}",
        )
    )
    return _sha256(header)
