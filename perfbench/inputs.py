"""Seeded benchmark inputs: widened pipelines, a generated corpus, and the
serve request schedule.

Every input is a pure function of the ``--seed`` the benchmark was given;
the program under test only ever sees the generated files and request
bodies.  Functions that need the ``repro`` generator import it lazily, so
this module imports without the program on ``sys.path``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

#: Circuit 3 widened until its reachable set outgrows the BDD manager's
#: default 250k-node GC trigger (~285k nodes at 90 stages).
DEEP_STAGES = 90
#: Small enough that reachability is trivial, deep enough that the nested
#: fair Untils churn ~490k nodes through backward fixpoints.
FAIR_STAGES = 14
#: Generated models in the suite corpus (the builtins ride along).
CORPUS_SIZE = 200
#: Distinct base models behind the serve schedule's cold requests; more
#: of them average out more of the generator's heavy-tailed model cost.
SERVE_POOL = 96

#: Generator knobs for the corpus and the serve pool: bigger than the fuzz
#: defaults so per-job cost is heavy-tailed.
CORPUS_PARAMS = dict(
    max_bool_latches=6,
    max_inputs=3,
    min_word_width=3,
    max_word_width=6,
    max_specs=6,
    spec_depth=3,
    p_fairness=0.3,
)

#: Request mix of the serve schedule (cold, warm; the rest are edits).  A
#: designed mix that gives each of the server's three paths enough samples
#: for its percentiles, not a recording of real traffic.
COLD_SHARE = 0.25
WARM_SHARE = 0.55


def pipeline_rml(stages: int, specs: Sequence[str]) -> str:
    """Circuit 3 with ``stages`` valid/data stages, as ``.rml`` text.

    The same machine as :func:`repro.circuits.build_pipeline` (and, at
    ``stages=3``, ``examples/pipeline.rml``): the pipeline advances when
    not stalled and the 2-bit hold counter is idle; a value reaching the
    last stage holds the output for three cycles.  Fairness ``!stall``,
    observed ``output``, don't-care ``!out_valid``.
    """
    if stages < 2:
        raise ValueError("the pipeline needs at least 2 stages")
    lines = [f"MODULE pipeline{stages}", "", "VAR"]
    lines += ["  in_valid : boolean;", "  in_data : boolean;",
              "  stall : boolean;"]
    for k in range(1, stages + 1):
        lines += [f"  v{k} : boolean;", f"  d{k} : boolean;"]
    lines += [
        "  h : word[2];",
        "",
        "DEFINE",
        "  advance := !stall & h = 0;",
        f"  arriving := advance & v{stages - 1};",
        f"  output := d{stages};",
        f"  out_valid := v{stages};",
        "",
        "ASSIGN",
    ]
    prev_v, prev_d = "in_valid", "in_data"
    for k in range(1, stages + 1):
        lines += [
            f"  init(v{k}) := 0;",
            f"  init(d{k}) := 0;",
            f"  next(v{k}) := case advance : {prev_v}; TRUE : v{k}; esac;",
            f"  next(d{k}) := case advance : {prev_d}; TRUE : d{k}; esac;",
        ]
        prev_v, prev_d = f"v{k}", f"d{k}"
    lines += [
        "  init(h) := 0;",
        "  next(h) := case arriving : 2; h = 2 : 1; TRUE : 0; esac;",
        "",
        "FAIRNESS !stall;",
        "",
    ]
    lines += [f"SPEC {spec};" for spec in specs]
    lines += ["", "OBSERVED output;", "", "DONTCARE !out_valid;", ""]
    return "\n".join(lines)


def retention_specs(stages: int) -> List[str]:
    """Hold-period retention plus stall retention at the last stage."""
    return [
        f"AG (h != 0 & output = {v} -> AX output = {v})" for v in (0, 1)
    ] + [
        f"AG (stall & h = 0 & v{stages} & output = {v} -> AX output = {v})"
        for v in (0, 1)
    ]


def staging_specs(stages: int) -> List[str]:
    """Two-level nested-Until staging from the last two stages."""
    a, b = stages - 2, stages - 1
    return [
        f"AG (v{a} & d{a} = {v} -> A [v{a} & d{a} = {v} U "
        f"A [v{b} & d{b} = {v} U v{stages} & output = {v}]])"
        for v in (0, 1)
    ] + [
        f"AG (v{b} & d{b} = {v} -> A [v{b} & d{b} = {v} U "
        f"v{stages} & output = {v}])"
        for v in (0, 1)
    ]


def _pair_swapped(specs: List[str], key: str) -> List[str]:
    """``specs`` (consecutive output=0/output=1 pairs) with each pair's
    order flipped at random.  Unlike a full shuffle this leaves the BDD
    work unchanged: moving the nested-Until SPECs of ``fair-pipeline``
    relative to each other changes its node count by up to 7.5%."""
    rng = random.Random(key)
    out: List[str] = []
    for i in range(0, len(specs), 2):
        pair = specs[i:i + 2]
        out += pair[::-1] if rng.random() < 0.5 else pair
    return out


def deep_pipeline(seed: int) -> str:
    """The ``deep-pipeline`` model; the seed only orders its SPEC pairs."""
    return pipeline_rml(
        DEEP_STAGES, _pair_swapped(retention_specs(DEEP_STAGES), f"deep:{seed}")
    )


def fair_pipeline(seed: int) -> str:
    """The ``fair-pipeline`` model; the seed only orders its SPEC pairs."""
    return pipeline_rml(
        FAIR_STAGES, _pair_swapped(staging_specs(FAIR_STAGES), f"fair:{seed}")
    )


def generated(keys: Sequence[str]):
    """``repro.gen.generate`` over ``keys`` with the corpus parameters."""
    from repro.gen import GenParams, generate

    params = GenParams(**CORPUS_PARAMS)
    return [generate(key, params) for key in keys]


def corpus_keys(seed: int, count: int = CORPUS_SIZE) -> List[str]:
    return [f"{seed}:{i}" for i in range(count)]


def serve_pool_keys(seed: int) -> List[str]:
    return [f"{seed}:serve:{i}" for i in range(SERVE_POOL)]


def renamed(text: str, suffix: str) -> str:
    """``text`` with its module renamed: a new request key, same answer."""
    head, sep, rest = text.partition("\n")
    if not head.startswith("MODULE "):
        raise ValueError("module text must start with its MODULE line")
    return f"{head}{suffix}{sep}{rest}"


@dataclass(frozen=True)
class Request:
    """One scheduled ``POST /v1/analyze``: its class, body, and the pool
    model whose reference answer it must match."""

    kind: str  # "cold" | "warm" | "edit"
    body: bytes
    base: int


def request_body(text: str) -> bytes:
    """The ``POST /v1/analyze`` body for module ``text``."""
    return json.dumps({"rml": text}, sort_keys=True).encode("utf-8")


def request_schedule(seed: int, pool: Sequence[str]) -> Iterator[Request]:
    """The endless seeded request stream over the pool's model texts.

    Cold requests send an unseen model (a pool model under a fresh module
    name), warm requests repeat an earlier body byte for byte, and edit
    requests resend an earlier model with a new comment appended, so the
    server's body memo misses while its normalised cache key hits.
    """
    rng = random.Random(f"serve:{seed}")
    sent: List[Request] = []
    cold = edits = 0
    while True:
        roll = rng.random()
        if not sent or roll < COLD_SHARE:
            base = cold % len(pool)
            text = renamed(pool[base], f"_c{cold}")
            request = Request("cold", request_body(text), base)
            cold += 1
            sent.append(request)
        elif roll < COLD_SHARE + WARM_SHARE:
            request = Request("warm", *_pick(rng, sent))
        else:
            body, base = _pick(rng, sent)
            text = json.loads(body)["rml"] + f"-- edit {edits}\n"
            request = Request("edit", request_body(text), base)
            edits += 1
            sent.append(request)
        yield request


def _pick(rng: random.Random, sent: List[Request]):
    earlier = sent[rng.randrange(len(sent))]
    return earlier.body, earlier.base
