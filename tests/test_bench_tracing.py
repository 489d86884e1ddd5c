"""The benchmark's span tracer (bench/tracing.py, imported as it stands)
hooks program names by attribute: cli._parallel_map, the public functions
of each traced module and PiecewiseWaveFunction.__call__.  A refactor that
renames one of them has to fail here, not only in a traced benchmark run."""

import importlib.util
import inspect
import json
import os
import sys

from pseudoharm import cli, regspec  # cli imports every traced module

TRACING_PY = os.path.join(os.path.dirname(__file__), "..", "bench",
                          "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # every function-valued name of the package, including dict tables
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "pseudoharm"
                               or modname.startswith("pseudoharm.")):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(modname, attr)] = obj
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val):
                        out[(modname, attr, key)] = val
    out["PiecewiseWaveFunction.__call__"] = \
        regspec.PiecewiseWaveFunction.__call__
    return out


def test_tracer_hooks_a_ground_wavefunction_and_restores(capsys):
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        assert cli._parallel_map is not before[("pseudoharm.cli",
                                                "_parallel_map")]
        assert regspec.PiecewiseWaveFunction.__call__ \
            is not before["PiecewiseWaveFunction.__call__"]
        tracer.active = True
        code = cli.main(["wavefunction", "--alpha=-0.1", "--delta", "1e-3",
                         "--ground", "--samples", "5", "--format", "json"])
        tracer.active = False
    finally:
        tracer.remove()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 5
    stats = tracer.merged()
    assert stats.calls["regspec.wavefunction_eval"] >= 1
    assert stats.counters["regspec.wavefunction_eval.points"] >= 5
    assert stats.calls["regspec.solve_ground_even"] == 1
    assert _bindings() == before
