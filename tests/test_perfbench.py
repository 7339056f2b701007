"""The names the benchmark reads from the package still exist.

`perfbench/tracer.py` records a function's per-layer metrics only when the
function is defined in its layer's module and listed in that module's
`__all__`, so a renamed or unlisted function silently drops them. The
tracer's hooks read a call's arguments by name, the precision probe calls a
handful of functions by name and signature, and every workload's config must
pass the schema its set-up step validates.
"""

import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

from iasec.alignment import build_beamformers, build_generators, stream_power
from iasec.cli import ExperimentConfig
from iasec.gaussmi import receiver_gains
from iasec.model import PowerConfig, derive_dims, sample_network

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, imported as its child process imports them."""
    path = str(ROOT / "perfbench")
    sys.path.insert(0, path)
    try:
        yield {name: importlib.import_module(name) for name in ("tracer", "probe", "run")}
    finally:
        sys.path.remove(path)


def test_per_layer_metrics_name_traced_functions(perfbench):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = []
    for metric in declared:
        parts = metric["name"].split(".")
        # <layer>.<function>.<...>; two-part names are counters, not functions
        if len(parts) < 3 or parts[0] not in perfbench["tracer"].LAYERS:
            continue
        module = importlib.import_module(f"iasec.{parts[0]}")
        fn = getattr(module, parts[1], None)
        traced = inspect.isfunction(fn) and fn.__module__ == module.__name__
        if not (traced and parts[1] in module.__all__):
            missing.append(metric["name"])
    assert not missing


def test_precision_probe_runs(perfbench):
    result = perfbench["probe"].probe(16, [(3, 1)])
    assert result["terms"] > 0
    assert math.isfinite(result["max"]) and result["max"] < 1e-9


def test_tracer_hooks_tag_real_calls(perfbench):
    # a hook that no longer fits its function's parameters tags nothing,
    # which silently drops the metrics built from its tags
    dims = derive_dims(3, 1)
    net = sample_network(dims, 16)
    aset = build_beamformers(net, build_generators(net))
    powers = stream_power(aset, PowerConfig(rho=1e4))
    calls = {
        "ergodic.block_network": (dims, 16, 0),
        "gaussmi.mi_from_gains": (receiver_gains(net, aset, 0), powers, {0}),
    }
    hooks = perfbench["tracer"]._HOOKS
    assert set(hooks) == set(calls)
    for name, args in calls.items():
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"iasec.{layer}"), attr)
        assert hooks[name](inspect.signature(fn).bind(*args).arguments) is not None, name


def test_workload_configs_validate(perfbench):
    # as perfbench/child.py's set-up step reads them: a config the schema
    # rejects would turn every run of its workload into exit 2
    run = perfbench["run"]
    for spec in run.WORKLOADS.values():
        for seed in run.RECORDED_SEEDS:
            cfg = ExperimentConfig.from_dict(spec["config"])
            cfg.override(seed=seed, trials=spec["trials"]).validate()
