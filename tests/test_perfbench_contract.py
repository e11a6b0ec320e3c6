"""The names the repository benchmark reads from the program still exist.

``perfbench/layers.py`` wraps program functions by name and reads program
counters and cache tables by name.  This test loads it by path, without
importing or writing anything under ``perfbench/``, so a change to the
program that drops one of those names fails here instead of in a benchmark
run.
"""

import os
import time
import types

import pytest

from repro.core.analysis_cache import default_cache
from repro.lib.characterize import characterization_cache_info
from repro.obs.metrics import snapshot

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "layers.py")


@pytest.fixture(scope="module")
def layers():
    with open(LAYERS, encoding="utf-8") as handle:
        source = handle.read()
    module = types.ModuleType("perfbench_layers")
    module.__file__ = LAYERS
    exec(compile(source, LAYERS, "exec"), module.__dict__)
    return module


def test_every_layer_target_resolves(layers):
    tracer = layers.LayerTracer(time.perf_counter)
    assert set(tracer.stats) == {
        layers.layer_name(module, attr) for module, attr in layers.TARGETS
    } | {layers.SEED_LAYER}


def test_every_read_counter_exists(layers, all_repro_modules):
    counters = snapshot()["counters"]
    missing = [name for name in layers.COUNTERS if name not in counters]
    assert not missing


def test_every_read_cache_table_exists(layers):
    tables = default_cache().cache_info()
    for table in layers.CACHE_TABLES.values():
        assert {"hits", "misses"} <= set(tables[table])
    assert "misses" in characterization_cache_info()
