"""The memo-table registry: completeness, and a cold reset that is real."""

import json

import pytest

from repro.flows import SweepSession, idct_design_points
from repro.lib import tsmc90_library
from repro.obs.metrics import LRUTable, clear_caches, registry
from repro.workloads import IDCTPointFactory


@pytest.fixture
def refill_characterization():
    """Building a library fills the characterisation memo, and other tests
    read it as filled; rebuild one after a test that empties it."""
    yield
    tsmc90_library()


def _tables_reachable_from(module):
    """LRU tables held by a module global, or by an attribute of one."""
    for value in vars(module).values():
        if isinstance(value, LRUTable):
            yield value
        elif hasattr(value, "__dict__") and not isinstance(value, type):
            for attribute in vars(value).values():
                members = (attribute if isinstance(attribute, (tuple, list))
                           else (attribute,))
                yield from (member for member in members
                            if isinstance(member, LRUTable))


def _counters():
    return {key: (table.hits, table.misses, table.evictions)
            for key, table in registry().tables().items()}


def _misses():
    return {key: table.misses for key, table in registry().tables().items()}


def test_every_module_level_memo_table_is_registered(all_repro_modules):
    registered = {id(table) for table in registry().tables().values()}
    found = {}
    for module in all_repro_modules:
        for table in _tables_reachable_from(module):
            found[id(table)] = f"{module.__name__}: {table.name}"
    assert found, "no memo table found; the scan itself is broken"
    unregistered = sorted(name for key, name in found.items()
                          if key not in registered)
    assert not unregistered, f"memo tables missing from the registry: " \
                             f"{unregistered}"
    names = {(section, name) for section, name in registry().tables()}
    assert {("analysis_cache", "artifacts"), ("analysis_cache", "spans"),
            ("analysis_cache", "budget_templates"),
            ("analysis_cache", "span_templates"),
            (None, "characterization")} <= names


def test_clear_caches_empties_tables_and_keeps_counters(
        library, all_repro_modules, refill_characterization):
    session = SweepSession(IDCTPointFactory(rows=1), library)
    session.run(idct_design_points(clock_period=1500.0)[:2])
    assert any(table.info()["size"] for table in registry().tables().values())
    before = _counters()
    clear_caches()
    assert _counters() == before
    for key, table in registry().tables().items():
        assert table.info()["size"] == 0, key


def _sweep_metrics(library):
    result = SweepSession(IDCTPointFactory(rows=1), library).run(
        idct_design_points(clock_period=1500.0))
    return json.dumps([entry.metrics() for entry in result.entries],
                      sort_keys=True)


def test_cold_sweep_after_clear_caches_matches_and_misses(
        library, refill_characterization):
    """A sweep after ``clear_caches()`` recomputes what a warm sweep reuses
    and still produces identical metrics."""
    first = _sweep_metrics(library)
    start = _misses()
    warm = _sweep_metrics(library)
    warm_misses = {key: count - start.get(key, 0)
                   for key, count in _misses().items()}
    clear_caches()
    start = _misses()
    cold = _sweep_metrics(library)
    cold_misses = {key: count - start.get(key, 0)
                   for key, count in _misses().items()}
    assert first == warm == cold
    artifacts = ("analysis_cache", "artifacts")
    assert warm_misses[artifacts] == 0
    assert cold_misses[artifacts] > 0
    assert sum(cold_misses.values()) > sum(warm_misses.values())
