"""Runtime pins for the declared metric-name registry.

RPL013 proves the *static* round trip (call sites <-> registry <-> doc
catalogue) but cannot see names that only exist at runtime — the
``f"faults.{key}"`` fold realizes whatever keys the injector's summary
dict happens to carry. These tests close that gap: every realizable
dynamic member must be declared, so the registry stays the complete
metric catalogue even for the f-string families.
"""

import numpy as np

from repro.faults import FaultInjector, FaultPlan
from repro.obs.names import (
    DECLARED_COUNTERS,
    DECLARED_TIMERS,
    DYNAMIC_COUNTER_PREFIXES,
    declared_phases,
)


class TestRegistryShape:
    def test_names_are_dotted_and_lowercase(self):
        for name in DECLARED_COUNTERS | DECLARED_TIMERS:
            phase, _, member = name.partition(".")
            assert phase and member, name
            assert name == name.lower(), name

    def test_counters_and_timers_disjoint(self):
        assert not (DECLARED_COUNTERS & DECLARED_TIMERS)

    def test_dynamic_prefixes_belong_to_declared_phases(self):
        phases = declared_phases()
        for prefix in DYNAMIC_COUNTER_PREFIXES:
            assert prefix.endswith("."), prefix
            assert prefix.rstrip(".") in phases, prefix


class TestDynamicFamiliesFullyDeclared:
    def test_fault_injector_info_keys_all_declared(self):
        # the engines fold f"faults.{key}" for every key in info(); an
        # injector summary key without a declaration would mint an
        # uncatalogued counter at runtime
        injector = FaultInjector(
            FaultPlan(post_loss_rate=0.5, crash_rate=0.1, restart_after=2),
            np.random.default_rng(0),
        )
        injector.reset()
        for key in injector.info():
            assert f"faults.{key}" in DECLARED_COUNTERS, key
