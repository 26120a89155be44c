"""RunManifest: golden round-trips, digest stability, validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.obs.manifest import (
    SCHEMA_VERSION,
    RunManifest,
    collect_manifest,
    config_digest,
    fault_plan_digest,
)
from repro.sim.engine import EngineConfig


class TestGoldenRoundTrip:
    def test_jsonl_round_trip_is_bit_identical(self):
        """The golden contract: manifest → JSON → manifest → JSON is
        byte-for-byte stable (canonical serialization)."""
        manifest = collect_manifest(
            seed=42, n_trials=64, config=EngineConfig(), fault_plan=FaultPlan()
        )
        text = manifest.to_json()
        rebuilt = RunManifest.from_json(text)
        assert rebuilt == manifest
        assert rebuilt.to_json() == text
        assert rebuilt.to_json().encode() == text.encode()

    def test_round_trip_through_dict(self):
        manifest = collect_manifest(seed=7, n_trials=3)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_same_inputs_same_manifest(self):
        """A manifest is a statement about inputs: same inputs on the
        same host must produce the same record (no timestamps)."""
        a = collect_manifest(seed=5, n_trials=10, config=EngineConfig())
        b = collect_manifest(seed=5, n_trials=10, config=EngineConfig())
        assert a == b
        assert a.digest() == b.digest()

    def test_canonical_json_is_single_sorted_line(self):
        text = collect_manifest(seed=1).to_json()
        assert "\n" not in text
        payload = json.loads(text)
        assert list(payload) == sorted(payload)


class TestDigests:
    def test_config_digest_depends_on_values_not_identity(self):
        assert config_digest(EngineConfig()) == config_digest(EngineConfig())
        assert config_digest(EngineConfig()) != config_digest(
            EngineConfig(max_rounds=7)
        )

    def test_config_digest_handles_enums(self):
        from repro.billboard.votes import VoteMode

        single = config_digest(EngineConfig(vote_mode=VoteMode.SINGLE))
        multi = config_digest(EngineConfig(vote_mode=VoteMode.MULTI))
        assert single != multi

    def test_fault_plan_digest_none_passthrough(self):
        assert fault_plan_digest(None) is None
        assert fault_plan_digest(FaultPlan()) is not None

    def test_fault_plan_digest_tracks_rates(self):
        assert fault_plan_digest(FaultPlan()) != fault_plan_digest(
            FaultPlan(post_loss_rate=0.25)
        )


class TestCollect:
    def test_seed_entropy_matches_checkpoint_fingerprint(self):
        from repro.rng import make_seed_sequence

        manifest = collect_manifest(seed=(3, 10))
        assert manifest.seed_entropy == str(make_seed_sequence((3, 10)).entropy)

    def test_no_seed_records_none(self):
        assert collect_manifest().seed_entropy is None

    def test_schema_version_pinned(self):
        assert collect_manifest().schema_version == SCHEMA_VERSION

    def test_environment_fields_present(self):
        manifest = collect_manifest()
        assert set(manifest.versions) == {"python", "numpy", "repro"}
        assert "platform" in manifest.host
        assert "cpu_count" in manifest.host

    def test_config_payload_overrides_config(self):
        payload = {"bench": "obs", "points": [1, 2, 3]}
        manifest = collect_manifest(config_payload=payload)
        assert manifest.config_hash == config_digest(payload)


class TestValidation:
    def test_unknown_keys_rejected(self):
        payload = collect_manifest(seed=0).to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown keys"):
            RunManifest.from_dict(payload)

    def test_schema_5_substrate_key_loads(self):
        """Schema 6 removed ``substrate``; a schema-5 file still loads
        and the retired key is dropped."""
        assert SCHEMA_VERSION == 6
        current = collect_manifest(seed=0, n_trials=4)
        payload = current.to_dict()
        payload.update(schema_version=5, substrate="sparse")
        loaded = RunManifest.from_dict(payload)
        assert loaded.schema_version == 5
        assert not hasattr(loaded, "substrate")
        assert loaded.seed_entropy == current.seed_entropy
        payload["schema_version"] = 6
        with pytest.raises(ConfigurationError, match="substrate"):
            RunManifest.from_dict(payload)
