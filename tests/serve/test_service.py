"""BillboardService integration: the full socket round trip."""

import pytest

from repro.errors import ConfigurationError, LoadShedError
from repro.obs.manifest import SCHEMA_VERSION
from repro.serve import (
    ServeClient,
    ServeConfig,
    batch_recommender,
    default_serve_max_inflight,
    default_serve_port,
    default_serve_rate,
    resolve_serve_rate,
    set_default_serve_port,
)
from repro.serve.service import ServiceThread


@pytest.fixture()
def served():
    """One live service on a daemon thread, torn down via shutdown."""
    config = ServeConfig(n_players=32, n_objects=16)
    with ServiceThread(config) as runner:
        yield runner


class TestServiceRoundTrip:
    def test_post_tick_query_cycle(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            for player in range(6):
                reply = client.vote(player, player % 3)
                assert reply["epoch"] == 0
            # buffered writes are invisible until the epoch completes
            assert client.counts()["counts"] == [0] * 16
            tick = client.tick()
            assert tick["epoch"] == 1
            counts = client.counts()["counts"]
            assert counts[0] == 2 and counts[1] == 2 and counts[2] == 2
            assert client.recommend(3) == [0, 1, 2]
            scores = client.scores()
            assert scores["epoch"] == 1
            assert scores["scores"][0] == 2.0

    def test_report_posts_are_not_votes(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            client.post(0, 5, value=0.75, kind="report")
            client.tick()
            assert client.counts()["counts"][5] == 0
            board = client.board()
            assert board["posts"] == 1 and board["visible_votes"] == 0

    def test_served_board_matches_batch_distill(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            for epoch in range(12):
                for player in range(5):
                    client.vote(
                        (epoch * 5 + player) % 32, (epoch + player) % 16
                    )
                client.tick()
        online = served.service.recommender
        reference = batch_recommender(
            served.service.board, online.ctx, online.epoch
        )
        assert online.state_digest() == reference.state_digest()

    def test_metrics_surface(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            client.vote(0, 0)
            client.tick()
            metrics = client.metrics()
        manifest = metrics["manifest"]
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["serving"]["n_players"] == 32
        assert manifest["serving"]["max_inflight"] == 256
        counters = metrics["counters"]
        assert counters["serve.posts"] == 1
        assert counters["serve.ticks"] == 1
        assert counters["serve.shed"] == 0
        assert metrics["recommender"]["phase"] == "step1.1"
        assert "substrate" not in metrics

    def test_bad_requests_get_typed_errors(self, served):
        host, port = served.address
        with ServeClient(host, port) as client:
            with pytest.raises(ConfigurationError, match="player"):
                client.vote(99, 0)
            with pytest.raises(ConfigurationError, match="object"):
                client.vote(0, 99)
            with pytest.raises(ConfigurationError, match="non-finite"):
                client.post(0, 0, value=float("nan"))
            with pytest.raises(ConfigurationError, match="unknown query"):
                client.request("query", {"op": "bogus"})
            with pytest.raises(ConfigurationError, match="unknown request"):
                client.request("frobnicate")
            # the connection survives errors and rejected posts leave
            # no trace on the board
            client.tick()
            assert client.board()["posts"] == 0


class TestBackpressure:
    def test_rate_limit_sheds_with_reason(self):
        config = ServeConfig(n_players=8, n_objects=4, rate=0.001, burst=2)
        with ServiceThread(config) as runner:
            with ServeClient(*runner.address) as client:
                client.vote(0, 0)
                client.vote(1, 1)
                with pytest.raises(LoadShedError) as excinfo:
                    client.vote(2, 2)
                assert excinfo.value.reason == "rate"
                metrics_config = runner.service.config
                assert metrics_config.rate == 0.001
            with ServeClient(*runner.address) as fresh:
                # shed replies kept the server alive; a new connection
                # has its own bucket
                assert fresh.board()["posts"] == 0
                shed = fresh.metrics()["counters"]["serve.shed"]
                assert shed >= 1

    def test_full_write_buffer_flushes_synchronously(self):
        config = ServeConfig(n_players=8, n_objects=4, queue_depth=3)
        with ServiceThread(config) as runner:
            with ServeClient(*runner.address) as client:
                assert client.vote(0, 0)["buffered"] == 1
                assert client.vote(1, 1)["buffered"] == 2
                # the third post fills the buffer and flushes it
                assert client.vote(2, 2)["buffered"] == 0
                assert client.board()["posts"] == 3
                flushes = client.metrics()["counters"]["serve.flushes"]
                assert flushes == 1


class TestServeKnobs:
    def test_port_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PORT", raising=False)
        assert default_serve_port() == 0
        monkeypatch.setenv("REPRO_SERVE_PORT", "4242")
        assert default_serve_port() == 4242
        set_default_serve_port(9999)
        try:
            assert default_serve_port() == 9999
        finally:
            set_default_serve_port(None)
        monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_PORT"):
            default_serve_port()

    def test_max_inflight_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "0")
        with pytest.raises(
            ConfigurationError, match="REPRO_SERVE_MAX_INFLIGHT"
        ):
            default_serve_max_inflight()

    def test_rate_env_and_explicit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_RATE", "2.5")
        assert default_serve_rate() == 2.5
        assert resolve_serve_rate(None) == 2.5
        assert resolve_serve_rate(7.0) == 7.0
        monkeypatch.setenv("REPRO_SERVE_RATE", "-1")
        with pytest.raises(ConfigurationError, match="REPRO_SERVE_RATE"):
            default_serve_rate()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=0, n_objects=4)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, rate=-0.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(n_players=4, n_objects=4, queue_depth=0)


class TestServeCli:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--n",
                "64",
                "--m",
                "32",
                "--port",
                "0",
                "--max-inflight",
                "128",
                "--rate",
                "100",
            ]
        )
        assert args.command == "serve"
        assert args.n == 64 and args.m == 32
        assert args.max_inflight == 128
        assert args.rate == 100.0
