"""Config files: defaults, parsing, strict unknown-key rejection."""
import pytest

from vroverlay.config import OverlayConfig, apply_overrides, load_config
from vroverlay.errors import ConfigError
from vroverlay.registry import Registry


def test_defaults_match_documented_values():
    cfg = OverlayConfig()
    assert cfg.alpha == 0.25
    assert cfg.rtt_ref_ms == 200.0
    assert cfg.q_min == 0.05
    assert cfg.delta == 0.05
    assert cfg.heartbeat_interval_ms == 10_000.0
    assert cfg.liveness_intervals == 3
    assert Registry(cfg, lambda rid, table: None).liveness_timeout_ms == 30_000.0
    assert cfg.k_miss == 2
    assert cfg.probe_deadline_ms == 2_000.0
    assert cfg.series_capacity == 4096
    assert cfg.budget_bytes == 8 * 1024 * 1024
    assert cfg.gateway_pair is None


def test_load_config_file_with_comments(tmp_path):
    path = tmp_path / "overlay.conf"
    path.write_text(
        "# tuning\n"
        "alpha = 0.5\n"
        "gateway_pair = 1, 4   # EU/US gateways\n"
        "admins = ops@example.net, noc@example.net\n"
        "region = EU\n"
        "k_miss = 3\n"
    )
    cfg = load_config(str(path))
    assert cfg.alpha == 0.5
    assert cfg.gateway_pair == (1, 4)
    assert cfg.admins == ("ops@example.net", "noc@example.net")
    assert cfg.region == "EU"
    assert cfg.k_miss == 3


def test_unknown_key_rejected_with_location(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("alpha = 0.5\nbogus_key = 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "bogus_key" in str(err.value)
    assert ":2" in str(err.value)
    # Accepted keys must take effect; restart_command never did, so it is gone.
    with pytest.raises(ConfigError) as err:
        apply_overrides(OverlayConfig(), {"restart_command": "systemctl restart vrvs"})
    assert "restart_command" in str(err.value)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("alpha 0.5\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_type_errors_reported():
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"k_miss": "many"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"alpha": "fast"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"gateway_pair": "1"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"gateway_pair": "2,2"})


def test_range_validation():
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"alpha": "0"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"delta": "1.5"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"k_miss": "0"})
    with pytest.raises(ConfigError):
        apply_overrides(OverlayConfig(), {"probe_interval_ms": "-5"})


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "overlay.conf"
    path.write_text("alpha = 0.5\nregion = EU\n")
    cfg = load_config(str(path), {"alpha": "0.75"})
    assert cfg.alpha == 0.75
    assert cfg.region == "EU"


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/overlay.conf")
