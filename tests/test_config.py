"""Tests for repro.config: validation of experiment configurations."""

import pytest

from repro.config import MatchingConfig, SimulationConfig, SweepConfig
from repro.errors import ConfigurationError


class TestMatchingConfig:
    def test_defaults(self):
        cfg = MatchingConfig(b=4)
        assert cfg.alpha == 1.0
        assert cfg.effective_a == 4

    def test_explicit_a(self):
        cfg = MatchingConfig(b=6, a=2)
        assert cfg.effective_a == 2
        assert cfg.augmentation_ratio() == pytest.approx(6 / 5)

    def test_augmentation_ratio_equal_ab(self):
        assert MatchingConfig(b=8).augmentation_ratio() == pytest.approx(8.0)

    def test_rejects_bad_b(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(b=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(b=2, alpha=0.5)

    def test_rejects_a_above_b(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(b=2, a=3)

    def test_rejects_a_below_one(self):
        with pytest.raises(ConfigurationError):
            MatchingConfig(b=2, a=0)

    def test_to_dict_includes_effective_a(self):
        d = MatchingConfig(b=3, alpha=2.0).to_dict()
        assert d["a"] == 3
        assert d["b"] == 3
        assert d["alpha"] == 2.0


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.checkpoints >= 1

    def test_rejects_zero_checkpoints(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(checkpoints=0)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(repetitions=0)

    def test_rejects_non_integral_checkpoint_positions(self):
        """Regression: int(10.7) used to silently truncate the position."""
        with pytest.raises(ConfigurationError, match="truncate"):
            SimulationConfig(checkpoint_positions=(10.7,))
        # Truncation of (10, 10.7) would even break the strictly-increasing
        # contract after validation claimed to enforce it.
        with pytest.raises(ConfigurationError, match="integers"):
            SimulationConfig(checkpoint_positions=(10, 10.7))
        with pytest.raises(ConfigurationError, match="integers"):
            SimulationConfig(checkpoint_positions=("3",))

    def test_accepts_integral_float_checkpoint_positions(self):
        """JSON round-trips may deliver 10.0 for 10; both must coerce losslessly."""
        cfg = SimulationConfig(checkpoint_positions=(1, 10.0, 20))
        assert cfg.checkpoint_positions == (1, 10, 20)
        assert all(isinstance(p, int) for p in cfg.checkpoint_positions)

    def test_rejects_unknown_matching_backend(self):
        with pytest.raises(ConfigurationError, match="unknown matching_backend"):
            SimulationConfig(matching_backend="cython")


class TestSweepConfig:
    def test_combinations_cross_product(self):
        sweep = SweepConfig(b_values=(2, 4), alpha_values=(1.0, 5.0), algorithms=("rbma", "bma"))
        combos = sweep.combinations()
        assert len(combos) == 8
        assert ("rbma", 2, 1.0) in combos
        assert ("bma", 4, 5.0) in combos

    def test_combinations_order_deterministic(self):
        sweep = SweepConfig(b_values=(2, 4), alpha_values=(1.0,), algorithms=("rbma",))
        assert sweep.combinations() == [("rbma", 2, 1.0), ("rbma", 4, 1.0)]

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(b_values=())
        with pytest.raises(ConfigurationError):
            SweepConfig(alpha_values=())
        with pytest.raises(ConfigurationError):
            SweepConfig(algorithms=())

    def test_rejects_invalid_values(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(b_values=(0,))
        with pytest.raises(ConfigurationError):
            SweepConfig(alpha_values=(0.0,))
