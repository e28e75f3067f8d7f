import pytest

from repro.energy.wall import WallMeter
from repro.util.errors import ValidationError


class TestIntegration:
    def test_energy_is_power_times_time(self):
        meter = WallMeter()
        meter.advance(10.0, 100.0)
        assert meter.energy_j == pytest.approx(1000.0)

    def test_piecewise_integration(self):
        meter = WallMeter()
        meter.advance(5.0, 100.0)
        meter.advance(5.0, 50.0)
        assert meter.energy_j == pytest.approx(750.0)
        assert meter.average_power_w() == pytest.approx(75.0)

    def test_negative_inputs_rejected(self):
        meter = WallMeter()
        with pytest.raises(ValidationError):
            meter.advance(-1.0, 10.0)
        with pytest.raises(ValidationError):
            meter.advance(1.0, -10.0)

