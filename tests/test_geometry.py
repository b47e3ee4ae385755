import numpy as np
import pytest

import spdcpol as sp
from spdcpol.crystal import SellmeierCoefficients


def test_zero_offset(geometry, bare_config):
    assert sp.external_to_internal_angle(0.0, geometry, bare_config) == 0.0


def test_internal_angle_is_external_over_ordinary_index(geometry,
                                                        bare_config):
    theta_int = sp.external_to_internal_angle(0.0055, geometry, bare_config)
    n_o = sp.index_ordinary(bare_config.production.material, 702e-9)
    assert theta_int == pytest.approx(0.0055 / n_o, rel=1e-12)
    assert theta_int < 0.0055  # refraction compresses the internal angle


def test_round_trip_identity(geometry, bare_config):
    for theta_ext in (2e-4, -4.6e-3, 8.0e-3):
        theta = sp.external_to_internal_angle(theta_ext, geometry,
                                              bare_config)
        back = sp.internal_to_external_angle(theta, geometry, bare_config)
        assert abs(back - theta_ext) <= 1e-12 * abs(theta_ext)


def test_conversions_read_the_source_ordinary_index(bare_config,
                                                    monkeypatch):
    # n_o(lambda_d) is a derived field of the source, evaluated once
    n_o = sp.index_ordinary(bare_config.production.material,
                            2.0 * bare_config.pump_wavelength)
    assert bare_config.ordinary_index == n_o
    geometry = sp.GeometryConfig(lens_focal_length=0.5, ambient_index=1.25)
    calls = []
    index = SellmeierCoefficients.index
    monkeypatch.setattr(SellmeierCoefficients, "index",
                        lambda self, wl: calls.append(wl) or index(self, wl))
    grid = np.linspace(-8e-3, 8e-3, 5)
    theta = sp.external_to_internal_angle(grid, geometry, bare_config)
    assert theta.tobytes() == (grid * 1.25 / n_o).tobytes()
    back = sp.internal_to_external_angle(theta, geometry, bare_config)
    assert back.tobytes() == (theta * n_o / 1.25).tobytes()
    assert sp.external_to_internal_angle(2e-3, geometry, bare_config) == \
        2e-3 * 1.25 / n_o
    assert sp.internal_to_external_angle(1e-3, geometry, bare_config) == \
        1e-3 * n_o / 1.25
    assert calls == []


def test_ambient_index_scales_map(bare_config):
    geometry = sp.GeometryConfig(lens_focal_length=0.5, ambient_index=1.5)
    theta = sp.external_to_internal_angle(2e-3, geometry, bare_config)
    vacuum = sp.GeometryConfig(lens_focal_length=0.5)
    assert theta == pytest.approx(
        1.5 * sp.external_to_internal_angle(2e-3, vacuum, bare_config),
        rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        sp.GeometryConfig(lens_focal_length=0.0)
    with pytest.raises(ValueError):
        sp.GeometryConfig(lens_focal_length=0.5, pinhole_diameter=-1e-6)
    with pytest.raises(ValueError):
        sp.GeometryConfig(lens_focal_length=0.5, ambient_index=0.0)
