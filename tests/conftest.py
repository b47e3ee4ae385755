import pytest

import spdcpol as sp

PUMP = 351e-9


@pytest.fixture(scope="session")
def bbo():
    return sp.get_material("bbo")


@pytest.fixture(scope="session")
def production(bbo):
    cut = sp.phase_matching_cut_angle(bbo, PUMP)
    return bbo.crystal(cut_angle=cut, length=1e-3)


@pytest.fixture(scope="session")
def bare_config(production):
    return sp.SourceConfig(production=production, pump_wavelength=PUMP)


@pytest.fixture(scope="session")
def compensated_config(production, bbo):
    comp = bbo.crystal(cut_angle=production.cut_angle, length=0.5e-3)
    placement = sp.CompensatorPlacement(comp, sp.Orientation.COMPENSATING)
    return sp.SourceConfig(production=production, pump_wavelength=PUMP,
                           compensators=(placement,))


@pytest.fixture(scope="session")
def anticompensated_config(production, bbo):
    comp = bbo.crystal(cut_angle=production.cut_angle, length=0.5e-3)
    placement = sp.CompensatorPlacement(comp, sp.Orientation.ANTICOMPENSATING)
    return sp.SourceConfig(production=production, pump_wavelength=PUMP,
                           compensators=(placement,))


@pytest.fixture(scope="session")
def geometry():
    return sp.GeometryConfig(lens_focal_length=0.5, pinhole_diameter=200e-6)
