import importlib
import sys
from pathlib import Path

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


@pytest.fixture(scope="session")
def oracle():
    """bench/oracle.py at 30 digits: the tests' mpmath reference. bench/
    joins sys.path only when a test asks, so the installed-package README
    test never imports it. Gauss-Legendre degree 5 (48 nodes per panel)
    gets the tests' window moments to the last float bit; degree 4 does not.
    """
    checkout = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(checkout / "bench"))
    reference = importlib.import_module("oracle")
    return reference.Oracle(checkout / "src" / "spdcpol" / "data"
                            / "materials.txt", dps=30, gl_degree=5)
