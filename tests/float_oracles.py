"""Float references coded apart from spdcpol: the Eimerl BBO Sellmeier
indices and the brute-force two-qubit projection rate."""

import math

import numpy as np

import spdcpol as sp


def independent_no(lam_um):
    """Vectorized Eimerl ordinary index, coded independently of the package."""
    return np.sqrt(2.7405 + 0.0184 / (lam_um ** 2 - 0.0179)
                   - 0.0155 * lam_um ** 2)


def independent_neb(lam_um):
    return np.sqrt(2.3730 + 0.0128 / (lam_um ** 2 - 0.0156)
                   - 0.0044 * lam_um ** 2)


def independent_ne(theta, lam_um):
    return 1.0 / np.sqrt(np.cos(theta) ** 2 / independent_no(lam_um) ** 2
                         + np.sin(theta) ** 2 / independent_neb(lam_um) ** 2)


def projection_rate(theta, settings, config):
    """Brute-force oracle: 2 |<T1| x <T2| (envelope * |psi>)|^2."""
    analyzer = np.kron(
        [math.cos(settings.theta1), math.sin(settings.theta1)],
        [math.cos(settings.theta2), math.sin(settings.theta2)])
    amplitude = sp.angular_envelope(theta, config) * \
        sp.state_at_angle(theta, config).amplitudes
    return 2.0 * abs(np.vdot(analyzer, amplitude)) ** 2
