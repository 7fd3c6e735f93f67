"""Physical parameters and derived constants.

A :class:`PhysicalParams` instance holds the bath/particle constants
(M, gamma, omega0_sq, T, hbar) together with everything derived from them:
inverse temperature beta, Matsubara frequency nu, the characteristic roots
lambda1/lambda2 of ``lam**2 - gamma*lam + omega0_sq/M = 0``, the discriminant
omega_sq = gamma**2 - 4*omega0_sq/M, and a damping-regime tag.  It is frozen
and safe to share across threads.

Unit handling: in ``reduced`` mode k_B = 1; in ``SI`` mode k_B takes its SI
value.  The core math never converts units — conversions belong at the CLI
boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    HbarZero,
    NonPositiveCurvature,
    NonPositiveMass,
    NonPositiveTemperature,
)

K_B_SI = 1.380649e-23  # J/K, exact (2019 SI)
K_B_REDUCED = 1.0

#: |omega_sq| <= CRITICAL_TOL * gamma**2 tags the regime "critical".  The tag is
#: descriptive: every formula is branch-free at critical damping, and only the
#: "underdamped" tag (drift pole windows) changes what is computed.
CRITICAL_TOL = 1e-12

OVERDAMPED = "overdamped"
CRITICAL = "critical"
UNDERDAMPED = "underdamped"


@dataclass(frozen=True)
class PhysicalParams:
    """Immutable parameter set with derived constants.

    ``nu`` is ``None`` when hbar = 0 (exact classical limit); operations that
    need the Matsubara frequency must call :meth:`matsubara_nu`, which raises
    :class:`~qbm.errors.HbarZero` in that case.
    """

    M: float
    gamma: float
    omega0_sq: float
    T: float
    hbar: float
    unit_mode: str
    k_B: float
    beta: float
    nu: float | None
    lambda1: complex
    lambda2: complex
    omega_sq: float
    omega: complex
    regime: str

    def matsubara_nu(self) -> float:
        if self.nu is None:
            raise HbarZero(
                "Matsubara frequency is undefined for hbar = 0; "
                "use the classical-mode operations instead"
            )
        return self.nu

    @property
    def is_classical(self) -> bool:
        return self.hbar == 0.0

    @property
    def kT(self) -> float:
        return self.k_B * self.T


def derive(
    M: float,
    gamma: float,
    omega0_sq: float,
    T: float,
    hbar: float = 0.0,
    unit_mode: str = "reduced",
) -> PhysicalParams:
    """Validate raw parameters and populate every derived field.

    Root convention: lambda1 is the root with the larger real part
    (overdamped) or positive imaginary part (underdamped).  lambda2 is
    computed from the product identity lambda1*lambda2 = omega0_sq/M, which
    avoids the cancellation in (gamma - sqrt(disc))/2 when
    omega0_sq/M << gamma**2.
    """
    if not (M > 0.0) or not math.isfinite(M):
        raise NonPositiveMass(f"M must be positive and finite, got {M}")
    if not (T > 0.0) or not math.isfinite(T):
        raise NonPositiveTemperature(f"T must be positive and finite, got {T}")
    if not (omega0_sq > 0.0) or not math.isfinite(omega0_sq):
        raise NonPositiveCurvature(
            f"omega0_sq must be positive and finite, got {omega0_sq}"
        )
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    if hbar < 0.0 or not math.isfinite(hbar):
        raise ValueError(f"hbar must be nonnegative and finite, got {hbar}")
    unit_mode = unit_mode.lower() if isinstance(unit_mode, str) else unit_mode
    if unit_mode not in ("reduced", "si"):
        raise ValueError(f"unit_mode must be 'reduced' or 'si', got {unit_mode!r}")

    k_B = K_B_REDUCED if unit_mode == "reduced" else K_B_SI
    beta = 1.0 / (k_B * T)
    nu = 2.0 * math.pi / (hbar * beta) if hbar > 0.0 else None

    omega_sq = gamma * gamma - 4.0 * omega0_sq / M
    omega = cmath.sqrt(complex(omega_sq))  # real >= 0 or positive-imaginary
    lambda1 = (gamma + omega) / 2.0
    lambda2 = (omega0_sq / M) / lambda1

    if abs(omega_sq) <= CRITICAL_TOL * gamma * gamma:
        regime = CRITICAL
    elif omega_sq > 0.0:
        regime = OVERDAMPED
    else:
        regime = UNDERDAMPED

    return PhysicalParams(
        M=float(M),
        gamma=float(gamma),
        omega0_sq=float(omega0_sq),
        T=float(T),
        hbar=float(hbar),
        unit_mode=unit_mode,
        k_B=k_B,
        beta=beta,
        nu=nu,
        lambda1=lambda1,
        lambda2=lambda2,
        omega_sq=omega_sq,
        omega=omega,
        regime=regime,
    )

