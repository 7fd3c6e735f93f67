"""High-precision reference values of the Matsubara mode sums at the cutoff N.

For each mode n <= N this evaluates, in mpmath with ~100 digits,

* R_n(t) = (chi_v/2)*L_(nu_n)*(w2*chi_v + nu_n*(chi_v_dot - exp(-nu_n*t))),
* int_0^t R_n = (L_(nu_n)/2)*(w2*int_0^t chi_v**2 + nu_n*(chi_v**2/2 - J(nu_n))),

with w2 = omega0_sq/M, L_(mu) = 1/((mu - lambda1)(mu - lambda2)) and
J(mu) = int_0^t chi_v*exp(-mu*u) du, all from the two exponentials of chi_v.
The float inputs (gamma, w2, nu) are taken as exact.  A double root is split
by lowering w2 by 1e-40 (the values are analytic in w2, so the bias is of
that order), and the working precision absorbs the cancellations of the
divided differences.  ``python tests/mode_sum_reference.py`` prints the
table that ``tests/test_coefficients.py`` commits as ``MODE_SUM_REFERENCE``.
"""

from __future__ import annotations

import mpmath as mp

#: fixture name -> (M, gamma, omega0_sq, T), all with hbar = 1
FIXTURES = {
    "over": (1.0, 1.0, 0.16, 1.0),
    "under": (1.0, 0.5, 1.0, 1.0),
    "crit": (1.0, 2.0, 1.0, 1.0),
    "near_crit": (1.0, 0.5, 0.0625 - 2.5e-11, 1.0),
    "resonant": (1.0, 1.0, 0.16, 0.8 / (2.0 * 3.141592653589793)),
    "strong": (1.0, 20.0, 1.0, 1.0),
    "cold": (1.0, 1.0, 0.16, 0.003),
}
TIMES = (1e-4, 1e-3, 0.05, 0.7, 8.0, 50.0)
COLD_TIMES = (1e-3, 0.05, 50.0)
CUTOFFS = (64, 2000)


def mode_sums(gamma: float, w2: float, nu: float, t: float, cutoffs=CUTOFFS, dps: int = 110):
    """{N: (sum_{n <= N} R_n(t), sum_{n <= N} int_0^t R_n)} as mpf values."""
    with mp.workdps(dps):
        g, w2, nu, t = (mp.mpf(x) for x in (gamma, w2, nu, t))
        if g * g == 4 * w2:
            w2 -= mp.mpf(10) ** -40
        om = mp.sqrt(mp.mpc(g * g - 4 * w2))
        l1, l2 = (g + om) / 2, (g - om) / 2
        e1, e2 = mp.exp(-l1 * t), mp.exp(-l2 * t)
        cv = (e2 - e1) / (l1 - l2)
        cvd = (l1 * e1 - l2 * e2) / (l1 - l2)

        def integral(a):  # int_0^t exp(-a*u) du
            return -mp.expm1(-a * t) / a

        cv2_int = (integral(2 * l2) - 2 * integral(g) + integral(2 * l1)) / (l1 - l2) ** 2
        out, r_sum, s_sum = {}, mp.mpf(0), mp.mpf(0)
        for n in range(1, max(cutoffs) + 1):
            nun = n * nu
            lm = 1 / ((nun - l1) * (nun - l2))
            j = (integral(l2 + nun) - integral(l1 + nun)) / (l1 - l2)
            r_sum += mp.re(cv / 2 * lm * (w2 * cv + nun * (cvd - mp.exp(-nun * t))))
            s_sum += mp.re(lm / 2 * (w2 * cv2_int + nun * (cv * cv / 2 - j)))
            if n in cutoffs:
                out[n] = (+r_sum, +s_sum)
        return out


def table() -> dict:
    """{(fixture, N, t): (D1 mode sum, sigma1 mode part)} as 20-digit strings."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qbm import derive

    rows = {}
    for name, args in FIXTURES.items():
        p = derive(*args, hbar=1.0)
        for t in COLD_TIMES if name == "cold" else TIMES:
            for n, vals in mode_sums(p.gamma, p.omega0_sq / p.M, p.matsubara_nu(), t).items():
                rows[(name, n, t)] = tuple(mp.nstr(v, 20, strip_zeros=False) for v in vals)
    return rows


if __name__ == "__main__":
    for key, (r, s) in table().items():
        print(f"    {key!r}: ({r}, {s}),")
