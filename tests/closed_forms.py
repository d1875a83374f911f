"""Closed forms of the Bernstein operator B_n, in 40-digit mpmath.

No basis weight is walked here, so these references share no method with
bernprim's window walk, and a value costs O(1) at any degree.  Every
argument is taken as the exact double (or complex of doubles) it is.

* Exponentials (Lorentz, *Bernstein Polynomials*, ch. 1).  For
  f(x) = e^{lam x}, with lam complex, and z = e^{lam/n}:

      f_n(x) = (1 + x (z - 1))^n,
      F_n(x) = integral of f_n from 0 to x
             = ((1 + x (z - 1))^{n+1} - 1) / ((n + 1) (z - 1)).

  B_n's weights are real, so the real and imaginary parts of these are
  f_n and F_n for Re e^{lam x} and Im e^{lam x}: e^{a x} cos(b x) and
  e^{a x} sin(b x) for lam = a + ib.
* The kink at its corner (de Moivre; Diaconis and Zabell, Statistical
  Science 6, 1991).  For f = |x - c| at x = c, f_n(c) = E|K - n c| / n
  with K ~ Binomial(n, c), and

      E|K - n c| = 2 (1 - c)^{n-k} c^{k+1} (k + 1) C(n, k + 1),  k = floor(n c).
"""

from __future__ import annotations

import mpmath

DIGITS = 40


def exponential(lam: complex, n: int, x: float) -> tuple[mpmath.mpc, mpmath.mpc]:
    """(f_n(x), F_n(x)) for f(x) = e^{lam x}.

    Powers of 1 + x (z - 1) go through log1p and expm1, so they keep their
    relative precision however small x (z - 1) is.
    """
    with mpmath.workdps(DIGITS):
        if lam == 0:
            return mpmath.mpc(1), mpmath.mpc(x)
        step = mpmath.expm1(mpmath.mpc(lam) / n)  # z - 1
        log_base = mpmath.log1p(mpmath.mpf(x) * step)
        f_n = mpmath.exp(n * log_base)
        primitive = mpmath.expm1((n + 1) * log_base) / ((n + 1) * step)
        return f_n, primitive


def exponential_samples(lam: complex, n: int) -> list[mpmath.mpc]:
    """e^{lam m/n} at the exact m/n for m = 0..n: the powers z^m of z = e^{lam/n}."""
    with mpmath.workdps(DIGITS):
        z = mpmath.exp(mpmath.mpc(lam) / n)
        power = mpmath.mpc(1)
        samples = []
        for _ in range(n + 1):
            samples.append(power)
            power *= z
        return samples


def kink_samples(n: int, c: float) -> list[mpmath.mpf]:
    """|m/n - c| at the exact m/n for m = 0..n."""
    with mpmath.workdps(DIGITS):
        return [abs(mpmath.mpf(m) / n - c) for m in range(n + 1)]


def kink_mean_deviation(n: int, c: float) -> mpmath.mpf:
    """E|K - n c| for K ~ Binomial(n, c), 0 < c < 1, by de Moivre's closed form."""
    with mpmath.workdps(DIGITS):
        c = mpmath.mpf(c)
        k = int(mpmath.floor(n * c))
        return 2 * (1 - c) ** (n - k) * c ** (k + 1) * (k + 1) * mpmath.binomial(n, k + 1)
