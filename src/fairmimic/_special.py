"""The two special functions the package needs, in numpy and ``math``.

``ndtri`` is the standard normal quantile by Wichura's algorithm AS241
(PPND16; Wichura 1988, *Appl. Statist.* 37(3)), good to about 1e-16
relative.  ``chi2_sf`` is the chi-square upper tail for an integer number
of degrees of freedom, a finite sum (Abramowitz & Stegun 1964, 26.4.4 and
26.4.5).
"""

from __future__ import annotations

import math

import numpy as np

# AS241 coefficients, highest power first.  Central region |u - 1/2| <= 0.425,
# in r = 0.180625 - (u - 1/2)^2:
_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
      1.3314166789178437745e2, 3.3871328727963666080e0)
_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
      4.2313330701600911252e1, 1.0)
# Tails, in r = sqrt(-log(min(u, 1 - u))): r - 1.6 while r <= 5 ...
_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
      4.63033784615654529590e0, 1.42343711074968357734e0)
_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
      2.05319162663775882187e0, 1.0)
# ... and r - 5 beyond, where min(u, 1 - u) < exp(-25).
_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
      5.46378491116411436990e0, 6.65790464350110377720e0)
_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)


def _horner(coefs, r, out):
    """The polynomial with ``coefs`` (highest power first) at ``r``, by
    Horner steps in place in ``out``."""
    np.multiply(r, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= r
    out += coefs[-1]
    return out


def _rational(num, den, r, out, work):
    """``num(r) / den(r)`` in ``out``, the denominator evaluated in
    ``work``; both have the size of ``r`` and neither is ``r``."""
    _horner(num, r, out)
    out /= _horner(den, r, work)
    return out


def ndtri(u, out=None) -> np.ndarray:
    """Standard normal quantile of ``u``, every entry in the open (0, 1),
    written into ``out`` when given: a C-ordered float64 array of the shape
    of ``u`` that shares no memory with it.

    Each entry's value depends on that entry alone, so the quantile of an
    array equals the concatenation of the quantiles of its pieces, bit for
    bit.  The central rational is evaluated in place over every entry with
    no masking, since its denominator stays above 2e-3 for every r there;
    only the ~15% of entries in the tails are gathered.  Besides the result
    the evaluation holds three arrays of the size of ``u``: a caller with
    many entries passes them in blocks that fit in cache.
    """
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty(u.shape)
    elif out.shape != u.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-ordered float64 array of shape {u.shape}")
    elif np.may_share_memory(u, out):
        raise ValueError("out must not share memory with u")
    u, res = u.reshape(-1), out.reshape(-1)
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    work = np.empty(u.size)
    _rational(_A, _B, r, res, work)
    res *= q
    tail = np.flatnonzero(np.abs(q, out=r) > 0.425)
    if tail.size:
        ut = u[tail]
        t = np.subtract(1.0, ut)
        np.minimum(ut, t, out=t)
        np.log(t, out=t)
        np.negative(t, out=t)
        np.sqrt(t, out=t)
        z = _rational(_C, _D, t - 1.6, ut, work[: t.size])
        far = np.flatnonzero(t > 5.0)
        if far.size:
            z[far] = _rational(_E, _F, t[far] - 5.0, np.empty(far.size), work[: far.size])
        res[tail] = np.copysign(z, q[tail])
    return out


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with a positive integer ``df`` and x >= 0.

    With y = x/2 and h = df/2 the tail is the sum of exp(-y) y^m / Γ(m+1)
    over m = h-1, h-2, ... > -1, plus erfc(sqrt(y)) when df is odd.  The terms
    are summed by the recurrence t(m+1) = t(m) y / (m+1) while exp(-y) is a
    normal float, and each from its logarithm beyond.
    """
    y = 0.5 * x
    odd = df % 2
    m = 0.5 if odd else 0.0
    p = math.erfc(math.sqrt(y)) if odd else 0.0
    if y < 700.0:
        t = 2.0 * math.exp(-y) * math.sqrt(y / math.pi) if odd else math.exp(-y)
        for _ in range(df // 2):
            p += t
            m += 1.0
            t *= y / m
    else:
        for _ in range(df // 2):
            p += math.exp(m * math.log(y) - y - math.lgamma(m + 1.0))
            m += 1.0
    return p
