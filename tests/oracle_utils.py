"""Independent high-precision oracles (mpmath) shared by the test modules.

Nothing here imports from the operator/quadrature machinery under test:
values come from mpmath's own special functions and adaptive quadrature.
"""

import mpmath as mp

mp.mp.dps = 30


def mp_kummer_scaled(a, b, z) -> float:
    return float(mp.e ** (-mp.mpf(z)) * mp.hyp1f1(a, b, z))


def mp_reg_lower_gamma(s, z) -> float:
    return float(mp.gammainc(s, 0, z) / mp.gamma(s))


def mp_poisson_weight(lam, a):
    """psi_a(lam) = lam^a e^(-lam) / Gamma(a + 1) for real a >= 0, as an mpf."""
    lam = mp.mpf(lam)
    return mp.exp(a * mp.log(lam) - lam - mp.loggamma(a + 1)) if lam else mp.mpf(a == 0)


def mp_raw_moment(r, n, alpha, beta, x) -> float:
    """mu_r via the Poisson sum of gamma-law moments, summed in mpmath."""
    n, alpha, beta, x = map(mp.mpf, (n, alpha, beta, x))
    z = n * x
    big = int(z + 40 * mp.sqrt(z + 1) + 120)
    total = mp.mpf(0)
    for k in range(big):
        w = mp.e ** (-z) * z**k / mp.factorial(k)
        total += w * mp.rf(k + alpha + 1, r)
    return float(total / (n - beta) ** r)


def mp_central_moment(r, n, alpha, beta, x, dps=80):
    """E (T - x)^r as an mpf at ``dps`` digits, from the closed-form raw
    moments mu_j = sum_m binom(j, m) z^m (alpha+m+1)_{j-m} / (n-beta)^j,
    z = n x (the terminating Kummer transform of the 1F1 form)."""
    with mp.workdps(dps):
        n, alpha, beta, x = map(mp.mpf, (n, alpha, beta, x))
        z, rate = n * x, n - beta
        mus = [
            sum(mp.binomial(j, m) * z**m * mp.rf(alpha + m + 1, j - m) for m in range(j + 1))
            / rate**j
            for j in range(r + 1)
        ]
        return sum(mp.binomial(r, j) * (-x) ** (r - j) * mus[j] for j in range(r + 1))


def mp_gamma_mean(f, shape, rate, breakpoints=()) -> float:
    """Mean of f under Gamma(shape, rate) by mpmath quadrature.

    ``breakpoints`` (t values where f is not smooth) split the integral.
    """
    shape, rate = mp.mpf(shape), mp.mpf(rate)
    dens = lambda t: t ** (shape - 1) * mp.e ** (-rate * t)
    points = sorted({0, 1, 10, *breakpoints}) + [mp.inf]
    num = mp.quad(lambda t: f(t) * dens(t), points)
    return float(num * rate**shape / mp.gamma(shape))


def mp_operator_apply(f, x, n, alpha, beta, terms=None) -> float:
    """Direct k-sum operator application with mpmath gamma-mean coefficients."""
    n, alpha, beta, x = map(mp.mpf, (n, alpha, beta, x))
    z = n * x
    if terms is None:
        terms = int(z + 30 * mp.sqrt(z + 1) + 60)
    total = mp.mpf(0)
    for k in range(terms):
        w = mp.e ** (-z) * z**k / mp.factorial(k)
        if w < mp.mpf(10) ** -40 and k > z:
            break
        shape = k + alpha + 1
        rate = n - beta
        num = mp.quad(lambda t: f(t) * t ** (shape - 1) * mp.e ** (-rate * t), [0, 1, 10, mp.inf])
        total += w * num * rate**shape / mp.gamma(shape)
    return float(total)


def mp_szasz(f, x, n, terms=400) -> float:
    n, x = mp.mpf(n), mp.mpf(x)
    z = n * x
    return float(
        sum(mp.e ** (-z) * z**k / mp.factorial(k) * f(mp.mpf(k) / n) for k in range(terms))
    )
