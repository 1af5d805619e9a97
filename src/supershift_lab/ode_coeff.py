"""Coefficient ODEs behind the electric-field and oscillator propagators.

Both solves march Chebyshev panels of 24 Lobatto points over [0, t_max]
(spectral integration: Greengard, SIAM J. Numer. Anal. 28 (1991)
1071-1080).  J maps the values of f at the points of [-1, 1] to those of
int_{-1}^x f, so on a panel of half-width h the integral from the panel
start is h J f.

* Oscillator pair alpha'' = c alpha, beta'' = c beta, c = -4 lam, from
  alpha(0)=0, alpha'(0)=1, beta(0)=1, beta'(0)=0: w = y'' solves the
  Volterra form w = c (y0 + y0' tau + h^2 J^2 w) on each panel, with
  alpha and beta as two right-hand sides of one linear solve.
* Field coefficients t alpha'' + 2 alpha' = -lam, beta' = -t^2 alpha'^2:
  alpha'(t) = -int_0^1 s lam(t s) ds on the first panel (a fixed matrix
  on the panel values of lam, so t alpha' has no u/t^2 cancellation near
  0) and -u/t^2 with u(t) = int_0^t s lam(s) ds after it; alpha and beta
  are the h J integrals of alpha' and -(t alpha')^2.

Certificate: a panel whose trailing Chebyshev coefficients are not below
tol (or a few ulps) times the size of their component there is halved
and solved again.  Dense output is barycentric within one panel, exact
at the panel points, and raises ``ValueError`` outside [0, t_max];
horizons are roots of the panel interpolant.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial.legendre import leggauss

_N = 24  # Lobatto points per panel
_PANEL = 0.5  # length of the panels the march starts from
_TAIL = 3  # trailing Chebyshev coefficients in the certificate
_ROUNDOFF = 64 * np.finfo(float).eps  # tails below this are rounding noise
# Lobatto points -cos(pi k / (N - 1)), ascending and exactly -1, 1 at the
# ends, with their barycentric weights (-1)^k, halved at the ends
_X = np.sin(np.pi * (2 * np.arange(_N) - (_N - 1)) / (2 * (_N - 1)))
_W = (-1.0) ** np.arange(_N)
_W[[0, -1]] *= 0.5


@cache
def _matrices():
    """Values -> Chebyshev coefficients, J, J @ J, and the first-panel
    average M: (M f)_k = int_0^1 s f(t_k s) ds for the interpolant f on a
    panel starting at 0 (13-point Gauss-Legendre, exact for degree 24)."""
    # T_j(_X[k]) = (-1)^j cos(pi j k / (N - 1)): the inverse is a DCT-I
    k = np.arange(_N)
    inv = (2.0 / (_N - 1)) * (-1.0) ** k[:, None] * np.cos(np.pi * np.outer(k, k) / (_N - 1))
    inv[:, [0, -1]] *= 0.5
    inv[[0, -1]] *= 0.5
    integral = np.stack([cheb.chebint(e, lbnd=-1) for e in np.eye(_N)], axis=1)
    j = cheb.chebvander(_X, _N) @ integral @ inv
    j[0] = 0.0
    gx, gw = leggauss(13)
    s = 0.5 * (gx + 1.0)
    at = cheb.chebvander((_X[:, None] + 1.0) * s[None, :] - 1.0, _N - 1) @ inv
    return inv, j, j @ j, np.einsum("kil,i->kl", at, 0.5 * gw * s)


def _points(a: float, b: float) -> np.ndarray:
    t = 0.5 * (a + b) + 0.5 * (b - a) * _X
    t[0], t[-1] = a, b
    return t


class ChebyshevPanels:
    """Piecewise Chebyshev interpolant: ``values[p, k]`` holds every
    component at Lobatto point k of panel [edges[p], edges[p + 1]]; a
    panel's last point is the next one's first."""

    def __init__(self, edges: list, values: np.ndarray):
        self.edges = edges
        self.values = values

    def __call__(self, t: float) -> np.ndarray:
        edges = self.edges
        if not edges[0] <= t <= edges[-1]:
            raise ValueError(f"t={t} outside solved span [{edges[0]}, {edges[-1]}]")
        p = min(bisect_right(edges, t), len(edges) - 1) - 1
        a, b = edges[p], edges[p + 1]
        d = ((t - a) - (b - t)) / (b - a) - _X
        if not d.all():
            return self.values[p, np.argmin(np.abs(d))].copy()
        q = _W / d
        return (q @ self.values[p]) / q.sum()

    def first_zero(self, component: int) -> float:
        """First t > 0 where the component turns from positive to <= 0
        (+inf if it never does): the interpolant's root between the two
        Lobatto points that bracket the turn."""
        v = self.values[:, :, component]
        ts = np.array([_points(a, b) for a, b in zip(self.edges, self.edges[1:])])
        hit = (v <= 0.0) & (ts > 0.0)
        if not hit.any():
            return np.inf
        p, k = np.unravel_index(np.argmax(hit), hit.shape)
        c = _matrices()[0] @ v[p]
        dc = cheb.chebder(c)
        lo, hi = _X[k - 1], _X[k]
        x = lo + (hi - lo) * v[p, k - 1] / (v[p, k - 1] - v[p, k])
        for _ in range(8):  # Newton from the secant point, kept in the bracket
            x = min(max(x - cheb.chebval(x, c) / cheb.chebval(x, dc), lo), hi)
        a, b = self.edges[p], self.edges[p + 1]
        return float(0.5 * (a + b) + 0.5 * (b - a) * x)


def _march(panel, lam, t_max: float, y0, tol: float) -> ChebyshevPanels:
    """Solve panel by panel over [0, t_max] from the state y0 at 0, halving
    a panel until its trailing coefficients meet the certificate."""
    if not t_max > 0.0:
        raise ValueError("coefficient solve needs t_max > 0")
    inv = _matrices()[0]
    tol = max(tol, _ROUNDOFF)
    pending = np.linspace(0.0, t_max, int(np.ceil(t_max / _PANEL)) + 1)[:0:-1].tolist()
    edges, values = [0.0], []
    a, y = 0.0, np.asarray(y0, dtype=float)
    while pending:
        b = pending[-1]
        t = _points(a, b)
        vals = panel(np.array([float(lam(s)) for s in t.tolist()]), t, y)
        tail = np.abs(inv[-_TAIL:] @ vals).max(axis=0)
        if np.all(tail <= tol * np.abs(vals).max(axis=0)):
            edges.append(pending.pop())
            values.append(vals)
            a, y = b, vals[-1]
        elif b - a > 1e-12 * max(1.0, t_max):
            pending.append(0.5 * (a + b))
        else:
            raise RuntimeError(f"Chebyshev tail {tail.max():.3e} above tol {tol:.1e} at t={a:.6g}")
    return ChebyshevPanels(edges, np.array(values))


def _harmonic_panel(lam: np.ndarray, t: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """(alpha, alpha', beta, beta') at the panel points t from their values at t[0]."""
    _, j, j2, _ = _matrices()
    h = 0.5 * (t[-1] - t[0])
    c = -4.0 * lam[:, None]
    base = y0[0::2] + np.outer(t - t[0], y0[1::2])
    w = np.linalg.solve(np.eye(_N) - (h * h) * c * j2, c * base)
    y = np.empty((_N, 4))
    y[:, 0::2] = base + (h * h) * (j2 @ w)
    y[:, 1::2] = y0[1::2] + h * (j @ w)
    return y


def _electric_panel(lam: np.ndarray, t: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """(alpha, alpha', beta) at the panel points t from their values at t[0]."""
    _, j, _, m = _matrices()
    a, h = t[0], 0.5 * (t[-1] - t[0])
    if a == 0.0:
        ap = -(m @ lam)
    else:
        ap = (a * a * y0[1] - h * (j @ (t * lam))) / (t * t)
        ap[0] = y0[1]
    y = np.empty((_N, 3))
    y[:, 1] = ap
    y[:, 0::2] = y0[0::2] + h * (j @ np.column_stack([ap, -((t * ap) ** 2)]))
    return y


def _component(i: int):
    return lambda self, t: self.state(t)[i]


class _Coefficients:
    """Dense coefficients on [0, t_max]; ``state(t)`` returns every
    component from one evaluation and caches the last t, so the kernel
    calls of one time slice share it."""

    def __init__(self, lam: Callable[[float], float], t_max: float, dense: ChebyshevPanels):
        self.lam = lam
        self.t_max = t_max
        self._dense = dense
        self._last = (None, ())

    def state(self, t: float) -> tuple:
        last_t, y = self._last
        if t != last_t:
            y = tuple(self._dense(t).tolist())
            self._last = (t, y)
        return y


class ElectricCoeffs(_Coefficients):
    """Phase coefficients of the uniform-field propagator.

    alpha, beta solve t alpha'' + 2 alpha' = -lam, beta' = -t^2 alpha'^2
    with alpha(0) = beta(0) = 0 and t alpha'(t) -> 0; ``state(t)`` is
    (alpha, alpha', beta).  The kernel phase uses t alpha'(t).
    """

    alpha, alpha_prime, beta = _component(0), _component(1), _component(2)

    def t_alpha_prime(self, t: float) -> float:
        return t * self.state(t)[1]


class HarmonicCoeffs(_Coefficients):
    """Oscillator coefficient pair with Wronskian alpha' beta - alpha beta' = 1.

    ``state(t)`` is (alpha, alpha', beta, beta').  ``horizon`` is the
    first positive zero of alpha (+inf when alpha stays positive on the
    solved span); ``beta_horizon`` the first zero of beta.
    """

    alpha, alpha_prime, beta = _component(0), _component(1), _component(2)

    def __init__(self, lam, t_max, dense):
        super().__init__(lam, t_max, dense)
        self.horizon = dense.first_zero(0)
        self.beta_horizon = dense.first_zero(2)


def solve_electric(
    lam: Callable[[float], float], t_max: float, tol: float = 1e-12
) -> ElectricCoeffs:
    """Field coefficients on [0, t_max], certified to relative tol per panel."""
    return ElectricCoeffs(lam, t_max, _march(_electric_panel, lam, t_max, [0.0, 0.0, 0.0], tol))


def solve_harmonic(
    lam: Callable[[float], float], t_max: float, tol: float = 1e-13
) -> HarmonicCoeffs:
    """Oscillator pair and horizons on [0, t_max], certified to relative
    tol per panel."""
    dense = _march(_harmonic_panel, lam, t_max, [0.0, 1.0, 1.0, 0.0], tol)
    return HarmonicCoeffs(lam, t_max, dense)


def wronskian_drift(coeffs: HarmonicCoeffs, grid) -> float:
    """max over the grid of |alpha' beta - alpha beta' - 1|."""
    worst = 0.0
    for t in grid:
        al, ap, be, bp = coeffs.state(float(t))
        worst = max(worst, abs(ap * be - al * bp - 1.0))
    return worst
