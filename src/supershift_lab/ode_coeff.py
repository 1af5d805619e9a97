"""Coefficient ODEs behind the propagator of V = lam2(t) x^2 + lam1(t) x.

The propagator is e^{i S}/sqrt(4 pi i alpha), S the classical action,
which is quadratic in the end points (Feynman & Hibbs 1965, quadratic
Lagrangians), the root continued past each zero of alpha; its
coefficients solve, from t = 0,

* the oscillator pair alpha'' = -4 lam2 alpha, beta'' = -4 lam2 beta
  with alpha(0)=0, alpha'(0)=1, beta(0)=1, beta'(0)=0;
* the forced path xi'' = -4 lam2 xi - 2 lam1 with xi(0) = xi'(0) = 0;
* W' = -2 lam1 alpha and V' = lam1 xi with W(0) = V(0) = 0.

Every equation is regular at t = 0.  The solve marches Chebyshev panels
of 24 Lobatto points over [0, t_max] (spectral integration: Greengard,
SIAM J. Numer. Anal. 28 (1991) 1071-1080).  J maps the values of f at the
points of [-1, 1] to those of int_{-1}^x f, so on a panel of half-width h
the integral from the panel start is h J f.  For y = alpha, beta, xi,
w = y'' solves the Volterra form w = c (y0 + y0' tau + h^2 J^2 w) + g,
c = -4 lam2 (g = -2 lam1 for xi, 0 for the pair): three right-hand sides
of one linear solve.  W and V are h J integrals.

Certificate: a panel whose trailing Chebyshev coefficients are not below
_TOL = 1e-13 (or a few ulps) times the size of their component there is
halved and solved again; a panel's accepted tails are its error
(``QuadraticCoeffs.error``).  A panel still failing at width
1e-12 max(1, t_max), where alpha overflows say, ends the span at its
start, which becomes the coefficients' t_max.  Dense output is
barycentric within one panel, exact at the panel points, and raises
``ValueError`` outside [0, t_max].
The zeros of alpha, the kernel's caustics, are counted from the signs of
alpha at the panel points (``QuadraticCoeffs.maslov``), not solved for.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import SupershiftError

_N = 24  # Lobatto points per panel
_PANEL = 0.5  # length of the panels the march starts from
_TAIL = 3  # trailing Chebyshev coefficients in the certificate
_TOL = 1e-13  # relative certificate of a panel
_ROUNDOFF = 64 * np.finfo(float).eps  # tails below this are rounding noise
# Lobatto points -cos(pi k / (N - 1)), ascending and exactly -1, 1 at the
# ends, with their barycentric weights (-1)^k, halved at the ends
_X = np.sin(np.pi * (2 * np.arange(_N) - (_N - 1)) / (2 * (_N - 1)))
_W = (-1.0) ** np.arange(_N)
_W[[0, -1]] *= 0.5
# the state at t = 0: (alpha, alpha', beta, beta', xi, xi', W, V)
_Y0 = (0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@cache
def _matrices():
    """Values -> Chebyshev coefficients, J and J @ J."""
    # T_j(_X[k]) = (-1)^j cos(pi j k / (N - 1)): the inverse is a DCT-I
    k = np.arange(_N)
    inv = (2.0 / (_N - 1)) * (-1.0) ** k[:, None] * np.cos(np.pi * np.outer(k, k) / (_N - 1))
    inv[:, [0, -1]] *= 0.5
    inv[[0, -1]] *= 0.5
    integral = np.stack([cheb.chebint(e, lbnd=-1) for e in np.eye(_N)], axis=1)
    j = cheb.chebvander(_X, _N) @ integral @ inv
    j[0] = 0.0
    return inv, j, j @ j


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
        # t - a is exact near the panel start, which keeps the relative
        # accuracy of a component vanishing there (alpha ~ t as t -> 0)
        d = (2.0 * (t - a) - (b - a) * (1.0 + _X)) / (b - a)
        if not d.all():
            return self.values[p, np.argmin(np.abs(d))].copy()
        q = _W / d
        return (q @ self.values[p]) / q.sum()


def _quadratic_panel(
    lam2: np.ndarray, lam1: np.ndarray, t: np.ndarray, y0: np.ndarray
) -> np.ndarray:
    """(alpha, alpha', beta, beta', xi, xi', W, V) at the panel points t
    from their values at t[0]."""
    _, j, j2 = _matrices()
    h = 0.5 * (t[-1] - t[0])
    c = -4.0 * lam2[:, None]
    base = y0[0:6:2] + np.outer(t - t[0], y0[1:6:2])
    rhs = c * base
    rhs[:, 2] -= 2.0 * lam1
    w = np.linalg.solve(np.eye(_N) - (h * h) * c * j2, rhs)
    y = np.empty((_N, 8))
    y[:, 0:6:2] = base + (h * h) * (j2 @ w)
    y[:, 1:6:2] = y0[1:6:2] + h * (j @ w)
    y[:, 6:] = y0[6:] + h * (j @ np.column_stack([-2.0 * lam1 * y[:, 0], lam1 * y[:, 4]]))
    return y


@np.errstate(over="ignore", invalid="ignore")  # an overflowing panel fails its certificate
def _march(lam2, lam1, t_max: float, tol: float) -> ChebyshevPanels:
    """Solve panel by panel over [0, t_max] from the state at 0, halving
    a panel until its trailing coefficients meet the certificate.  A panel
    that misses it at width 1e-12 max(1, t_max) ends the span at its
    start; no panel certified from t = 0 is a ``SupershiftError``."""
    if not t_max > 0.0:
        raise ValueError("coefficient solve needs t_max > 0")
    inv = _matrices()[0]
    tol = max(tol, _ROUNDOFF)
    pending = np.linspace(0.0, t_max, int(np.ceil(t_max / _PANEL)) + 1)[:0:-1].tolist()
    edges, values = [0.0], []
    a, y = 0.0, np.array(_Y0)
    while pending:
        b = pending[-1]
        t = _points(a, b)
        ts = t.tolist()
        vals = _quadratic_panel(
            np.array([float(lam2(s)) for s in ts]), np.array([float(lam1(s)) for s in ts]), t, y
        )
        tail = np.abs(inv[-_TAIL:] @ vals).max(axis=0)
        if np.all(tail <= tol * np.abs(vals).max(axis=0)):
            edges.append(pending.pop())
            values.append(vals)
            a, y = b, vals[-1]
        elif b - a > 1e-12 * max(1.0, t_max):
            pending.append(0.5 * (a + b))
        elif values:
            break
        else:
            raise SupershiftError(
                f"coefficient solve: Chebyshev tail {tail.max():.3e} above tol {tol:.1e} from t=0"
            )
    return ChebyshevPanels(edges, np.array(values))


def _component(i: int):
    return lambda self, t: self.state(t)[i]


def _phase_part(i: int):
    return lambda self, t: self.phase(t)[i]


class QuadraticCoeffs:
    """Dense propagator coefficients of V = lam2 x^2 + lam1 x on [0, t_max].

    ``state(t)`` is (alpha, alpha', beta, beta', xi, xi', W, V) from one
    evaluation, ``maslov(t)`` the number of zeros of alpha in (0, t) and
    ``error(t)`` the certificate of t's panel; all are cached for the last
    t, so the kernel calls of one time slice share them.  alpha' beta -
    alpha beta' = 1 and W = alpha xi' - alpha' xi.
    """

    alpha, alpha_prime, beta, xi = _component(0), _component(1), _component(2), _component(4)
    p, q, r = _phase_part(0), _phase_part(1), _phase_part(2)

    def __init__(self, t_max: float, dense: ChebyshevPanels):
        self.t_max = t_max
        self._dense = dense
        self._last = (None, (), 0, 0.0)
        # each panel's largest trailing coefficient of the components the
        # kernel divides by alpha: alpha, alpha', beta, xi and W
        tails = np.abs(_matrices()[0][-_TAIL:] @ dense.values[:, :, [0, 1, 2, 4, 6]])
        self._tails = tails.max(axis=(1, 2)).tolist()
        # the sign of alpha at each Lobatto point (a panel's last point is
        # the next one's first) and the sign changes up to it.  Two zeros
        # never share a bracket: their Sturm spacing pi / (2 sqrt(max lam2))
        # is over five brackets of a panel that resolves alpha to _TOL
        edges, pos = dense.edges, dense.values[:, :, 0].ravel() >= 0.0
        self._knots = np.concatenate([_points(a, b) for a, b in zip(edges, edges[1:])]).tolist()
        self._positive = pos.tolist()
        self._passed = np.concatenate([[0], np.cumsum(pos[1:] != pos[:-1])]).tolist()

    def state(self, t: float) -> tuple:
        last_t, y = self._last[:2]
        if t != last_t:
            y = tuple(self._dense(t).tolist())
            i = bisect_right(self._knots, t) - 1
            m = self._passed[i] + (self._positive[i] != (y[0] >= 0.0))
            self._last = (t, y, m, self._tails[i // _N])
        return y

    def maslov(self, t: float) -> int:
        """The zeros of alpha in (0, t) without root-finding: its sign
        changes over the Lobatto points up to t's bracket, plus one if
        alpha(t) has left the bracket start's sign (parity: sign of alpha)."""
        self.state(t)
        return self._last[2]

    def error(self, t: float) -> float:
        """Largest trailing Chebyshev coefficient of alpha, alpha', beta,
        xi and W on t's panel, the scale of their absolute error there."""
        self.state(t)
        return self._last[3]

    def phase(self, t: float) -> tuple[float, float, float]:
        """(p, q, r) of the kernel's linear phase p x + q z + r:
        W/(2 alpha), xi/(2 alpha) and -xi W/(4 alpha) - V/2, with their
        limit 0 at t = 0."""
        if t == 0.0:
            return 0.0, 0.0, 0.0
        al, _, _, _, xi, _, w, v = self.state(t)
        return w / (2.0 * al), xi / (2.0 * al), -xi * w / (4.0 * al) - 0.5 * v


def solve_quadratic(
    lam2: Callable[[float], float], lam1: Callable[[float], float], t_max: float
) -> QuadraticCoeffs:
    """Coefficients on [0, t_max], certified to relative _TOL per panel;
    their t_max is the last certified edge, t_max itself unless a panel
    fails the certificate (alpha overflowing, say) before it."""
    dense = _march(lam2, lam1, t_max, _TOL)
    return QuadraticCoeffs(dense.edges[-1], dense)


def _zero(t: float) -> float:
    return 0.0


def solve_electric(lam: Callable[[float], float], t_max: float) -> QuadraticCoeffs:
    """The field case V = lam(t) x of ``solve_quadratic``."""
    return solve_quadratic(_zero, lam, t_max)


def solve_harmonic(lam: Callable[[float], float], t_max: float) -> QuadraticCoeffs:
    """The oscillator case V = lam(t) x^2 of ``solve_quadratic``."""
    return solve_quadratic(lam, _zero, t_max)
