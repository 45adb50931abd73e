"""Bivariate copulas for mixed discrete-continuous margins.

Every family exposes the copula CDF, both partial derivatives and the
density.  On top of those primitives the module provides the conditional
distributions ``hfunc`` (difference quotient of the CDF over a discrete
conditioner's jump, partial derivative otherwise), their inverses, the
generalized density, and fitting from pseudo-observations that carry left
limits.  One helper, ``_oriented``, fixes which copula argument is the
target and which the conditioner.

A discrete coordinate is read through its jump [u_left, u] (``PseudoObs``)
by one rule: ``_h_jump`` evaluates h at both ends of the target's jump.  The
generalized density (Panagiotelis, Czado & Joe 2012) is the copula density
where both coordinates are continuous, and otherwise the jump of h(a | b) over
a's jump divided by that jump where a is discrete, or the same with a and b
swapped.

A jump's left end at 0 (an atom at the bottom of the support) is not
evaluated: the copula CDF and its partial derivatives are exactly 0 at a zero
conditioner, and h is exactly 0 at a zero target, so those terms are taken as
0, which leaves every result bit for bit as the full evaluation gives it.
"""
from __future__ import annotations

import inspect
import math
import warnings

import numpy as np
from scipy import integrate, optimize, special, stats

from ._util import as_float_array, decode_f8, encode_f8
from .errors import DomainError, EstimationError, NumericsError
from .marginal import PseudoObs

UNIT_EPS = 1e-12
MIN_DISCRETE_MASS = 1e-12
NEWTON_BRACKET = 2.0**-34  # a bracket this narrow pins the target below 1e-10
NEWTON_STEP = 1e-13
NEWTON_MAX_STEPS = 100
MIN_SAMPLE = 30
RHO_CAP = 0.999
THETA_CAP_CLAYTON = 50.0
THETA_CAP_GUMBEL = 50.0
THETA_CAP_FRANK = 35.0
CHECKERBOARD_RESOLUTION = 32
CHECKERBOARD_PSEUDO_COUNT = 0.5
SINKHORN_ROUNDS = 100
SINKHORN_TOL = 1e-9

DEFAULT_FAMILY_SET = ("independence", "gaussian", "clayton", "gumbel", "frank", "checkerboard")


# -- family primitives -------------------------------------------------------


# rotation in degrees -> (flip u, flip v)
_FLIPS = {0: (False, False), 90: (True, False), 180: (True, True), 270: (False, True)}


def _valid_rotation(rotation: int) -> int:
    # bool is an int, and 270.0 would find the key 270
    if isinstance(rotation, bool) or not isinstance(rotation, int) or rotation not in _FLIPS:
        raise ValueError("rotation must be 0, 90, 180 or 270")
    return rotation


def _safeguarded_newton(h_and_slope, w, t, lo: float, hi: float, *args) -> np.ndarray:
    """Solve h(t, *args) = w for t in [lo, hi], h nondecreasing in t.

    ``h_and_slope(t, *args)`` returns h and dh/dt.  Each row starts at its
    first guess ``t`` clipped into the bracket and narrows the bracket by the
    sign of h - w.  A Newton step is taken when it stays in the bracket and is at
    most half the previous step, which stops Newton cycling across a kink;
    otherwise the row bisects.  A row stops once its bracket is narrower than
    2**-34, its Newton step is below 1e-13, or a Newton step below 2**-34
    stops shrinking, which is h's rounding noise.  ``NEWTON_MAX_STEPS`` only
    bounds the loop; the caller's residual check judges the result.
    """
    w = np.asarray(w, dtype=float)
    t = np.clip(t, lo, hi)
    lo = np.full_like(w, lo)
    hi = np.full_like(w, hi)
    last = hi - lo
    out = t.copy()
    rows = np.arange(w.size)
    for _ in range(NEWTON_MAX_STEPS):
        h, slope = h_and_slope(t, *args)
        below = h < w
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = t + (w - h) / slope  # NaN or inf on a flat stretch: bisect
        size = np.abs(nxt - t)
        stalled = size > 0.5 * last
        newton = (nxt >= lo) & (nxt <= hi) & (~stalled | (size < NEWTON_BRACKET))
        done = (hi - lo < NEWTON_BRACKET) | (newton & (stalled | (size < NEWTON_STEP)))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        last = np.abs(nxt - t)
        out[rows] = nxt
        if done.all():
            break
        keep = ~done
        rows, t, w, lo, hi, last = rows[keep], nxt[keep], w[keep], lo[keep], hi[keep], last[keep]
        args = [a[keep] for a in args]
    return out


class BivariateCopula:
    """Base class: rotation handling and exact boundary behaviour."""

    family = "base"
    rotation = 0

    # unrotated primitives on interior points; subclasses implement these
    def _cdf0(self, u, v):
        raise NotImplementedError

    def _pdf0(self, u, v):
        raise NotImplementedError

    def _du0(self, u, v):
        raise NotImplementedError

    def _dv0(self, u, v):
        return self._du0(v, u)  # exchangeable families; the checkerboard has its own

    def _du0_inv(self, u, w):
        """The v with _du0(u, v) = w: safeguarded Newton on the density where a
        family has no closed form."""
        return _safeguarded_newton(lambda v, u: (self._du0(u, v), self._pdf0(u, v)),
                                   w, w, UNIT_EPS, 1.0 - UNIT_EPS, u)

    def _dv0_inv(self, v, w):
        return self._du0_inv(v, w)  # exchangeable families; the checkerboard has its own

    def _params(self) -> dict:
        return {}

    def __repr__(self):
        pars = ", ".join(f"{k}={v}" for k, v in self._params().items())
        rot = f", rotation={self.rotation}" if self.rotation else ""
        return f"{self.__class__.__name__}({pars}{rot})"

    @property
    def _flips(self) -> tuple:
        """The rotation as (flip u, flip v): u flips at 90 and 180 degrees, v at 180 and 270."""
        return _FLIPS[_valid_rotation(self.rotation)]

    def _frame(self, u, v):
        """Broadcast inputs, their interior clips, and the clips mapped by the flips."""
        u, v = np.broadcast_arrays(as_float_array(u), as_float_array(v))
        ui = np.clip(u, UNIT_EPS, 1.0 - UNIT_EPS)
        vi = np.clip(v, UNIT_EPS, 1.0 - UNIT_EPS)
        flip_u, flip_v = self._flips
        return u, v, ui, vi, (1.0 - ui if flip_u else ui), (1.0 - vi if flip_v else vi)

    def cdf(self, u, v):
        u, v, ui, vi, x, y = self._frame(u, v)
        c = self._cdf0(x, y)
        flip_u, flip_v = self._flips
        if flip_u:
            c = ui + vi - 1.0 + c if flip_v else vi - c
        elif flip_v:
            c = ui - c
        c = np.clip(c, np.maximum(u + v - 1.0, 0.0), np.minimum(u, v))
        c = np.where(u <= 0.0, 0.0, c)
        c = np.where(v <= 0.0, 0.0, c)
        c = np.where(u >= 1.0, np.clip(v, 0.0, 1.0), c)
        c = np.where(v >= 1.0, np.clip(u, 0.0, 1.0), c)
        c = np.where((u >= 1.0) & (v >= 1.0), 1.0, c)
        return c

    def pdf(self, u, v):
        *_, x, y = self._frame(u, v)
        return np.maximum(self._pdf0(x, y), 0.0)

    def du(self, u, v):
        """dC/du, the conditional CDF of V given U = u."""
        u, v, _, _, x, y = self._frame(u, v)
        d = self._du0(x, y)
        if self._flips[1]:
            d = 1.0 - d
        d = np.where(v <= 0.0, 0.0, d)
        d = np.where(v >= 1.0, 1.0, d)
        return np.clip(d, 0.0, 1.0)

    def dv(self, u, v):
        """dC/dv, the conditional CDF of U given V = v."""
        u, v, _, _, x, y = self._frame(u, v)
        d = self._dv0(x, y)
        if self._flips[0]:
            d = 1.0 - d
        d = np.where(u <= 0.0, 0.0, d)
        d = np.where(u >= 1.0, 1.0, d)
        return np.clip(d, 0.0, 1.0)

    # The inverses of du and dv in their second and first argument, for levels
    # 0 < w < 1.  The conditioner is clipped and flipped as du/dv do it, the
    # unrotated family solves, and the result is kept inside the same clip.

    def du_inverse(self, u, w):
        """The v with du(u, v) = w."""
        flip_u, flip_v = self._flips
        x = np.clip(u, UNIT_EPS, 1.0 - UNIT_EPS)
        y = self._du0_inv(1.0 - x if flip_u else x, 1.0 - w if flip_v else w)
        y = np.clip(y, UNIT_EPS, 1.0 - UNIT_EPS)
        return 1.0 - y if flip_v else y

    def dv_inverse(self, v, w):
        """The u with dv(u, v) = w."""
        flip_u, flip_v = self._flips
        y = np.clip(v, UNIT_EPS, 1.0 - UNIT_EPS)
        x = self._dv0_inv(1.0 - y if flip_v else y, 1.0 - w if flip_u else w)
        x = np.clip(x, UNIT_EPS, 1.0 - UNIT_EPS)
        return 1.0 - x if flip_u else x

    def loglik(self, u, v) -> float:
        return float(np.log(np.maximum(self.pdf(u, v), 1e-300)).sum())

    def to_dict(self) -> dict:
        return {"family": self.family, "rotation": self.rotation, **self._params()}

    @classmethod
    def _from_params(cls, **params) -> "BivariateCopula":
        """The copula of a record's parameters: ``to_dict`` less its family (and a zero rotation)."""
        return cls(**params)


class IndependenceCopula(BivariateCopula):
    family = "independence"

    def _cdf0(self, u, v):
        return u * v

    def _pdf0(self, u, v):
        return np.ones_like(u)

    def _du0(self, u, v):
        return np.asarray(v, dtype=float)

    def _du0_inv(self, u, w):
        return np.asarray(w, dtype=float)


def _bvn_cdf(h, k, rho: float):
    """Standard bivariate normal CDF via Owen's T function, for |rho| <= ``RHO_CAP``."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if rho == 0.0:
        return special.ndtr(h) * special.ndtr(k)
    # nudge exact zeros; the CDF is continuous so the limit is recovered
    hs = np.where(np.abs(h) < 1e-15, 1e-15, h)
    ks = np.where(np.abs(k) < 1e-15, 1e-15, k)
    denom = math.sqrt(1.0 - rho * rho)
    t1 = special.owens_t(hs, (ks - rho * hs) / (hs * denom))
    t2 = special.owens_t(ks, (hs - rho * ks) / (ks * denom))
    beta = np.where(hs * ks < 0, 0.5, 0.0)
    phi_h = special.ndtr(h)
    phi_k = special.ndtr(k)
    out = 0.5 * (phi_h + phi_k) - t1 - t2 - beta
    return np.clip(out, np.maximum(phi_h + phi_k - 1.0, 0.0), np.minimum(phi_h, phi_k))


class GaussianCopula(BivariateCopula):
    family = "gaussian"

    def __init__(self, rho: float):
        rho = float(rho)
        if not -RHO_CAP <= rho <= RHO_CAP:
            raise ValueError(f"rho must be in [-{RHO_CAP}, {RHO_CAP}]")
        self.rho = rho

    def _params(self):
        return {"rho": self.rho}

    def _cdf0(self, u, v):
        return _bvn_cdf(special.ndtri(u), special.ndtri(v), self.rho)

    def _pdf0(self, u, v):
        x = special.ndtri(u)
        y = special.ndtri(v)
        r = self.rho
        s = 1.0 - r * r
        return np.exp(-(r * r * (x * x + y * y) - 2.0 * r * x * y) / (2.0 * s)) / math.sqrt(s)

    def _du0(self, u, v):
        x = special.ndtri(u)
        y = special.ndtri(v)
        return special.ndtr((y - self.rho * x) / math.sqrt(1.0 - self.rho**2))

    def _du0_inv(self, u, w):
        r = self.rho
        return special.ndtr(math.sqrt(1.0 - r * r) * special.ndtri(w) + r * special.ndtri(u))

    @staticmethod
    def tau_to_param(tau: float) -> float:
        return float(np.clip(math.sin(math.pi * tau / 2.0), -RHO_CAP, RHO_CAP))


class ClaytonCopula(BivariateCopula):
    family = "clayton"

    def __init__(self, theta: float, rotation: int = 0):
        theta = float(theta)
        if not 0.0 < theta <= THETA_CAP_CLAYTON:
            raise ValueError(f"theta must be in (0, {THETA_CAP_CLAYTON}]")
        self.theta = theta
        self.rotation = _valid_rotation(rotation)

    def _params(self):
        return {"theta": self.theta}

    def _log_s(self, u, v):
        # log(u^-t + v^-t - 1), stable for small u, v
        t = self.theta
        a = -t * np.log(u)
        b = -t * np.log(v)
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        return hi + np.log1p(np.exp(lo - hi) - np.exp(-hi))

    def _cdf0(self, u, v):
        return np.exp(-self._log_s(u, v) / self.theta)

    def _pdf0(self, u, v):
        t = self.theta
        return np.exp(
            math.log1p(t)
            - (t + 1.0) * (np.log(u) + np.log(v))
            - (1.0 / t + 2.0) * self._log_s(u, v)
        )

    def _du0(self, u, v):
        t = self.theta
        return np.exp(-(t + 1.0) * np.log(u) - (1.0 / t + 1.0) * self._log_s(u, v))

    def _du0_inv(self, u, w):
        # v^-t = 1 + u^-t expm1(-t/(1+t) log w), in logs so u^-t cannot overflow
        t = self.theta
        d = -t / (1.0 + t) * np.log(w)
        with np.errstate(divide="ignore", over="ignore"):  # w = 1 gives v = 1
            log_s = np.logaddexp(0.0, -t * np.log(u) + np.log(np.expm1(d)))
        return np.exp(-log_s / t)

    @staticmethod
    def tau_to_param(tau: float) -> float:
        return float(np.clip(2.0 * tau / (1.0 - tau), 1e-10, THETA_CAP_CLAYTON))


class GumbelCopula(BivariateCopula):
    family = "gumbel"

    def __init__(self, theta: float, rotation: int = 0):
        theta = float(theta)
        if not 1.0 <= theta <= THETA_CAP_GUMBEL:
            raise ValueError(f"theta must be in [1, {THETA_CAP_GUMBEL}]")
        self.theta = theta
        self.rotation = _valid_rotation(rotation)

    def _params(self):
        return {"theta": self.theta}

    def _xy_log_s(self, u, v):
        # x = -log u, y = -log v and log(x^t + y^t)
        t = self.theta
        x = -np.log(u)
        y = -np.log(v)
        return x, y, np.logaddexp(t * np.log(x), t * np.log(y))

    def _cdf0(self, u, v):
        _, _, log_s = self._xy_log_s(u, v)
        return np.exp(-np.exp(log_s / self.theta))

    def _pdf0(self, u, v):
        t = self.theta
        x, y, log_s = self._xy_log_s(u, v)
        a = np.exp(log_s / t)
        return (
            np.exp(-a)
            / (u * v)
            * np.exp((t - 1.0) * (np.log(x) + np.log(y)) + (2.0 / t - 2.0) * log_s)
            * (1.0 + (t - 1.0) / a)
        )

    def _du0(self, u, v):
        t = self.theta
        x, _, log_s = self._xy_log_s(u, v)
        a = np.exp(log_s / t)
        return np.exp(-a + (1.0 / t - 1.0) * log_s + (t - 1.0) * np.log(x)) / u

    @staticmethod
    def tau_to_param(tau: float) -> float:
        return float(np.clip(1.0 / (1.0 - tau), 1.0, THETA_CAP_GUMBEL))


def _debye_1(x: float) -> float:
    if x == 0.0:
        return 1.0
    val, _ = integrate.quad(lambda t: t / math.expm1(t) if t > 0 else 1.0, 0.0, x, limit=200)
    return val / x


def _frank_tau(theta: float) -> float:
    if theta == 0.0:
        return 0.0
    return 1.0 - 4.0 / theta * (1.0 - _debye_1(theta))


# the largest |tau| a Frank copula reaches under THETA_CAP_FRANK
_FRANK_TAU_CAP = _frank_tau(THETA_CAP_FRANK)


class FrankCopula(BivariateCopula):
    family = "frank"

    def __init__(self, theta: float):
        theta = float(theta)
        if not 0.0 < abs(theta) <= THETA_CAP_FRANK:
            raise ValueError(f"theta must be nonzero with |theta| <= {THETA_CAP_FRANK}")
        self.theta = theta

    def _params(self):
        return {"theta": self.theta}

    # The textbook denominator expm1(-t) + expm1(-t u) expm1(-t v) cancels
    # wherever both terms are near 1 in size (large |theta|, away from the
    # corner (0, 0)).  It equals e^(-t u) expm1(-t v) + e^(-t v) expm1(-t (1-v)),
    # a sum of two terms of one sign, which every primitive below uses.

    def _denom(self, u, v):
        t = self.theta
        return np.exp(-t * u) * np.expm1(-t * v) + np.exp(-t * v) * np.expm1(-t * (1.0 - v))

    def _cdf0(self, u, v):
        # C = -log1p(q) / t, with 1 + q = denom / expm1(-t) taken directly near q = -1
        t = self.theta
        q = np.expm1(-t * u) * np.expm1(-t * v) / math.expm1(-t)
        return -np.where(q > -0.5, np.log1p(q), np.log(self._denom(u, v) / math.expm1(-t))) / t

    def _pdf0(self, u, v):
        t = self.theta
        d = self._denom(u, v)
        return -t * math.expm1(-t) * np.exp(-t * (u + v)) / (d * d)

    def _du0(self, u, v):
        t = self.theta
        return np.exp(-t * u) * np.expm1(-t * v) / self._denom(u, v)

    def _du0_inv(self, u, w):
        # e^(-t v) - 1 = r, with 1 + r = z taken directly near r = -1
        t = self.theta
        a = np.exp(-t * u)
        den = w + (1.0 - w) * a
        r = w * math.expm1(-t) / den
        z = (w * math.exp(-t) + (1.0 - w) * a) / den
        return -np.where(r > -0.5, np.log1p(r), np.log(z)) / t

    @staticmethod
    def tau_to_param(tau: float) -> float:
        sign = 1.0 if tau >= 0 else -1.0
        t = abs(tau)
        if t >= _FRANK_TAU_CAP:
            return sign * THETA_CAP_FRANK
        theta = optimize.brentq(lambda th: _frank_tau(th) - t, 1e-8, THETA_CAP_FRANK)
        return sign * theta


def _sinkhorn(weights: np.ndarray) -> np.ndarray:
    """Scale a nonnegative matrix until every row and column sums to 1/m."""
    w = weights / weights.sum()
    m = w.shape[0]
    target = 1.0 / m
    for _ in range(SINKHORN_ROUNDS):
        w = w * (target / w.sum(axis=1, keepdims=True))
        w = w * (target / w.sum(axis=0, keepdims=True))
        err = max(
            np.abs(w.sum(axis=1) - target).max(),
            np.abs(w.sum(axis=0) - target).max(),
        )
        if err < SINKHORN_TOL:
            break
    return w / w.sum()


class CheckerboardCopula(BivariateCopula):
    """Piecewise-uniform copula on an m x m grid of cell masses.

    The mass grid is doubly stochastic (rows and columns each sum to 1/m),
    which makes the margins exactly uniform.  CDF, partial derivatives and
    density are closed-form in the cell cumulative sums.
    """

    family = "checkerboard"

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not math.isclose(w.sum(), 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError("weights must sum to one")
        m = w.shape[0]
        target = 1.0 / m
        if (
            np.abs(w.sum(axis=1) - target).max() > 1e-6
            or np.abs(w.sum(axis=0) - target).max() > 1e-6
        ):
            raise ValueError("weights must be doubly stochastic (row/col sums 1/m)")
        self.weights = w
        self.m = m
        self._cum2 = np.zeros((m + 1, m + 1))
        self._cum2[1:, 1:] = w.cumsum(axis=0).cumsum(axis=1)
        self._rowcum = np.zeros((m, m + 1))
        self._rowcum[:, 1:] = w.cumsum(axis=1)
        self._colcum = np.zeros((m + 1, m))
        self._colcum[1:, :] = w.cumsum(axis=0)

    def _params(self):
        return {"weights": encode_f8(self.weights)}

    @classmethod
    def _from_params(cls, weights) -> "CheckerboardCopula":
        w = decode_f8(weights)
        m = math.isqrt(w.size)
        if m * m != w.size:
            raise ValueError(f"checkerboard weights hold {w.size} values, not a square number")
        return cls(w.reshape(m, m))

    def __repr__(self):
        return f"CheckerboardCopula(m={self.m})"

    def _cells(self, u):
        k = np.minimum((u * self.m).astype(int), self.m - 1)
        return k, u * self.m - k

    def _cdf0(self, u, v):
        k, alpha = self._cells(u)
        l, beta = self._cells(v)
        return (
            self._cum2[k, l]
            + alpha * self._rowcum[k, l]
            + beta * self._colcum[k, l]
            + alpha * beta * self.weights[k, l]
        )

    def _pdf0(self, u, v):
        k, _ = self._cells(u)
        l, _ = self._cells(v)
        return self.m * self.m * self.weights[k, l]

    def _du0(self, u, v):
        k, _ = self._cells(u)
        l, beta = self._cells(v)
        return self.m * (self._rowcum[k, l] + beta * self.weights[k, l])

    def _dv0(self, u, v):
        k, alpha = self._cells(u)
        l, _ = self._cells(v)
        return self.m * (self._colcum[k, l] + alpha * self.weights[k, l])

    def _du0_inv(self, u, w):
        k, _ = self._cells(u)
        return self._invert_knots(self.m * self._rowcum[k], w)

    def _dv0_inv(self, v, w):
        l, _ = self._cells(v)
        return self._invert_knots(self.m * self._colcum[:, l].T, w)

    @staticmethod
    def _invert_knots(knots, w):
        """The least t with h(t) = w, h linear between h(j/m) = knots[:, j].

        Row by row, the count of knots below w is ``searchsorted(side="left")``,
        so a level on a flat (zero-mass) stretch gives the stretch's left end.
        """
        m = knots.shape[1] - 1
        j = np.clip(np.sum(knots < w[:, None], axis=1) - 1, 0, m - 1)
        rows = np.arange(w.size)
        left = knots[rows, j]
        with np.errstate(divide="ignore"):  # an empty last cell, when w rounds past 1
            frac = np.clip((w - left) / (knots[rows, j + 1] - left), 0.0, 1.0)
        return (j + frac) / m

    @classmethod
    def fit(cls, x, y, resolution: int = CHECKERBOARD_RESOLUTION) -> "CheckerboardCopula":
        hist, _, _ = np.histogram2d(x, y, bins=resolution, range=[[0.0, 1.0], [0.0, 1.0]])
        w = _sinkhorn(hist + CHECKERBOARD_PSEUDO_COUNT)
        # normalized once more here, not in __init__, so that a model reloaded
        # from its saved weights keeps them bit for bit
        return cls(w / w.sum())


_FAMILY_CLASSES = {
    "independence": IndependenceCopula,
    "gaussian": GaussianCopula,
    "clayton": ClaytonCopula,
    "gumbel": GumbelCopula,
    "frank": FrankCopula,
    "checkerboard": CheckerboardCopula,
}


def copula_from_dict(d: dict) -> BivariateCopula:
    """Rebuild a copula from ``to_dict`` output; rotation 0 may be left out."""
    params = dict(d)
    fam = params.pop("family")
    if fam not in _FAMILY_CLASSES:
        raise ValueError(f"unknown copula family {fam!r}")
    rotation = _valid_rotation(params.pop("rotation", 0))
    if rotation:  # unrotatable families take no rotation
        params["rotation"] = rotation
    return _FAMILY_CLASSES[fam]._from_params(**params)


# -- generalized density and h-functions -------------------------------------


def _check_jumps(gap: np.ndarray, where: np.ndarray) -> None:
    bad = where & (gap <= MIN_DISCRETE_MASS)
    if np.any(bad):
        raise DomainError(
            f"discrete coordinate with probability mass <= {MIN_DISCRETE_MASS:g}; "
            "too small to difference reliably"
        )


def _jump_diff(f, t, cu, cl) -> np.ndarray:
    """f(t, cu) - f(t, cl) over a conditioner's jump [cl, cu], for ``_oriented``'s
    cdf or slope: both are exactly 0 at a zero conditioner, so f is evaluated at
    cl only where cl > 0."""
    out = f(t, cu)
    pos = cl > 0.0
    if np.any(pos):
        out[pos] -= f(t[pos], cl[pos])
    return out


def _oriented(copula: BivariateCopula, direction: int) -> tuple:
    """The copula seen from its target coordinate ``direction`` (1 or 2).

    Returns (cdf, h, slope, h_inverse), each called as f(target, conditioner):
    the copula CDF, its derivative in the conditioner (the h-function of a
    continuous conditioner), its derivative in the target, and the inverse of
    h in the target, called as h_inverse(level, conditioner).
    """
    def swap(f):
        return lambda x, c: f(c, x)

    if direction == 1:
        return copula.cdf, copula.dv, copula.du, swap(copula.dv_inverse)
    if direction == 2:
        return swap(copula.cdf), swap(copula.du), swap(copula.dv), swap(copula.du_inverse)
    raise ValueError("direction must be 1 or 2")


def hfunc(copula: BivariateCopula, direction: int, target_u, conditioner: PseudoObs) -> np.ndarray:
    """Conditional CDF of the target coordinate given the conditioner.

    ``direction`` names the target coordinate: 1 computes the conditional of
    the first coordinate given the second, 2 the reverse.  A discrete
    conditioner uses the difference quotient of the copula CDF over its jump;
    a continuous one uses the corresponding partial derivative.
    """
    cdf, h, _, _ = _oriented(copula, direction)
    t = np.clip(as_float_array(target_u), 0.0, 1.0)
    cu, cl = conditioner.u, conditioner.u_left
    t, cu, cl = np.broadcast_arrays(t, cu, cl)
    gap = cu - cl
    disc = gap > 0.0
    _check_jumps(gap, disc)
    out = np.empty_like(t)
    cont = ~disc
    if np.any(cont):
        out[cont] = h(t[cont], cu[cont])
    if np.any(disc):
        out[disc] = _jump_diff(cdf, t[disc], cu[disc], cl[disc]) / gap[disc]
    out = np.where(t <= 0.0, 0.0, out)
    out = np.where(t >= 1.0, 1.0, out)
    return np.clip(out, 0.0, 1.0)


def _h_jump(copula: BivariateCopula, direction: int, target: PseudoObs,
            conditioner: PseudoObs) -> PseudoObs:
    """h of the target given the conditioner, at both ends of the target's jump.

    h at u on every row and at u_left where the target is discrete; a
    conditional CDF cannot decrease across the jump, so the left value is kept
    at or below the right one.
    """
    out_u = hfunc(copula, direction, target.u, conditioner)
    out_ul = out_u
    disc = target.discrete
    if np.any(disc):
        out_ul = np.where(disc, 0.0, out_u)
        inner = disc & (target.u_left > 0.0)
        if np.any(inner):
            out_ul[inner] = hfunc(copula, direction, target.u_left[inner], conditioner[inner])
        out_ul = np.minimum(out_ul, out_u)
    return PseudoObs(out_u, out_ul)


def gen_density(copula: BivariateCopula, a: PseudoObs, b: PseudoObs, h_jumps=None) -> np.ndarray:
    """Generalized copula density of two coordinates, either of them discrete.

    The copula density where both are continuous.  Otherwise the jump of
    h(a | b) over a's jump, divided by that jump, where a is discrete (with b
    discrete too, the rectangle probability over both jumps divided by both);
    where only b is discrete, the jump of h(b | a) over b's jump, divided by it.
    ``h_jumps`` may pass (h(a | b), h(b | a)) on every row, as ``_h_jump``
    gives them, when the caller already holds them (the vine's edge store).
    """
    au, al, bu, bl = np.broadcast_arrays(a.u, a.u_left, b.u, b.u_left)
    a, b = PseudoObs(au, al), PseudoObs(bu, bl)
    da, db = a.discrete, b.discrete
    _check_jumps(au - al, da)
    _check_jumps(bu - bl, db)
    out = np.empty_like(a.u)
    cc = ~da & ~db
    if np.any(cc):
        out[cc] = copula.pdf(au[cc], bu[cc])
    for direction, target, conditioner, rows in ((1, a, b, da), (2, b, a, ~da & db)):
        if np.any(rows):
            h = (_h_jump(copula, direction, target[rows], conditioner[rows]) if h_jumps is None
                 else h_jumps[direction - 1][rows])
            out[rows] = (h.u - h.u_left) / (target.u[rows] - target.u_left[rows])
    return out


def _discrete_inverse(copula: BivariateCopula, direction: int, w, cu, cl) -> np.ndarray:
    """The target in [0, 1] at which the difference quotient of the copula CDF
    over the conditioner's jump [cl, cu] equals w.

    Safeguarded Newton from the inverse at the jump's midpoint: the slope is
    the difference of the CDF's derivative in the target across the jump,
    over the jump.
    """
    cdf, _, slope, h_inverse = _oriented(copula, direction)

    def h_and_slope(t, cu, cl):
        gap = cu - cl
        return _jump_diff(cdf, t, cu, cl) / gap, _jump_diff(slope, t, cu, cl) / gap

    return _safeguarded_newton(h_and_slope, w, h_inverse(w, 0.5 * (cu + cl)), 0.0, 1.0, cu, cl)


def hfunc_inverse(copula: BivariateCopula, direction: int, v,
                  conditioner: PseudoObs) -> np.ndarray:
    """Invert ``hfunc`` in the (continuous) target coordinate.

    Rows with a continuous conditioner are solved in the family's unrotated
    frame (``dv_inverse`` for direction 1, ``du_inverse`` for direction 2):
    in closed form for independence, Gaussian, Clayton, Frank and the
    checkerboard, by safeguarded Newton on the density for Gumbel.  Rows with
    a discrete conditioner are solved by safeguarded Newton inside [0, 1].
    Levels 0 and 1 map to 0 and 1.  A residual above 1e-4 at an interior
    level raises ``NumericsError``.
    """
    *_, h_inverse = _oriented(copula, direction)
    v = np.clip(as_float_array(v), 0.0, 1.0)
    v, cu, cl = np.broadcast_arrays(v, conditioner.u, conditioner.u_left)
    gap = cu - cl
    disc = gap > 0.0
    _check_jumps(gap, disc)
    out = v.copy()
    inner = (v > 0.0) & (v < 1.0)
    cont = inner & ~disc
    if np.any(cont):
        out[cont] = h_inverse(v[cont], cu[cont])
    disc &= inner
    if np.any(disc):
        out[disc] = _discrete_inverse(copula, direction, v[disc], cu[disc], cl[disc])
    resid = np.abs(hfunc(copula, direction, out, PseudoObs(cu, cl)) - v)
    interior = (v > 1e-9) & (v < 1.0 - 1e-9)
    if np.any(resid[interior] > 1e-4):
        raise NumericsError(
            f"h-function inversion did not converge (family={copula.family}, "
            f"max residual {resid[interior].max():.3g}); h may not be monotone"
        )
    return out


# -- dependence measures and fitting ------------------------------------------


# SciPy's tau itself, past its `_axis_nan_policy` decorator (signature
# binding, NaN scans, array-namespace checks); on a release that does not
# decorate kendalltau, unwrap returns it unchanged
_kendalltau = inspect.unwrap(stats.kendalltau)


def kendall_tau(x, y) -> float:
    """Sample Kendall's tau; degenerate (constant) input gives 0 with a warning.

    SciPy's tau-b is called past its argument-handling decorator, a fixed
    cost of about 0.15 ms a call (SciPy 1.17) that exceeds the count itself
    below n of about 1,000.  That decorator also turned NaN input into a NaN
    tau, where the bare count returns a number, so NaN in either input is
    caught here and gives 0 with the "undefined" warning, as it did through
    the decorator.  Every tau keeps the bits of ``scipy.stats.kendalltau``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired observations")
    spread_x, spread_y = np.ptp(x), np.ptp(y)
    if spread_x == 0.0 or spread_y == 0.0:
        warnings.warn("degenerate (constant) input in kendall_tau; returning 0")
        return 0.0
    # a NaN spread: NaN in the input, or an input that is one infinity
    tau = math.nan if math.isnan(spread_x + spread_y) else _kendalltau(x, y).statistic
    if not np.isfinite(tau):
        warnings.warn("kendall tau undefined; returning 0")
        return 0.0
    return float(tau)


def randomize_pseudo(a: PseudoObs, b: PseudoObs, rng: np.random.Generator):
    """One uniform jitter spreading discrete pseudo-observations over their jump.

    The jitter is assigned in lexicographic order of the observation values
    (a.u, a.u_left, b.u, b.u_left) so the result is invariant under
    relabeling of the input rows; only the tied runs of a.u are sorted on the
    other keys.  A pair with no discrete row is returned as it is, with no
    draw; a side with no discrete row has u_left = u, so its u_left is left
    out of the sort keys.
    """
    da, db = a.discrete.any(), b.discrete.any()
    if not (da or db):
        return a.u, b.u
    order = a.order
    ranked = a.u[order]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        order = order.copy()
        tied = np.zeros(len(a), dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        run = np.concatenate(([0], np.cumsum(~same)))[tied]
        rows = order[tied]
        keys = ((b.u_left[rows],) if db else ()) + (b.u[rows],)
        keys += ((a.u_left[rows],) if da else ()) + (run,)
        order[tied] = rows[np.lexsort(keys)]
    w = np.empty((2, len(a)))
    w[:, order] = rng.uniform(size=w.shape)
    return a.randomized(w[0]), b.randomized(w[1])


def tau_independence_test(tau: float, n: int, level: float = 0.05) -> bool:
    """True when the tau z-test rejects independence at the given level."""
    if n < 2:
        return False
    var = 2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0))
    z = abs(tau) / math.sqrt(var)
    return z > special.ndtri(1.0 - level / 2.0)


def _parametric_candidates(tau: float, family_set) -> list:
    cands = []
    if "gaussian" in family_set:
        rho = GaussianCopula.tau_to_param(tau)
        if abs(rho) > 0:
            cands.append(GaussianCopula(rho))
    one_sided = ((0, 180) if tau >= 0 else (90, 270))
    if "clayton" in family_set and abs(tau) > 1e-6:
        theta = ClaytonCopula.tau_to_param(abs(tau))
        if theta >= 1e-6:
            cands.extend(ClaytonCopula(theta, rotation=r) for r in one_sided)
    if "gumbel" in family_set and abs(tau) > 1e-6:
        theta = GumbelCopula.tau_to_param(abs(tau))
        if theta > 1.0 + 1e-9:
            cands.extend(GumbelCopula(theta, rotation=r) for r in one_sided)
    if "frank" in family_set and abs(tau) > 1e-6:
        theta = FrankCopula.tau_to_param(tau)
        if theta != 0.0:
            cands.append(FrankCopula(theta))
    return cands


def check_family_set(family_set) -> tuple:
    """The family set as a tuple; a bare string or an unknown family raises ValueError."""
    if isinstance(family_set, str) or not set(family_set) <= set(_FAMILY_CLASSES):
        raise ValueError(f"family_set must list families among {list(_FAMILY_CLASSES)}")
    return tuple(family_set)


def jitter_pair(a: PseudoObs, b: PseudoObs, seed: int):
    """The one jitter of a pair: the jittered sample (x, y) and its Kendall's tau."""
    if len(a) != len(b):
        raise EstimationError(f"paired pseudo-observations differ in length: {len(a)} and {len(b)}")
    x, y = randomize_pseudo(a, b, np.random.default_rng(seed))
    return x, y, kendall_tau(x, y)


def fit_jittered(x, y, tau: float, family_set) -> BivariateCopula:
    """Select and fit a pair copula from a jittered sample and its tau.

    Parametric families are fitted by tau inversion; the checkerboard mass
    grid comes from a histogram of the jittered sample.  Independence is kept
    whenever the tau significance test fails to reject at the 5% level;
    otherwise the highest log-likelihood among admissible candidates wins.
    ``family_set`` is taken as checked (``check_family_set``).
    """
    n = len(x)
    if n < MIN_SAMPLE:
        raise EstimationError(f"need at least {MIN_SAMPLE} paired pseudo-observations")
    if "independence" in family_set and not tau_independence_test(tau, n):
        return IndependenceCopula()
    candidates = _parametric_candidates(tau, family_set)
    if "checkerboard" in family_set:
        candidates.append(CheckerboardCopula.fit(x, y))
    if not candidates:
        return IndependenceCopula()
    scores = [c.loglik(x, y) for c in candidates]
    return candidates[int(np.argmax(scores))]


def fit_pair(a: PseudoObs, b: PseudoObs, family_set=DEFAULT_FAMILY_SET,
             seed: int = 0) -> BivariateCopula:
    """Jitter a pair of pseudo-observations once, then select and fit its copula."""
    family_set = check_family_set(family_set)
    return fit_jittered(*jitter_pair(a, b, seed), family_set)
