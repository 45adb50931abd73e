"""Bivariate copulas for mixed discrete-continuous margins.

Every family exposes the copula CDF, both partial derivatives and the
density.  On top of those primitives the module provides the generalized
density (four branches by discreteness pattern), the conditional
distributions ``hfunc`` (difference quotient for a discrete conditioner,
partial derivative otherwise), their numerical inverses, and fitting from
pseudo-observations that carry left limits.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special, stats

from ._util import as_float_array
from .errors import DomainError, EstimationError, NumericsError

UNIT_EPS = 1e-12
MIN_DISCRETE_MASS = 1e-12
MIN_SAMPLE = 30
RHO_CAP = 0.999
THETA_CAP_CLAYTON = 50.0
THETA_CAP_GUMBEL = 50.0
THETA_CAP_FRANK = 35.0
CHECKERBOARD_RESOLUTION = 32
CHECKERBOARD_PSEUDO_COUNT = 0.5

DEFAULT_FAMILY_SET = ("independence", "gaussian", "clayton", "gumbel", "frank", "checkerboard")


class PseudoObs:
    """A batch of pseudo-observations u = F(x) with left limits u_left = F_left(x).

    A coordinate is discrete exactly where u_left < u; the jump u - u_left
    equals the (conditional) probability mass at the observed value.
    """

    __slots__ = ("u", "u_left")

    def __init__(self, u, u_left=None):
        u = as_float_array(u)
        if u_left is None:
            u_left = u.copy()
        else:
            u_left = as_float_array(u_left)
        u, u_left = np.broadcast_arrays(u, u_left)
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        u_left = np.clip(np.asarray(u_left, dtype=float), 0.0, 1.0)
        if np.any(u_left > u + 1e-9):
            raise DomainError("u_left must not exceed u")
        self.u = u
        self.u_left = np.minimum(u_left, u)

    @property
    def discrete(self) -> np.ndarray:
        return self.u - self.u_left > 0.0

    def __len__(self) -> int:
        return self.u.size

    def __getitem__(self, idx) -> "PseudoObs":
        return PseudoObs(self.u[idx], self.u_left[idx])


# -- family primitives -------------------------------------------------------


# rotation in degrees -> (flip u, flip v)
_FLIPS = {0: (False, False), 90: (True, False), 180: (True, True), 270: (False, True)}


def _valid_rotation(rotation: int) -> int:
    if rotation not in _FLIPS:
        raise ValueError("rotation must be 0, 90, 180 or 270")
    return rotation


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

    def loglik(self, u, v) -> float:
        return float(np.log(np.maximum(self.pdf(u, v), 1e-300)).sum())

    def to_dict(self) -> dict:
        return {"family": self.family, "rotation": self.rotation, **self._params()}


class IndependenceCopula(BivariateCopula):
    family = "independence"

    def _cdf0(self, u, v):
        return u * v

    def _pdf0(self, u, v):
        return np.ones_like(u)

    def _du0(self, u, v):
        return np.asarray(v, dtype=float)


def _bvn_cdf(h, k, rho: float):
    """Standard bivariate normal CDF via Owen's T function."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if rho == 0.0:
        return stats.norm.cdf(h) * stats.norm.cdf(k)
    if rho >= 1.0 - 1e-12:
        return stats.norm.cdf(np.minimum(h, k))
    if rho <= -1.0 + 1e-12:
        return np.maximum(stats.norm.cdf(h) + stats.norm.cdf(k) - 1.0, 0.0)
    # nudge exact zeros; the CDF is continuous so the limit is recovered
    hs = np.where(np.abs(h) < 1e-15, 1e-15, h)
    ks = np.where(np.abs(k) < 1e-15, 1e-15, k)
    denom = math.sqrt(1.0 - rho * rho)
    t1 = special.owens_t(hs, (ks - rho * hs) / (hs * denom))
    t2 = special.owens_t(ks, (hs - rho * ks) / (ks * denom))
    beta = np.where(hs * ks < 0, 0.5, 0.0)
    phi_h = stats.norm.cdf(h)
    phi_k = stats.norm.cdf(k)
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
        return _bvn_cdf(stats.norm.ppf(u), stats.norm.ppf(v), self.rho)

    def _pdf0(self, u, v):
        x = stats.norm.ppf(u)
        y = stats.norm.ppf(v)
        r = self.rho
        s = 1.0 - r * r
        return np.exp(-(r * r * (x * x + y * y) - 2.0 * r * x * y) / (2.0 * s)) / math.sqrt(s)

    def _du0(self, u, v):
        x = stats.norm.ppf(u)
        y = stats.norm.ppf(v)
        return stats.norm.cdf((y - self.rho * x) / math.sqrt(1.0 - self.rho**2))

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

    def _cdf0(self, u, v):
        t = self.theta
        x = -np.log(u)
        y = -np.log(v)
        log_s = np.logaddexp(t * np.log(x), t * np.log(y))
        return np.exp(-np.exp(log_s / t))

    def _pdf0(self, u, v):
        t = self.theta
        x = -np.log(u)
        y = -np.log(v)
        log_s = np.logaddexp(t * np.log(x), t * np.log(y))
        a = np.exp(log_s / t)
        return (
            np.exp(-a)
            / (u * v)
            * np.exp((t - 1.0) * (np.log(x) + np.log(y)) + (2.0 / t - 2.0) * log_s)
            * (1.0 + (t - 1.0) / a)
        )

    def _du0(self, u, v):
        t = self.theta
        x = -np.log(u)
        y = -np.log(v)
        log_s = np.logaddexp(t * np.log(x), t * np.log(y))
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


class FrankCopula(BivariateCopula):
    family = "frank"

    def __init__(self, theta: float):
        theta = float(theta)
        if theta == 0.0 or abs(theta) > THETA_CAP_FRANK:
            raise ValueError(f"theta must be nonzero with |theta| <= {THETA_CAP_FRANK}")
        self.theta = theta

    def _params(self):
        return {"theta": self.theta}

    # The closed forms cancel near (1, 1) at large |theta|.  Frank is radially
    # symmetric, so each is evaluated at a point on the side u + v <= 1:
    # C(u, v) = u + v - 1 + C(1-u, 1-v), c(u, v) = c(1-u, 1-v) and
    # h(v|u) = 1 - h(1-v|1-u).

    @staticmethod
    def _radial(u, v):
        """Whether u + v > 1, and the point mirrored through (1/2, 1/2) if so."""
        flip = u + v > 1.0
        return flip, np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)

    def _cdf0(self, u, v):
        t = self.theta
        flip, x, y = self._radial(u, v)
        c = -np.log1p(np.expm1(-t * x) * np.expm1(-t * y) / math.expm1(-t)) / t
        return np.where(flip, u + v - 1.0 + c, c)

    def _pdf0(self, u, v):
        t = self.theta
        _, x, y = self._radial(u, v)
        d = math.expm1(-t) + np.expm1(-t * x) * np.expm1(-t * y)
        return -t * math.expm1(-t) * np.exp(-t * (x + y)) / (d * d)

    def _du0(self, u, v):
        t = self.theta
        flip, x, y = self._radial(u, v)
        h = np.exp(-t * x) * np.expm1(-t * y) / (math.expm1(-t) + np.expm1(-t * x) * np.expm1(-t * y))
        return np.where(flip, 1.0 - h, h)

    @staticmethod
    def tau_to_param(tau: float) -> float:
        sign = 1.0 if tau >= 0 else -1.0
        t = abs(tau)
        if t >= _frank_tau(THETA_CAP_FRANK):
            return sign * THETA_CAP_FRANK
        theta = optimize.brentq(lambda th: _frank_tau(th) - t, 1e-8, THETA_CAP_FRANK)
        return sign * theta


def _sinkhorn(weights: np.ndarray, rounds: int = 100, tol: float = 1e-9) -> np.ndarray:
    """Scale a nonnegative matrix until every row and column sums to 1/m."""
    w = weights / weights.sum()
    m = w.shape[0]
    target = 1.0 / m
    for _ in range(rounds):
        w = w * (target / w.sum(axis=1, keepdims=True))
        w = w * (target / w.sum(axis=0, keepdims=True))
        err = max(
            np.abs(w.sum(axis=1) - target).max(),
            np.abs(w.sum(axis=0) - target).max(),
        )
        if err < tol:
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
        return {"weights": self.weights.tolist()}

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
    if not params.get("rotation"):
        params.pop("rotation", None)  # unrotatable families take no rotation
    return _FAMILY_CLASSES[fam](**params)


# -- generalized density and h-functions -------------------------------------


def _check_jumps(gap: np.ndarray, where: np.ndarray) -> None:
    bad = where & (gap <= MIN_DISCRETE_MASS)
    if np.any(bad):
        raise DomainError(
            f"discrete coordinate with probability mass <= {MIN_DISCRETE_MASS:g}; "
            "too small to difference reliably"
        )


def gen_density(copula: BivariateCopula, a: PseudoObs, b: PseudoObs) -> np.ndarray:
    """Generalized copula density: one of four branches per observation.

    Both coordinates discrete: rectangle probability divided by both jumps.
    One discrete: differenced partial derivative divided by that jump.
    Both continuous: the ordinary copula density.
    """
    au, al = np.broadcast_arrays(a.u, a.u_left)
    bu, bl = np.broadcast_arrays(b.u, b.u_left)
    au, al, bu, bl = np.broadcast_arrays(au, al, bu, bl)
    ga = au - al
    gb = bu - bl
    da = ga > 0.0
    db = gb > 0.0
    _check_jumps(ga, da)
    _check_jumps(gb, db)
    out = np.empty_like(au)
    cc = ~da & ~db
    if np.any(cc):
        out[cc] = copula.pdf(au[cc], bu[cc])
    dd = da & db
    if np.any(dd):
        rect = (
            copula.cdf(au[dd], bu[dd])
            - copula.cdf(au[dd], bl[dd])
            - copula.cdf(al[dd], bu[dd])
            + copula.cdf(al[dd], bl[dd])
        )
        out[dd] = rect / (ga[dd] * gb[dd])
    dc = da & ~db
    if np.any(dc):
        out[dc] = (copula.dv(au[dc], bu[dc]) - copula.dv(al[dc], bu[dc])) / ga[dc]
    cd = ~da & db
    if np.any(cd):
        out[cd] = (copula.du(au[cd], bu[cd]) - copula.du(au[cd], bl[cd])) / gb[cd]
    return np.maximum(out, 0.0)


def hfunc(copula: BivariateCopula, direction: int, target_u, conditioner: PseudoObs) -> np.ndarray:
    """Conditional CDF of the target coordinate given the conditioner.

    ``direction`` names the target coordinate: 1 computes the conditional of
    the first coordinate given the second, 2 the reverse.  A discrete
    conditioner uses the difference quotient of the copula CDF over its jump;
    a continuous one uses the corresponding partial derivative.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    t = np.clip(as_float_array(target_u), 0.0, 1.0)
    cu, cl = conditioner.u, conditioner.u_left
    t, cu, cl = np.broadcast_arrays(t, cu, cl)
    gap = cu - cl
    disc = gap > 0.0
    _check_jumps(gap, disc)
    out = np.empty_like(t)
    cont = ~disc
    if np.any(cont):
        if direction == 1:
            out[cont] = copula.dv(t[cont], cu[cont])
        else:
            out[cont] = copula.du(cu[cont], t[cont])
    if np.any(disc):
        if direction == 1:
            num = copula.cdf(t[disc], cu[disc]) - copula.cdf(t[disc], cl[disc])
        else:
            num = copula.cdf(cu[disc], t[disc]) - copula.cdf(cl[disc], t[disc])
        out[disc] = num / gap[disc]
    out = np.where(t <= 0.0, 0.0, out)
    out = np.where(t >= 1.0, 1.0, out)
    return np.clip(out, 0.0, 1.0)


def hfunc_inverse(copula: BivariateCopula, direction: int, v,
                  conditioner: PseudoObs) -> np.ndarray:
    """Invert ``hfunc`` in the (continuous) target coordinate by bisection to 1e-10."""
    v = np.clip(as_float_array(v), 0.0, 1.0)
    if isinstance(copula, IndependenceCopula):
        return v.copy()
    v_b, cu, cl = np.broadcast_arrays(v, conditioner.u, conditioner.u_left)
    cond = PseudoObs(cu, cl)
    lo = np.zeros_like(v_b)
    hi = np.ones_like(v_b)
    for _ in range(34):  # halves the bracket to 2**-34, below 1e-10
        mid = 0.5 * (lo + hi)
        h = hfunc(copula, direction, mid, cond)
        go_up = h < v_b
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    out = 0.5 * (lo + hi)
    resid = np.abs(hfunc(copula, direction, out, cond) - v_b)
    interior = (v_b > 1e-9) & (v_b < 1.0 - 1e-9)
    if np.any(resid[interior] > 1e-4):
        raise NumericsError(
            f"h-function inversion did not converge (family={copula.family}, "
            f"max residual {resid[interior].max():.3g}); h may not be monotone"
        )
    out = np.where(v_b <= 0.0, 0.0, out)
    out = np.where(v_b >= 1.0, 1.0, out)
    return out


# -- dependence measures and fitting ------------------------------------------


def kendall_tau(x, y) -> float:
    """Sample Kendall's tau; degenerate (constant) input gives 0 with a warning."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two paired observations")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        warnings.warn("degenerate (constant) input in kendall_tau; returning 0")
        return 0.0
    tau = stats.kendalltau(x, y).statistic
    if not np.isfinite(tau):
        warnings.warn("kendall tau undefined; returning 0")
        return 0.0
    return float(tau)


def randomize_pseudo(a: PseudoObs, b: PseudoObs, rng: np.random.Generator):
    """One uniform jitter spreading discrete pseudo-observations over their jump.

    The jitter is assigned in lexicographic order of the observation values so
    the result is invariant under relabeling of the input rows.
    """
    n = len(a)
    order = np.lexsort((b.u_left, b.u, a.u_left, a.u))
    w = rng.uniform(size=(2, n))
    x = np.empty(n)
    y = np.empty(n)
    x[order] = a.u_left[order] + w[0] * (a.u[order] - a.u_left[order])
    y[order] = b.u_left[order] + w[1] * (b.u[order] - b.u_left[order])
    return x, y


def tau_independence_test(tau: float, n: int, level: float = 0.05) -> bool:
    """True when the tau z-test rejects independence at the given level."""
    if n < 2:
        return False
    var = 2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0))
    z = abs(tau) / math.sqrt(var)
    return z > stats.norm.ppf(1.0 - level / 2.0)


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


def fit_pair(a: PseudoObs, b: PseudoObs, family_set=DEFAULT_FAMILY_SET,
             seed: int = 0) -> BivariateCopula:
    """Select and fit a pair copula from jitter-resolved pseudo-observations.

    Parametric families are fitted by tau inversion; the checkerboard mass
    grid comes from a histogram of the jittered sample.  Independence is kept
    whenever the tau significance test fails to reject at the 5% level;
    otherwise the highest log-likelihood among admissible candidates wins.
    """
    n = len(a)
    if n < MIN_SAMPLE or len(b) != n:
        raise EstimationError(f"need at least {MIN_SAMPLE} paired pseudo-observations")
    family_set = tuple(family_set)
    unknown = set(family_set) - set(_FAMILY_CLASSES)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    x, y = randomize_pseudo(a, b, rng)
    tau = kendall_tau(x, y)
    if "independence" in family_set and not tau_independence_test(tau, n):
        return IndependenceCopula()
    candidates = _parametric_candidates(tau, family_set)
    if "checkerboard" in family_set:
        candidates.append(CheckerboardCopula.fit(x, y))
    if not candidates:
        return IndependenceCopula()
    scores = [c.loglik(x, y) for c in candidates]
    return candidates[int(np.argmax(scores))]
