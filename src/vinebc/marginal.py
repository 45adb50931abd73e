"""Univariate discrete-continuous mixture margins and their pseudo-observations.

A margin is a finite set of atoms ``(value, mass)`` plus an absolutely
continuous component, one ``GridDensity``: a piecewise-linear density on a
knot grid with exponential tails, in x or, for bounded supports
(nonnegative and zero-inflated variables), in log(x).  The distribution
function, its left limits, the generalized quantile and the mixed density
(with respect to the sum of Dirac measures at the atoms and Lebesgue measure
elsewhere) are all in closed form and exact inverses of each other.  The
zero-inflated kind treats an exact zero as the only candidate atom.

``pseudo_obs`` returns a ``PseudoObs``, the pair (F, F_left) that carries a
coordinate through the vine.  A coordinate is discrete where F_left < F, and
every read of its jump [F_left, F] goes through that type: ``randomized`` is
the one randomized probability integral transform F_left + W (F - F_left),
and the copula layer reads the jump through h-functions at both of its ends.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from ._util import RECORD_VERSION, as_float_array, check_record_version, decode_f8, encode_f8, maybe_scalar
from .errors import DomainError, EstimationError

GRID_SIZE = 512
ATOM_THRESHOLD = 0.01
MIN_SAMPLE = 30
_MASS_TOL = 1e-9

SUPPORT_KINDS = ("interval", "nonnegative", "zero_inflated")
# the bounded supports, whose continuous part is a grid in log(x)
LOG_SCALE_KINDS = ("nonnegative", "zero_inflated")


def normalize_kind(kind: str) -> str:
    """The kind itself when it is one of ``SUPPORT_KINDS``; otherwise ValueError."""
    if kind not in SUPPORT_KINDS:
        raise ValueError(f"unknown support kind {kind!r}; expected one of {SUPPORT_KINDS}")
    return kind


class PseudoObs:
    """A batch of pseudo-observations u = F(x) with left limits u_left = F_left(x).

    A coordinate is discrete exactly where u_left < u; the jump u - u_left
    equals the (conditional) probability mass at the observed value.  Both
    arrays are read-only, so the sort order of u, computed on its first read
    (``order``), cannot go stale.
    """

    __slots__ = ("u", "u_left", "_order")

    def __init__(self, u, u_left=None):
        u = as_float_array(u)
        u_left = u if u_left is None else as_float_array(u_left)
        # np.clip copies, so no array is shared with the caller or between the two
        u, u_left = (np.clip(a, 0.0, 1.0) for a in np.broadcast_arrays(u, u_left))
        if np.any(u_left > u + 1e-9):
            raise DomainError("u_left must not exceed u")
        self.u = u
        self.u_left = np.minimum(u_left, u)
        u.flags.writeable = self.u_left.flags.writeable = False
        self._order = None

    @property
    def discrete(self) -> np.ndarray:
        return self.u - self.u_left > 0.0

    @property
    def order(self) -> np.ndarray:
        """The stable argsort of u, read-only; computed once, on first read."""
        if self._order is None:
            self._order = np.argsort(self.u, kind="stable")
            self._order.flags.writeable = False
        return self._order

    def __len__(self) -> int:
        return self.u.size

    def __getitem__(self, idx) -> "PseudoObs":
        return PseudoObs(self.u[idx], self.u_left[idx])

    def randomized(self, w) -> np.ndarray:
        """Randomized PIT u_left + w*(u - u_left) for noise w in [0, 1].

        Continuous coordinates return u exactly.  The cap at u keeps the value
        inside [u_left, u] where the sum rounds one ulp above u (w near 1).
        """
        return np.minimum(self.u_left + w * (self.u - self.u_left), self.u)


def _zero_or_nan(x: np.ndarray) -> np.ndarray:
    """0 at every number and NaN at NaN: a part of a margin where it has no mass."""
    return np.where(np.isnan(x), np.nan, 0.0)


class GridDensity:
    """Piecewise-linear density on a strictly increasing knot grid of z.

    Beyond the grid the density decays exponentially with the given tail
    scales, so quantiles exist for every level in (0, 1).  On construction
    the density is rescaled so grid mass plus both tail masses equal one.
    The variable is x = z, or x = exp(z) when ``log_scale`` is set (bounded
    supports); ``cdf``, ``pdf`` and ``quantile`` all take or return x.
    """

    def __init__(self, knots, pdf_values, tail_scale_lo, tail_scale_hi, log_scale=False):
        knots = np.asarray(knots, dtype=float)
        pdf = np.asarray(pdf_values, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != pdf.shape:
            raise ValueError("knots and pdf_values must be 1-d arrays of equal length >= 2")
        if np.any(~np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be finite and strictly increasing")
        if np.any(pdf < 0) or np.any(~np.isfinite(pdf)):
            raise ValueError("pdf_values must be finite and nonnegative")
        s_lo = float(tail_scale_lo)
        s_hi = float(tail_scale_hi)
        if not (0 < s_lo < math.inf and 0 < s_hi < math.inf):
            raise ValueError("tail scales must be positive and finite")
        seg = 0.5 * np.diff(knots) * (pdf[:-1] + pdf[1:])
        total = seg.sum() + pdf[0] * s_lo + pdf[-1] * s_hi
        if total <= 0:
            raise ValueError("density has zero total mass")
        if abs(total - 1.0) < 1e-12:
            total = 1.0  # already normalized; keep reloads bit-exact
        self.knots = knots
        self.pdf_values = pdf / total
        self.tail_scale_lo = s_lo
        self.tail_scale_hi = s_hi
        self.log_scale = bool(log_scale)
        self.mass_lo = self.pdf_values[0] * s_lo
        self.mass_hi = self.pdf_values[-1] * s_hi
        # recompute segments from the normalized density so that construction
        # from already-normalized values reproduces the same rounding path
        seg_n = 0.5 * np.diff(knots) * (self.pdf_values[:-1] + self.pdf_values[1:])
        self._cum = self.mass_lo + np.concatenate(([0.0], np.cumsum(seg_n)))

    def _at_z(self, x, f, jacobian=False):
        """f at z = x; on the log scale f at z = log(x) for x > 0 (divided by x
        when ``jacobian`` is set) and 0 for x <= 0."""
        x = np.asarray(x, dtype=float)
        if not self.log_scale:
            return f(x)
        out = _zero_or_nan(x)
        pos = x > 0
        if np.any(pos):
            out[pos] = f(np.log(x[pos])) / x[pos] if jacobian else f(np.log(x[pos]))
        return out

    def cdf(self, x):
        return self._at_z(x, self._cdf_z)

    def pdf(self, x):
        return self._at_z(x, self._pdf_z, jacobian=True)

    def quantile(self, q):
        z = self._quantile_z(np.asarray(q, dtype=float))
        return np.exp(z) if self.log_scale else z

    def _cdf_z(self, z):
        out = np.empty_like(z)
        k = self.knots
        below = z < k[0]
        above = z > k[-1]
        mid = ~(below | above)
        out[below] = self.mass_lo * np.exp((z[below] - k[0]) / self.tail_scale_lo)
        out[above] = 1.0 - self.mass_hi * np.exp(-(z[above] - k[-1]) / self.tail_scale_hi)
        if np.any(mid):
            zm = z[mid]
            i = np.clip(np.searchsorted(k, zm, side="right") - 1, 0, k.size - 2)
            h = k[i + 1] - k[i]
            dz = zm - k[i]
            slope = (self.pdf_values[i + 1] - self.pdf_values[i]) / h
            out[mid] = self._cum[i] + self.pdf_values[i] * dz + 0.5 * slope * dz * dz
        return np.clip(out, 0.0, 1.0)

    def _pdf_z(self, z):
        out = np.asarray(np.interp(z, self.knots, self.pdf_values))
        k = self.knots
        below = z < k[0]
        above = z > k[-1]
        # each tail only on its own points: the other tail's exp would overflow
        out[below] = self.pdf_values[0] * np.exp((z[below] - k[0]) / self.tail_scale_lo)
        out[above] = self.pdf_values[-1] * np.exp(-(z[above] - k[-1]) / self.tail_scale_hi)
        return out

    def _quantile_z(self, q):
        out = np.full_like(q, np.nan)  # NaN is in none of the three parts
        k = self.knots
        cum = self._cum
        lo = q < cum[0]
        hi = q > cum[-1]
        mid = (q >= cum[0]) & (q <= cum[-1])
        with np.errstate(divide="ignore"):
            out[lo] = k[0] + self.tail_scale_lo * np.log(np.maximum(q[lo], 0.0) / self.mass_lo)
            out[hi] = k[-1] - self.tail_scale_hi * np.log(np.maximum(1.0 - q[hi], 0.0) / self.mass_hi)
        if np.any(mid):
            qm = q[mid]
            i = np.clip(np.searchsorted(cum, qm, side="right") - 1, 0, k.size - 2)
            h = k[i + 1] - k[i]
            b = self.pdf_values[i]
            a = (self.pdf_values[i + 1] - b) / h
            r = qm - cum[i]
            # solve 0.5*a*dz^2 + b*dz = r for dz in [0, h]; stable root form
            disc = np.sqrt(np.maximum(b * b + 2.0 * a * r, 0.0))
            denom = b + disc
            dz = np.where(denom > 0, 2.0 * r / np.where(denom > 0, denom, 1.0), 0.0)
            out[mid] = k[i] + np.clip(dz, 0.0, h)
        return out

    def to_dict(self) -> dict:
        return {
            "transform": "log" if self.log_scale else "identity",
            "knots": encode_f8(self.knots),
            "pdf": encode_f8(self.pdf_values),
            "tail_scale_lo": self.tail_scale_lo,
            "tail_scale_hi": self.tail_scale_hi,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridDensity":
        return cls(decode_f8(d["knots"]), decode_f8(d["pdf"]), d["tail_scale_lo"],
                   d["tail_scale_hi"], log_scale=d["transform"] == "log")


class MixtureMarginal:
    """Finite atoms plus a continuous component with total mass one.

    Parameters
    ----------
    atoms : sequence of (value, mass)
        Atom locations and their probability masses; masses in (0, 1].
    continuous : object or None
        Any object with vectorized ``cdf``, ``pdf`` and ``quantile`` methods
        describing the continuous component normalized to total mass one.
        ``None`` only for fully atomic (degenerate) margins.
    kind : str
        Support kind: interval, nonnegative or zero_inflated.
    """

    def __init__(self, atoms, continuous, kind):
        kind = normalize_kind(kind)
        pairs = sorted((float(v), float(m)) for v, m in atoms)
        values = np.array([p[0] for p in pairs], dtype=float)
        masses = np.array([p[1] for p in pairs], dtype=float)
        if not np.isfinite(values).all() or np.any(np.diff(values) <= 0):
            raise ValueError("atom values must be finite and distinct")
        if not np.all(masses > 0) or masses.sum() > 1.0 + _MASS_TOL:
            raise ValueError("atom masses must be in (0, 1] and sum to at most 1")
        cont_mass = max(0.0, 1.0 - masses.sum())
        if cont_mass < _MASS_TOL:
            cont_mass = 0.0
            continuous = None
        elif continuous is None:
            raise ValueError("continuous component required when atom masses sum below 1")
        self.atom_values = values
        self.atom_masses = masses
        self._atom_csum = np.concatenate(([0.0], np.cumsum(masses)))
        self.continuous = continuous
        self.continuous_mass = cont_mass
        self.kind = kind

    @property
    def degenerate_continuous(self) -> bool:
        """True for a fully atomic margin, which has no continuous component."""
        return self.continuous is None

    # -- evaluation ---------------------------------------------------------

    def cdf(self, x):
        return maybe_scalar(self.pseudo_obs(x).u, x)

    def cdf_left(self, x):
        return maybe_scalar(self.pseudo_obs(x).u_left, x)

    def density(self, x):
        """Mixed density: atom mass at atoms, scaled continuous pdf elsewhere."""
        xa = as_float_array(x)
        out = _zero_or_nan(xa)
        if self.continuous is not None:
            out = self.continuous_mass * self.continuous.pdf(xa)
        if self.atom_values.size:
            idx = np.searchsorted(self.atom_values, xa)
            idx_c = np.clip(idx, 0, self.atom_values.size - 1)
            hit = self.atom_values[idx_c] == xa
            out = np.where(hit, self.atom_masses[idx_c], out)
        return maybe_scalar(out, x)

    def quantile(self, v):
        """Generalized inverse: smallest x with F(x) >= v.

        A level inside an atom's jump interval maps to the atom value, and NaN
        to NaN.
        """
        va = np.clip(as_float_array(v), 0.0, 1.0)
        out = np.empty_like(va)
        if self.atom_values.size:
            jumps = self.pseudo_obs(self.atom_values)
            jump_hi, jump_lo = jumps.u, jumps.u_left
            idx = np.searchsorted(jump_lo, va, side="right") - 1
            idx_c = np.clip(idx, 0, self.atom_values.size - 1)
            on_atom = (idx >= 0) & (va <= jump_hi[idx_c] + 1e-15)
            out[on_atom] = self.atom_values[idx_c[on_atom]]
            rest = ~on_atom
            if np.any(rest):
                n_below = np.searchsorted(jump_hi, va[rest], side="left")
                below_mass = self._atom_csum[n_below]
                if self.continuous is None:
                    # fully atomic margin: clamp to nearest atom above
                    out[rest] = self.atom_values[np.clip(n_below, 0, self.atom_values.size - 1)]
                else:
                    vc = (va[rest] - below_mass) / self.continuous_mass
                    out[rest] = self.continuous.quantile(np.clip(vc, 0.0, 1.0))
        else:
            out[:] = self.continuous.quantile(va)
        out[np.isnan(va)] = np.nan
        return maybe_scalar(out, v)

    def pseudo_obs(self, x) -> PseudoObs:
        """F(x) with its left limit F_left(x), both NaN at NaN; the continuous CDF is
        evaluated once."""
        xa = as_float_array(x)
        if self.continuous is None:
            cont = _zero_or_nan(xa)
        else:
            cont = self.continuous_mass * self.continuous.cdf(xa)
        return PseudoObs(*(np.clip(self._atom_csum[np.searchsorted(self.atom_values, xa, side=side)]
                                   + cont, 0.0, 1.0) for side in ("right", "left")))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.continuous is not None and not isinstance(self.continuous, GridDensity):
            raise TypeError("only grid-backed margins are serializable")
        return {
            "version": RECORD_VERSION,
            "kind": self.kind,
            "atoms": [[v, m] for v, m in zip(self.atom_values, self.atom_masses)],
            "continuous": None if self.continuous is None else self.continuous.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureMarginal":
        check_record_version(d)
        if not all(isinstance(atom, list) and len(atom) == 2 for atom in d["atoms"]):
            raise ValueError("atoms: each atom must be a [value, mass] pair")
        kind = normalize_kind(d["kind"])
        grid = d["continuous"]
        transform = "log" if kind in LOG_SCALE_KINDS else "identity"
        if grid is not None and grid["transform"] != transform:
            raise ValueError(f"a {kind} margin cannot have a {grid['transform']!r} grid")
        cont = None if grid is None else GridDensity.from_dict(grid)
        return cls(atoms=d["atoms"], continuous=cont, kind=kind)


# -- fitting ---------------------------------------------------------------

def _reference_bandwidth(z: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 * min(sd, IQR / 1.349) * n^(-1/5)."""
    sd = float(np.std(z))
    q75, q25 = np.percentile(z, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.349) if iqr > 0 else sd
    if spread <= 0:
        spread = max(sd, 1e-6)
    return 1.06 * spread * z.size ** (-0.2)


def _kde_on_grid(z: np.ndarray, knots: np.ndarray, bw: float) -> np.ndarray:
    """Gaussian KDE of ``z`` at uniform ``knots``, linearly binned.

    Each point splits its unit weight between the two knots around it in
    proportion to its distance from each, and the knot counts are convolved
    with the kernel at every knot lag (Silverman 1982, AS 176;
    Wand 1994, JCGS 3:433-445).
    """
    g = knots.size
    delta = (knots[-1] - knots[0]) / (g - 1)
    t = (z - knots[0]) / delta
    j = np.clip(np.floor(t).astype(np.intp), 0, g - 2)
    w = t - j
    counts = (np.bincount(j, weights=1.0 - w, minlength=g)
              + np.bincount(j + 1, weights=w, minlength=g))
    lags = np.arange(1 - g, g) * (delta / bw)
    kernel = np.exp(-0.5 * lags * lags)
    norm = 1.0 / (bw * math.sqrt(2.0 * math.pi) * z.size)
    return np.convolve(kernel, counts, mode="valid") * norm


def fit_marginal(sample, kind: str) -> MixtureMarginal:
    """Fit a mixture margin: detect atoms, then kernel-smooth the rest.

    Atoms are exactly repeated values with relative frequency at least
    ``ATOM_THRESHOLD``; the zero-inflated kind instead treats exact zeros as
    the only candidate atom regardless of frequency.  The continuous
    remainder is fitted by a Gaussian KDE with a normal-reference bandwidth,
    on the log scale for bounded supports, and stored on ``GRID_SIZE`` knots.
    The KDE is linearly binned onto the knots and convolved with the kernel,
    so its cost is O(n) plus a fixed knot-by-knot convolution; its CDF stays
    within 1e-4 of the exact Gaussian sum for light-tailed samples and
    within 1e-3 for Student-t(3) ones up to n = 11,000.
    """
    kind = normalize_kind(kind)
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < MIN_SAMPLE:
        raise EstimationError(f"need at least {MIN_SAMPLE} observations, got {x.size}")
    if np.any(~np.isfinite(x)):
        raise EstimationError("sample contains non-finite values")
    if kind != "interval" and np.any(x < 0):
        raise EstimationError(f"{kind} variable contains negative values")

    n = x.size
    if kind == "zero_inflated":
        zero_mask = x == 0.0
        atoms = [(0.0, zero_mask.sum() / n)] if np.any(zero_mask) else []
        cont = x[~zero_mask]
    else:
        values, counts = np.unique(x, return_counts=True)
        is_atom = (counts >= 2) & (counts / n >= ATOM_THRESHOLD)
        atoms = [(float(v), float(c) / n) for v, c in zip(values[is_atom], counts[is_atom])]
        cont = x[~np.isin(x, values[is_atom])]

    log_scale = kind in LOG_SCALE_KINDS
    if log_scale and cont.size:
        nonpos = cont <= 0
        if np.any(nonpos):
            warnings.warn(
                f"dropping {int(nonpos.sum())} sub-threshold zero values from the "
                "log-scale continuous fit"
            )
            cont = cont[~nonpos]

    if cont.size == 0 or np.ptp(cont) == 0.0:
        if cont.size and np.ptp(cont) == 0.0:
            atoms.append((float(cont[0]), cont.size / n))
        total = sum(m for _, m in atoms)
        atoms = [(v, m / total) for v, m in atoms]
        return MixtureMarginal(atoms, None, kind)

    z = np.log(cont) if log_scale else cont
    bw = _reference_bandwidth(z)
    lo, hi = z.min() - 4.0 * bw, z.max() + 4.0 * bw
    knots = np.linspace(lo, hi, GRID_SIZE)
    pdf = _kde_on_grid(z, knots, bw)
    continuous = GridDensity(knots, pdf, tail_scale_lo=bw, tail_scale_hi=bw, log_scale=log_scale)
    return MixtureMarginal(atoms, continuous, kind)


# -- randomized probability integral transform ----------------------------

def randomized_pit(m: MixtureMarginal, x, w):
    """Randomized probability integral transform F_left(x) + w*(F(x) - F_left(x)),
    which is F(x) exactly off the atoms (``PseudoObs.randomized``)."""
    wa = np.asarray(w, dtype=float)
    if not np.all((wa >= 0) & (wa <= 1)):
        raise DomainError("randomization weights must lie in [0, 1]")
    return maybe_scalar(m.pseudo_obs(x).randomized(wa), x, w)
