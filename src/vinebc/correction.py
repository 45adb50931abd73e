"""Bias correction: estimate, correct, project.

The multivariate corrector fits vine models to the reference calibration
data and to the model projection data, pushes each projection row through
the randomized forward Rosenblatt transform of the model fit and the inverse
Rosenblatt transform of the reference fit, and finally applies per-variable
delta mapping against the pooled model calibration margins.  The univariate
baseline applies quantile mapping plus the same delta step per margin with
no cross-variable coupling.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import as_float_array, maybe_scalar, subseed
from .copula import DEFAULT_FAMILY_SET
from .errors import SchemaError
from .marginal import MixtureMarginal, fit_marginal, normalize_kind
from .vine import fit_vine, rosenblatt_forward, rosenblatt_inverse

_NOISE_TAG = 11
_MP_TAG = 12
_RC_TAG = 13

# CorrectionConfig fields passed to fit_vine under the same name
_VINE_FIELDS = ("family_set", "truncation")


@dataclass(frozen=True)
class CorrectionConfig:
    family_set: tuple = DEFAULT_FAMILY_SET
    overlap_fraction: float = 0.25
    truncation: int | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.family_set, str) or not set(self.family_set) <= set(DEFAULT_FAMILY_SET):
            raise ValueError(f"family_set must list families among {list(DEFAULT_FAMILY_SET)}")
        object.__setattr__(self, "family_set", tuple(self.family_set))
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1]")
        t = self.truncation
        if t is not None and (isinstance(t, bool) or not isinstance(t, int) or t < 0):
            raise ValueError("truncation must be null or an integer >= 0")

    def with_seed(self, seed: int) -> "CorrectionConfig":
        return replace(self, seed=int(seed))

    def vine_kwargs(self) -> dict:
        """Keyword arguments of ``fit_vine`` that this config sets, the seed aside."""
        return {name: getattr(self, name) for name in _VINE_FIELDS}


@dataclass
class CorrectedSet:
    """Corrected rows aligned one-to-one with the input projection rows."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return self.values.shape[0]


def delta_map(x_hat_mc, x_mp, marginal_mc: MixtureMarginal, marginal_mp: MixtureMarginal,
              nonnegative: bool):
    """Project calibration-scale values onto the projection climate.

    The quantile-matched discrepancy between projection and calibration is
    applied multiplicatively for nonnegative variables when the ratio is
    below one, additively otherwise; a zero denominator forces the additive
    branch.  Atoms of a nonnegative projection margin are matched through
    their left limit, so zeros pair with the calibration atom instead of a
    noise-level positive quantile.
    """
    xh = as_float_array(x_hat_mc)
    xp = as_float_array(x_mp)
    xh, xp = np.broadcast_arrays(xh, xp)
    v = np.asarray(marginal_mp.cdf(xp))
    if nonnegative:
        v_left = np.asarray(marginal_mp.cdf_left(xp))
        v = np.where(v_left < v, v_left, v)
    q = np.asarray(marginal_mc.quantile(v))
    delta_add = xp - q
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_mult = np.where(q != 0.0, xp / np.where(q != 0.0, q, 1.0), np.inf)
    use_mult = bool(nonnegative) & (q > 0.0) & (delta_mult < 1.0)
    out = np.where(use_mult, xh * np.where(use_mult, delta_mult, 0.0), xh + delta_add)
    return maybe_scalar(out, x_hat_mc, x_mp)


def _as_inputs(x_mp, x_rc, x_mc, kinds):
    """Float arrays and normalized kinds, checked to describe the same variables."""
    x_mp, x_rc, x_mc = (np.asarray(x, dtype=float) for x in (x_mp, x_rc, x_mc))
    kinds = [normalize_kind(k) for k in kinds]
    d = x_mp.shape[1]
    if x_rc.shape[1] != d or x_mc.shape[1] != d:
        raise SchemaError(
            f"variable count mismatch: projection {d}, reference {x_rc.shape[1]}, "
            f"calibration {x_mc.shape[1]}"
        )
    if len(kinds) != d:
        raise SchemaError(f"got {len(kinds)} kinds for {d} variables")
    return x_mp, x_rc, x_mc, kinds


def _project(x_hat_mc, x_mp, x_mc, mp_margins, kinds) -> CorrectedSet:
    """Delta-map calibration-scale rows onto the projection climate, per variable,
    against margins fitted to the pooled model calibration rows ``x_mc``."""
    out = np.empty_like(x_hat_mc)
    for j, kind in enumerate(kinds):
        nonneg = kind != "interval"
        out[:, j] = delta_map(x_hat_mc[:, j], x_mp[:, j], fit_marginal(x_mc[:, j], kind),
                              mp_margins[j], nonnegative=nonneg)
        if nonneg:
            out[:, j] = np.maximum(out[:, j], 0.0)
    return CorrectedSet(out)


def vbc_correct(x_mp, x_rc, x_mc, kinds, config: CorrectionConfig, mp_fit=None) -> CorrectedSet:
    """Multivariate vine-copula correction of the projection rows.

    The reference vine is fitted to ``x_rc``, the reference estimation sample;
    ``mp_fit`` optionally supplies an overlap-extended estimation set for the
    projection vine.  The rows of ``x_mp`` are the ones corrected and
    returned, aligned and in order.  ``x_mc`` pools all ensemble members of
    the calibration period and only feeds the per-variable delta mapping.
    """
    x_mp, x_rc, x_mc, kinds = _as_inputs(x_mp, x_rc, x_mc, kinds)
    fit_kwargs = config.vine_kwargs()
    vine_mp = fit_vine(mp_fit if mp_fit is not None else x_mp, kinds,
                       seed=subseed(config.seed, _MP_TAG), **fit_kwargs)
    vine_rc = fit_vine(x_rc, kinds, seed=subseed(config.seed, _RC_TAG), **fit_kwargs)
    noise = np.random.default_rng(subseed(config.seed, _NOISE_TAG)).uniform(size=x_mp.shape)
    v = rosenblatt_forward(vine_mp, x_mp, noise)
    v = np.clip(v, 1e-9, 1.0 - 1e-9)
    x_hat_mc = rosenblatt_inverse(vine_rc, v)
    return _project(x_hat_mc, x_mp, x_mc, vine_mp.margins, kinds)


def ubc_correct(x_mp, x_rc, x_mc, kinds, config: CorrectionConfig, mp_fit=None) -> CorrectedSet:
    """Univariate quantile-delta-mapping baseline; preserves per-margin ranks.

    UBC has no settings of its own: ``config`` is taken so that both
    correctors share one signature.
    """
    x_mp, x_rc, x_mc, kinds = _as_inputs(x_mp, x_rc, x_mc, kinds)
    x_fit = mp_fit if mp_fit is not None else x_mp
    mp_margins = [fit_marginal(x_fit[:, j], kind) for j, kind in enumerate(kinds)]
    x_hat_mc = np.column_stack([fit_marginal(x_rc[:, j], kind).quantile(m.cdf(x_mp[:, j]))
                                for j, (kind, m) in enumerate(zip(kinds, mp_margins))])
    return _project(x_hat_mc, x_mp, x_mc, mp_margins, kinds)
