"""Bias correction: estimate, correct, project.

The multivariate corrector fits vine models to the reference calibration
data and to the model projection data, pushes each projection row through
the randomized forward Rosenblatt transform of the model fit and the inverse
Rosenblatt transform of the reference fit, and finally applies per-variable
delta mapping against the pooled model calibration margins.  The univariate
baseline applies quantile mapping plus the same delta step per margin with
no cross-variable coupling.

Both correctors run in two steps.  ``fit_reference`` fits what depends on
the reference and calibration rows alone (the reference vine or margins, and
the calibration margins); ``apply_correction`` fits the projection model to a
member's estimation rows and corrects the rows it names by their positions
there, so the members of one chunk can share the first step.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from ._util import Stream, as_float_array, maybe_scalar, subseed
from .copula import DEFAULT_FAMILY_SET, check_family_set
from .errors import SchemaError
from .marginal import MixtureMarginal, fit_marginal, normalize_kind
from .vine import VineModel, fit_vine, rosenblatt_forward_from_fit, rosenblatt_inverse

# CorrectionConfig fields passed to fit_vine under the same name
_VINE_FIELDS = ("family_set", "truncation")


@dataclass(frozen=True)
class CorrectionConfig:
    family_set: tuple = DEFAULT_FAMILY_SET
    overlap_fraction: float = 0.25
    truncation: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family_set", check_family_set(self.family_set))
        f = self.overlap_fraction
        if isinstance(f, bool) or not isinstance(f, numbers.Real) or not 0.0 <= f <= 1.0:
            raise ValueError("overlap_fraction must be a number in [0, 1]")
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
    po = marginal_mp.pseudo_obs(xp)
    q = np.asarray(marginal_mc.quantile(po.u_left if nonnegative else po.u))
    delta_add = xp - q
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_mult = np.where(q != 0.0, xp / np.where(q != 0.0, q, 1.0), np.inf)
    use_mult = bool(nonnegative) & (q > 0.0) & (delta_mult < 1.0)
    out = np.where(use_mult, xh * np.where(use_mult, delta_mult, 0.0), xh + delta_add)
    return maybe_scalar(out, x_hat_mc, x_mp)


@dataclass(frozen=True)
class ReferenceFit:
    """What a correction fits to the reference and calibration rows alone.

    ``model`` is the reference vine (VBC) or the reference margins, one per
    variable (UBC); ``mc_margins`` are the margins of the pooled model
    calibration rows, which feed the delta mapping.  None of it depends on the
    projection rows, so every member of a chunk can be corrected against one.
    """

    method: str
    kinds: tuple
    model: object
    mc_margins: tuple


def _rows(name: str, x, width: int) -> np.ndarray:
    """``x`` as a float array of rows x ``width`` variables; otherwise a
    SchemaError naming it."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise SchemaError(f"{name} rows must be a 2-d array (rows x variables), got {x.ndim}-d")
    if x.shape[1] != width:
        raise SchemaError(f"variable count mismatch: {name} {x.shape[1]}, kinds {width}")
    return x


def fit_reference_vine(x_rc, kinds, config: CorrectionConfig, var_names=None) -> VineModel:
    """The reference vine of ``x_rc``, seeded by ``subseed(config.seed,
    Stream.REFERENCE_VINE)``: the vine that VBC corrects against and that
    ``vinebc fit`` saves."""
    return fit_vine(x_rc, kinds, seed=subseed(config.seed, Stream.REFERENCE_VINE),
                    var_names=var_names, **config.vine_kwargs())


def fit_reference(method: str, x_rc, x_mc, kinds, config: CorrectionConfig) -> ReferenceFit:
    """The first step of ``vbc_correct`` (``method="vbc"``) or ``ubc_correct`` (``"ubc"``).

    The reference vine is fitted to ``x_rc``, the reference estimation sample,
    by ``fit_reference_vine``; UBC fits its margins, which take no seed.
    ``x_mc`` pools all ensemble members of the calibration period.
    """
    if method not in ("vbc", "ubc"):
        raise ValueError(f"unknown method {method!r}")
    kinds = tuple(normalize_kind(k) for k in kinds)
    x_rc, x_mc = _rows("reference", x_rc, len(kinds)), _rows("calibration", x_mc, len(kinds))
    if method == "vbc":
        model = fit_reference_vine(x_rc, kinds, config)
    else:
        model = tuple(fit_marginal(x_rc[:, j], kind) for j, kind in enumerate(kinds))
    mc_margins = tuple(fit_marginal(x_mc[:, j], kind) for j, kind in enumerate(kinds))
    return ReferenceFit(method, kinds, model, mc_margins)


def apply_correction(x_fit, reference: ReferenceFit, config: CorrectionConfig,
                     rows=None) -> np.ndarray:
    """The second step: fit the projection model to ``x_fit`` and correct the
    rows ``x_fit[rows]`` (every row when ``rows`` is None) against ``reference``.

    The projection model is a vine seeded by ``subseed(config.seed,
    Stream.PROJECTION_VINE)`` for VBC, margins for UBC; ``x_fit`` is the
    projection rows or an overlap-extended estimation set that holds them.
    VBC reads the forward Rosenblatt transform of the corrected rows from the
    edge store of that fit (``vine.rosenblatt_forward_from_fit``), so the
    projection vine is walked once.  Returns the corrected rows, aligned with
    ``rows`` and in order.
    """
    kinds = reference.kinds
    x_fit = _rows("projection", x_fit, len(kinds))
    x_mp = x_fit if rows is None else x_fit[rows]
    if reference.method == "vbc":
        store = {}
        vine_mp = fit_vine(x_fit, kinds, seed=subseed(config.seed, Stream.PROJECTION_VINE),
                           **config.vine_kwargs(), store=store)
        noise = np.random.default_rng(subseed(config.seed, Stream.NOISE)).uniform(size=x_mp.shape)
        v = np.clip(rosenblatt_forward_from_fit(vine_mp, store, noise, rows), 1e-9, 1.0 - 1e-9)
        del store  # free it before the inverse transform, which needs none of it
        x_hat_mc = rosenblatt_inverse(reference.model, v)
        mp_margins = vine_mp.margins
    else:
        mp_margins = [fit_marginal(x_fit[:, j], kind) for j, kind in enumerate(kinds)]
        x_hat_mc = np.column_stack([m_rc.quantile(m.cdf(x_mp[:, j])) for j, (m, m_rc)
                                    in enumerate(zip(mp_margins, reference.model))])
    return _project(x_hat_mc, x_mp, reference.mc_margins, mp_margins, kinds)


def _project(x_hat_mc, x_mp, mc_margins, mp_margins, kinds) -> np.ndarray:
    """Delta-map calibration-scale rows onto the projection climate, per variable."""
    out = np.empty_like(x_hat_mc)
    for j, kind in enumerate(kinds):
        nonneg = kind != "interval"
        out[:, j] = delta_map(x_hat_mc[:, j], x_mp[:, j], mc_margins[j], mp_margins[j],
                              nonnegative=nonneg)
        if nonneg:
            out[:, j] = np.maximum(out[:, j], 0.0)
    return out


def vbc_correct(x_mp, x_rc, x_mc, kinds, config: CorrectionConfig) -> CorrectedSet:
    """Multivariate vine-copula correction of the projection rows.

    The reference vine is fitted to ``x_rc``, the reference estimation sample,
    and the projection vine to ``x_mp``, whose rows are corrected and
    returned, aligned and in order.  ``x_mc`` pools all ensemble members of
    the calibration period and only feeds the per-variable delta mapping.
    This is ``fit_reference`` followed by ``apply_correction``.
    """
    x_mp = _rows("projection", x_mp, len(kinds))  # before any fit
    reference = fit_reference("vbc", x_rc, x_mc, kinds, config)
    return CorrectedSet(apply_correction(x_mp, reference, config))


def ubc_correct(x_mp, x_rc, x_mc, kinds, config: CorrectionConfig) -> CorrectedSet:
    """Univariate quantile-delta-mapping baseline; preserves per-margin ranks.

    UBC has no settings of its own: ``config`` is taken so that both
    correctors share one signature.  This is ``fit_reference`` followed by
    ``apply_correction``.
    """
    x_mp = _rows("projection", x_mp, len(kinds))  # before any fit
    reference = fit_reference("ubc", x_rc, x_mc, kinds, config)
    return CorrectedSet(apply_correction(x_mp, reference, config))
