"""Built-in task adapters: existing analyses as one-line campaigns.

A *task adapter* is a callable ``params -> {metric: float}``.
Registry-named adapters (via :func:`register_task`) are what makes a
campaign spec serializable — the JSONL store records the name, and
``repro campaign resume`` re-resolves it in a fresh process.

Common loop parameters (all adapters, merged from spec defaults + point):

``omega0``
    Reference angular frequency, rad/s (default ``2*pi``).
``ratio``
    Target ``omega_UG / omega0`` (alternatively pass ``omega_ug``).
``separation``
    Zero/pole separation of the Fig. 5 shape (default 4.0).
``charge_pump_current`` / ``vco_sensitivity``
    Forwarded to :func:`repro.pll.design.design_typical_loop`.

Adapters record NaN for a metric that fails on an individual design (no
unity crossing, say) — matching :func:`repro.pll.sweeps.sweep` — while a
failure of the *design itself* raises, which the executor captures as a
failed point with bounded retries.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Callable, Mapping

import numpy as np

from repro._errors import ValidationError
from repro.pll.architecture import PLL

__all__ = [
    "TaskAdapter",
    "available_tasks",
    "design_from_params",
    "get_batch_task",
    "get_task",
    "register_batch_task",
    "register_task",
    "registered_name",
]

TaskAdapter = Callable[[dict[str, Any]], dict[str, float]]

_REGISTRY: dict[str, TaskAdapter] = {}


def register_task(name: str) -> Callable[[TaskAdapter], TaskAdapter]:
    """Decorator: register a task adapter under ``name``."""

    def deco(fn: TaskAdapter) -> TaskAdapter:
        if name in _REGISTRY:
            raise ValidationError(f"task {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def register_batch_task(name: str) -> Callable[[Callable], Callable]:
    """Deprecated no-op decorator: every campaign point runs its scalar adapter.

    Warns and registers nothing; the decorated function is returned as is.
    """
    warnings.warn(
        "register_batch_task is deprecated and registers nothing: every "
        "campaign point runs its scalar task adapter",
        DeprecationWarning,
        stacklevel=2,
    )
    return lambda fn: fn


def get_batch_task(name: str | None) -> None:
    """Deprecated: always ``None``, as there are no batch adapters."""
    return None


def get_task(name: str) -> TaskAdapter:
    """Resolve a registry name to its adapter."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown task {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def registered_name(task: TaskAdapter) -> str | None:
    """Reverse lookup: the registry name of an adapter, if registered."""
    for name, fn in _REGISTRY.items():
        if fn is task:
            return name
    return None


def available_tasks() -> dict[str, str]:
    """``name -> first docstring line`` of every registered adapter."""
    return {
        name: (fn.__doc__ or "").strip().splitlines()[0]
        for name, fn in sorted(_REGISTRY.items())
    }


# -- shared parameter handling -----------------------------------------------------


def design_from_params(params: Mapping[str, Any]) -> PLL:
    """Design the typical loop described by a campaign parameter dict."""
    from repro.pll.design import design_typical_loop

    omega0 = float(params.get("omega0", 2 * math.pi))
    if "omega_ug" in params:
        omega_ug = float(params["omega_ug"])
    elif "ratio" in params:
        omega_ug = float(params["ratio"]) * omega0
    else:
        raise ValidationError(
            "task parameters need 'ratio' (omega_UG/omega0) or 'omega_ug'"
        )
    kwargs: dict[str, Any] = {}
    for key in ("charge_pump_current", "vco_sensitivity", "vco_f0"):
        if key in params:
            kwargs[key] = float(params[key])
    return design_typical_loop(
        omega0=omega0,
        omega_ug=omega_ug,
        separation=float(params.get("separation", 4.0)),
        **kwargs,
    )


def _nan_safe(metrics: Mapping[str, Callable[[PLL], float]], pll: PLL) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, fn in metrics.items():
        try:
            out[name] = float(fn(pll))
        except Exception:
            out[name] = float("nan")
    return out


# -- built-in adapters -------------------------------------------------------------


@register_task("standard_metrics")
def standard_metrics_task(params: dict[str, Any]) -> dict[str, float]:
    """The `repro.pll.sweeps.standard_metrics` set on one designed loop."""
    from repro.pll.sweeps import standard_metrics

    return _nan_safe(standard_metrics(), design_from_params(params))


@register_task("margins")
def margins_task(params: dict[str, Any]) -> dict[str, float]:
    """LTI vs effective margins (paper Fig. 7 quantities) on one loop."""
    from repro.pll.margins import compare_margins

    pll = design_from_params(params)
    margins = compare_margins(pll, points=int(params.get("points", 4000)))
    return {
        "omega_ug_lti": margins.omega_ug_lti,
        "phase_margin_lti_deg": margins.phase_margin_lti_deg,
        "omega_ug_eff": margins.omega_ug_eff,
        "phase_margin_eff_deg": margins.phase_margin_eff_deg,
        "bandwidth_extension": margins.bandwidth_extension,
        "margin_degradation": margins.margin_degradation,
    }


@register_task("stability_cell")
def stability_cell_task(params: dict[str, Any]) -> dict[str, float]:
    """One (separation, ratio) cell of a stability map: z-poles + margins."""
    from repro.baselines.zdomain import closed_loop_z, sampled_open_loop
    from repro.pll.design import shape_phase_margin_deg
    from repro.pll.margins import effective_margin

    pll = design_from_params(params)
    # The loop's one expansion (memoized) gives both the closed-loop z-poles
    # and the effective margin.
    poles = closed_loop_z(sampled_open_loop(pll)).poles()
    radius = float(np.max(np.abs(poles))) if poles.size else 0.0
    out = {
        "z_stable": 1.0 if radius < 1.0 else 0.0,
        "z_pole_radius": radius,
        "lti_phase_margin_deg": shape_phase_margin_deg(
            float(params.get("separation", 4.0))
        ),
    }
    out.update(
        _nan_safe(
            {
                "phase_margin_eff_deg": lambda p: effective_margin(
                    p, points=int(params.get("points", 2000))
                )[1],
            },
            pll,
        )
    )
    return out


@register_task("stability_limit")
def stability_limit_task(params: dict[str, Any]) -> dict[str, float]:
    """Max stable omega_UG/omega0 at one separation (z-domain bisection)."""
    from repro.baselines.zdomain import stability_limit_ratio
    from repro.pll.design import design_typical_loop, shape_phase_margin_deg

    separation = float(params["separation"])
    omega0 = float(params.get("omega0", 2 * math.pi))
    tol = float(params.get("tol", 1e-3))

    def designer(ratio: float) -> PLL:
        return design_typical_loop(
            omega0=omega0, omega_ug=ratio * omega0, separation=separation
        )

    return {
        "stability_limit": stability_limit_ratio(designer, tol=tol),
        "lti_phase_margin_deg": shape_phase_margin_deg(separation),
    }


@register_task("band_map")
def band_map_task(params: dict[str, Any]) -> dict[str, float]:
    """Band-conversion summary of the truncated closed-loop HTM.

    Evaluates the dense closed-loop operator over a baseband grid (through
    the batched ``dense_grid`` path, so campaign telemetry shows the
    per-worker grid-cache traffic) and reports the baseband transfer peak
    plus the strongest band-conversion gain.
    """
    from repro.core.grid import FrequencyGrid
    from repro.core.operators import FeedbackOperator
    from repro.core.sweep import band_transfer_map
    from repro.pll.openloop import open_loop_operator

    pll = design_from_params(params)
    order = int(params.get("order", 4))
    points = int(params.get("points", 32))
    grid = FrequencyGrid.baseband(pll.omega0, points=points)
    mags = band_transfer_map(
        FeedbackOperator(open_loop_operator(pll)), grid, order
    )
    center = order
    diag = mags[:, center, center]
    off = mags.copy()
    off[:, center, center] = 0.0
    return {
        "baseband_peak": float(np.max(diag)),
        "baseband_peak_db": float(20.0 * np.log10(np.max(diag))),
        "max_conversion_gain": float(np.max(off)),
    }


@register_task("design_summary")
def design_summary_task(params: dict[str, Any]) -> dict[str, float]:
    """Cheap per-design summary (loop constants only) — CI/smoke workhorse.

    Designs the loop and reports its headline constants without any grid
    evaluation, so thousand-point campaigns finish in seconds.  An optional
    ``min_seconds`` parameter sleeps to simulate heavier points — used by
    the distributed smoke test to hold leases long enough to SIGKILL a
    worker mid-batch.
    """
    import time as _time

    min_seconds = float(params.get("min_seconds", 0.0))
    pll = design_from_params(params)
    out = {
        "omega0": float(pll.omega0),
        "period": float(pll.period),
        "ratio": float(params.get("ratio", float("nan"))),
        "separation": float(params.get("separation", 4.0)),
    }
    if min_seconds > 0:
        _time.sleep(min_seconds)
    return out


@register_task("noise_summary")
def noise_summary_task(params: dict[str, Any]) -> dict[str, float]:
    """Closed-loop noise figures of merit on one designed loop.

    White reference noise of PSD ``reference_level`` (default 1.0) folded
    from ``folded_bands`` bands (default 8) and a ``1/omega^2`` VCO noise
    anchored at the loop bandwidth; reports RMS jitter and the peak
    baseband transfer magnitude (peaking).
    """
    from repro.core.grid import FrequencyGrid
    from repro.pll.noise import NoiseAnalysis, flat_psd, one_over_f2_psd

    pll = design_from_params(params)
    points = int(params.get("points", 200))
    analysis = NoiseAnalysis(pll)
    grid = FrequencyGrid.baseband(pll.omega0, points=points)
    ref_level = float(params.get("reference_level", 1.0))
    folded_bands = int(params.get("folded_bands", 8))
    vco_level = float(params.get("vco_level", ref_level))
    psd = analysis.output_psd(
        grid,
        reference_psd=flat_psd(ref_level),
        vco_psd=one_over_f2_psd(vco_level, pll.omega0),
        folded_bands=folded_bands,
    )
    h00 = np.abs(analysis.reference_transfer(grid))
    return {
        "rms_jitter": analysis.rms_jitter(grid, psd),
        "peak_transfer": float(np.max(h00)),
        "peaking_db": float(20.0 * np.log10(np.max(h00))),
        "folded_gain_dc": float(
            analysis.folded_reference_gain(grid, folded_bands)[0]
        ),
    }
