"""Generic design-space sweeps with structured results.

The examples and experiments repeatedly sweep a loop parameter and collect
margins/poles/bandwidth; this module consolidates the pattern into one
utility with named metrics, NaN-safe collection (a metric that fails for a
design — e.g. no unity crossing — records NaN instead of aborting the whole
sweep) and CSV export.

Sweeps execute through the :mod:`repro.campaign` engine: each sweep is a
one-axis campaign, so the same call optionally gets several worker
processes, a crash-safe JSONL result store and run telemetry (``workers=`` /
``store_path=`` / ``timeout=``), and :meth:`SweepResult.from_records`
round-trips store output back into the structured result object.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import ignore_backend
from repro.core.grid import FrequencyGrid
from repro.pll.architecture import PLL


@dataclass(frozen=True)
class SweepResult:
    """Structured result of a one-parameter sweep.

    Attributes
    ----------
    parameter_name:
        Label of the swept quantity.
    values:
        The swept parameter values.
    metrics:
        ``name -> array`` of collected metric values (NaN where a metric
        failed for a design).
    campaign / point_ids:
        Campaign metadata when the sweep ran through the campaign engine:
        the campaign name and the deterministic per-point ids (aligned
        with ``values``).  ``None`` for results built directly.
    """

    parameter_name: str
    values: np.ndarray
    metrics: dict[str, np.ndarray]
    campaign: str | None = None
    point_ids: tuple[str, ...] | None = None

    def metric(self, name: str) -> np.ndarray:
        """One metric's values across the sweep."""
        try:
            return self.metrics[name].copy()
        except KeyError:
            raise ValidationError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            ) from None

    @classmethod
    def from_records(
        cls,
        parameter_name: str,
        records: Iterable[Mapping[str, Any]],
        campaign: str | None = None,
    ) -> "SweepResult":
        """Rebuild a sweep result from campaign point records.

        ``records`` are terminal point records as produced by the campaign
        engine / stored in the JSONL result store (``params`` must carry
        ``parameter_name``).  Failed points contribute NaN for every
        metric, mirroring the in-process NaN-safety rule.
        """
        records = list(records)
        if not records:
            raise ValidationError("at least one point record is required")
        values = []
        ids = []
        names: list[str] = []
        for record in records:
            try:
                values.append(float(record["params"][parameter_name]))
            except (KeyError, TypeError):
                raise ValidationError(
                    f"record {record.get('id')!r} has no parameter "
                    f"{parameter_name!r}"
                ) from None
            ids.append(str(record.get("id", "")))
            for name in record.get("metrics") or {}:
                if name not in names:
                    names.append(name)
        if not names:
            raise ValidationError("no record carries any metrics")
        collected = {name: np.full(len(records), np.nan) for name in names}
        for i, record in enumerate(records):
            for name, value in (record.get("metrics") or {}).items():
                collected[name][i] = float(value)
        return cls(
            parameter_name=parameter_name,
            values=np.asarray(values, dtype=float),
            metrics=collected,
            campaign=campaign,
            point_ids=tuple(ids),
        )

    def to_csv(
        self, path: str | Path, include_metadata: bool | None = None
    ) -> Path:
        """Write the sweep as a CSV table.

        ``include_metadata=None`` (default) adds ``campaign`` / ``point_id``
        columns exactly when the result carries campaign metadata; pass
        ``False`` for the bare historical table or ``True`` to force the
        columns (empty strings when absent).
        """
        out = Path(path)
        if include_metadata is None:
            include_metadata = self.point_ids is not None
        with out.open("w", newline="") as handle:
            writer = csv.writer(handle)
            names = sorted(self.metrics)
            meta_header = ["campaign", "point_id"] if include_metadata else []
            writer.writerow(meta_header + [self.parameter_name] + names)
            for i, value in enumerate(self.values):
                meta = (
                    [
                        self.campaign or "",
                        self.point_ids[i] if self.point_ids else "",
                    ]
                    if include_metadata
                    else []
                )
                writer.writerow(
                    meta
                    + [f"{value:.10g}"]
                    + [f"{self.metrics[n][i]:.10g}" for n in names]
                )
        return out


def _metrics_task(
    parameter_name: str,
    designer: Callable[[float], PLL],
    metrics: Mapping[str, Callable[[PLL], float]],
) -> Callable[[dict[str, Any]], dict[str, float]]:
    """Adapt (designer, metrics) into a campaign task with NaN-safety."""

    def task(params: dict[str, Any]) -> dict[str, float]:
        pll = designer(float(params[parameter_name]))
        out: dict[str, float] = {}
        for name, fn in metrics.items():
            try:
                out[name] = float(fn(pll))
            except Exception:
                out[name] = float("nan")
        return out

    return task


def sweep(
    parameter_name: str,
    values: Sequence[float],
    designer: Callable[[float], PLL],
    metrics: Mapping[str, Callable[[PLL], float]],
    *,
    workers: int = 1,
    store_path: str | Path | None = None,
    backend=None,
    **campaign_kwargs: Any,
) -> SweepResult:
    """Evaluate named metrics over designs produced by ``designer``.

    A metric callable that raises any :class:`Exception` records NaN for
    that design; sweep-level errors (empty inputs) still raise.  A design
    whose *construction* fails records NaN for every metric of that point
    (the campaign engine captures the error instead of aborting the sweep).

    The evaluation runs as a :mod:`repro.campaign` campaign: pass
    ``workers=4`` for four worker processes (forked, so ``designer`` and
    ``metrics`` may be closures), ``store_path=`` for a resumable JSONL
    result store, and any other :class:`repro.campaign.ExecutionPolicy`
    field (``timeout=``, ``retries=``...) as keyword arguments.
    ``backend`` is deprecated and ignored.
    """
    from repro.campaign import CampaignSpec, ListSpace, run_campaign

    ignore_backend(backend)
    values_arr = np.asarray(values, dtype=float)
    if values_arr.ndim != 1 or values_arr.size == 0:
        raise ValidationError("values must be a non-empty 1-D sequence")
    if not metrics:
        raise ValidationError("at least one metric is required")
    spec = CampaignSpec.create(
        name=f"sweep:{parameter_name}",
        space=ListSpace.of([{parameter_name: float(v)} for v in values_arr]),
        task=_metrics_task(parameter_name, designer, metrics),
    )
    result = run_campaign(
        spec, store_path, workers=workers, **campaign_kwargs
    )
    # The declared metric set is authoritative: a point whose design failed
    # has no metrics dict and stays NaN across the board.
    collected = {name: np.full(values_arr.size, np.nan) for name in metrics}
    for i, record in enumerate(result.records):
        for name, value in (record.get("metrics") or {}).items():
            if name in collected:
                collected[name][i] = float(value)
    return SweepResult(
        parameter_name=parameter_name,
        values=values_arr,
        metrics=collected,
        campaign=spec.name,
        point_ids=tuple(r["id"] for r in result.records),
    )


def closed_loop_response_surface(
    parameter_name: str,
    values: Sequence[float],
    designer: Callable[[float], PLL],
    grid: FrequencyGrid,
    backend=None,
    **closed_loop_kwargs,
) -> tuple[np.ndarray, np.ndarray]:
    """Baseband ``H00(j omega)`` over a (design, frequency) product grid.

    For each design produced by ``designer`` the whole frequency row is
    evaluated in one batched :meth:`~repro.pll.closedloop.ClosedLoopHTM.
    frequency_response` call, so the cost is one grid evaluation per design
    rather than ``len(grid)`` scalar closures.  ``backend`` is deprecated
    and ignored.

    Returns
    -------
    (values, surface):
        ``values`` is the swept parameter array; ``surface`` is complex with
        shape ``(len(values), len(grid))``.
    """
    from repro.pll.closedloop import ClosedLoopHTM

    ignore_backend(backend)
    if not isinstance(grid, FrequencyGrid):
        raise ValidationError(
            f"{parameter_name} surface requires a FrequencyGrid, got "
            f"{type(grid).__name__}"
        )
    values_arr = np.asarray(values, dtype=float)
    if values_arr.ndim != 1 or values_arr.size == 0:
        raise ValidationError("values must be a non-empty 1-D sequence")
    surface = np.zeros((values_arr.size, len(grid)), dtype=complex)
    for i, value in enumerate(values_arr):
        closed = ClosedLoopHTM(designer(float(value)), **closed_loop_kwargs)
        surface[i] = closed.frequency_response(grid)
    return values_arr, surface


def standard_metrics() -> dict[str, Callable[[PLL], float]]:
    """The commonly wanted metric set.

    ``pm_lti`` / ``pm_eff`` (degrees), ``bandwidth_extension``,
    ``dominant_pole_real`` (rad/s; positive = unstable), ``modulus_margin``.
    The three margin metrics share one :func:`compare_margins` per design
    object; when it raises, each of them raises the same error (NaN).
    """
    from repro.lti.bode import modulus_margin
    from repro.pll.margins import compare_margins, effective_open_loop
    from repro.pll.poles import dominant_pole

    last: list[tuple] = [(None, None)]  # (design, its margins or the error)

    def margins(pll: PLL):
        design, outcome = last[0]
        if design is not pll:
            try:
                outcome = compare_margins(pll)
            except Exception as exc:
                outcome = exc
            last[0] = (pll, outcome)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def pm_lti(pll: PLL) -> float:
        return margins(pll).phase_margin_lti_deg

    def pm_eff(pll: PLL) -> float:
        return margins(pll).phase_margin_eff_deg

    def bandwidth_extension(pll: PLL) -> float:
        return margins(pll).bandwidth_extension

    def dominant_pole_real(pll: PLL) -> float:
        return dominant_pole(pll).s.real

    def modulus(pll: PLL) -> float:
        lam = effective_open_loop(pll)
        return modulus_margin(lam, 1e-3 * pll.omega0, 0.499 * pll.omega0)

    return {
        "pm_lti": pm_lti,
        "pm_eff": pm_eff,
        "bandwidth_extension": bandwidth_extension,
        "dominant_pole_real": dominant_pole_real,
        "modulus_margin": modulus,
    }
