"""Cycle-by-cycle behavioural PLL simulation with exact segment integration.

The continuous part of the loop — loop-filter impedance driven by the pump
current plus the VCO phase integrator — is one augmented LTI system::

    x' = A x + B i(t)                     (filter states, u = C x + D i)
    theta' = v0 (C x + D i) + delta       (VCO phase in seconds)
    delta' = 0                            (constant fractional freq. offset)

Between events the pump current ``i`` is constant (``+I_up``, ``-I_down`` or
0), so each segment is advanced by a matrix exponential with **zero
discretization error**; all approximation lives in the root solves for edge
times (1e-13 relative) — far below the 2% agreement the paper reports
between its HTM model and this kind of simulation.

Each reference cycle ``n``:

1. solve the reference edge ``t_r + thetaref(t_r) = nT``;
2. look for the VCO edge ``t + theta(t) = nT`` with the pump off;
3. whichever edge comes first starts the pump (UP for a leading reference,
   DOWN for a leading VCO); the other edge ends the pulse — the flip-flop
   tri-state behaviour of :mod:`repro.simulator.pfd_behavior`;
4. dense uniform samples of ``theta`` and the control voltage are recorded
   along the way for spectral post-processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._errors import LockError, ValidationError
from repro._validation import check_order, check_positive
from repro.pll.architecture import PLL
from repro.simulator.events import solve_phase_crossing, solve_reference_edge
from repro.simulator.pfd_behavior import PFDState, PumpInterval


@dataclass(frozen=True)
class SimulationConfig:
    """Engine settings.

    Attributes
    ----------
    cycles:
        Number of reference periods to simulate.
    oversample:
        Dense recording rate: samples per reference period.
    frequency_offset:
        Initial fractional VCO frequency error ``delta`` (dimensionless);
        non-zero values exercise lock acquisition.
    max_phase_error:
        Cycle-slip guard, as a fraction of the period; exceeding it raises
        :class:`~repro._errors.LockError`.
    """

    cycles: int = 200
    oversample: int = 16
    frequency_offset: float = 0.0
    max_phase_error: float = 0.45

    def __post_init__(self):
        check_order("cycles", self.cycles, minimum=1)
        check_order("oversample", self.oversample, minimum=1)
        if not 0.0 < self.max_phase_error <= 0.5:
            raise ValidationError(
                f"max_phase_error must lie in (0, 0.5], got {self.max_phase_error}"
            )


@dataclass
class TransientResult:
    """Recorded trajectory of one simulation run."""

    times: np.ndarray
    theta: np.ndarray
    control: np.ndarray
    ref_edges: np.ndarray
    vco_edges: np.ndarray
    phase_errors: np.ndarray
    pump_intervals: list[PumpInterval] = field(default_factory=list)

    @property
    def sample_period(self) -> float:
        """Spacing of the dense recording grid."""
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    def final_phase_error(self) -> float:
        """Last recorded per-cycle phase error (seconds)."""
        return float(self.phase_errors[-1])


class BehavioralPLLSimulator:
    """Event-driven simulator of a charge-pump PLL with a tri-state PFD.

    Parameters
    ----------
    pll:
        The PLL description.  Time-invariant VCOs integrate via cached
        matrix exponentials; LPTV ISFs use the closed-form eigenbasis
        segment formulas of :meth:`_advance_lptv` (linearised ``v(t)``, the
        paper's eq. 24 approximation) — both exact per segment.
    theta_ref:
        Reference phase excursion in seconds as a function of time; ``None``
        means an unmodulated reference.
    config:
        Engine settings.
    """

    def __init__(
        self,
        pll: PLL,
        theta_ref: Callable[[float], float] | None = None,
        config: SimulationConfig | None = None,
        frequency_offset_fn: Callable[[int], float] | None = None,
    ):
        if pll.has_delay:
            raise ValidationError("the behavioural engine models a delay-free loop")
        self.pll = pll
        self.theta_ref = theta_ref or (lambda t: 0.0)
        self.config = config or SimulationConfig()
        # Optional per-cycle fractional VCO frequency disturbance: cycle n
        # runs with delta = config.frequency_offset + frequency_offset_fn(n).
        # This injects VCO-referred noise/modulation for sensitivity tests.
        self.frequency_offset_fn = frequency_offset_fn
        self.period = pll.period
        self._lptv = not pll.vco.is_time_invariant()
        v0 = pll.vco.v0
        if abs(v0.imag) > 1e-12 * max(abs(v0.real), 1.0):
            raise ValidationError("VCO average sensitivity v0 must be real for simulation")
        self._v0 = float(v0.real)
        check_positive("v0", self._v0)
        ss = pll.filter_impedance.to_statespace()
        n = ss.order
        self._n_filter = n
        # Augmented state z = [x_filter, theta, delta]; input is the pump current.
        a_aug = np.zeros((n + 2, n + 2))
        a_aug[:n, :n] = ss.A
        a_aug[n, :n] = self._v0 * ss.C[0]
        a_aug[n, n + 1] = 1.0
        b_aug = np.zeros(n + 2)
        b_aug[:n] = ss.B[:, 0]
        b_aug[n] = self._v0 * ss.D[0, 0]
        self._a_aug = a_aug
        self._b_aug = b_aug
        self._c_filter = ss.C[0]
        self._d_filter = float(ss.D[0, 0])
        self._step_cache: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
        if self._lptv:
            self._init_lptv(ss)

    def _init_lptv(self, ss) -> None:
        """Eigendecompose the filter for the analytic LPTV segment formulas.

        The LPTV phase equation ``theta' = v(t) u(t) + delta`` (paper eq. 24)
        separates: the filter states never depend on theta, so they propagate
        exactly in the filter's eigenbasis and the phase increment becomes a
        finite sum of exponential integrals (see :meth:`_advance_lptv`).
        Requires a diagonalizable filter with distinct eigenvalues — true for
        every passive topology in :mod:`repro.blocks.loopfilter`.
        """
        eigvals, vecs = np.linalg.eig(ss.A.astype(complex))
        scale = max(float(np.max(np.abs(eigvals))), 1.0)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(eigvals.size) * scale
        if float(np.min(gaps)) < 1e-9 * scale:
            raise ValidationError(
                "LPTV simulation needs a filter with distinct eigenvalues "
                "(defective/multiple modes not supported)"
            )
        self._lam = eigvals
        self._beta = np.linalg.solve(vecs, ss.B[:, 0].astype(complex))
        self._gamma = ss.C[0].astype(complex) @ vecs
        self._modal = vecs
        self._modal_inv = np.linalg.inv(vecs)
        isf = self.pll.vco.isf
        self._isf_k = np.arange(-isf.order, isf.order + 1)
        self._isf_c = np.array([isf.coefficient(int(k)) for k in self._isf_k])
        self._omega0 = self.pll.omega0

    # -- exact stepping -----------------------------------------------------------

    def _discrete(self, dt: float, current: float) -> tuple[np.ndarray, np.ndarray]:
        key = (dt, current)
        hit = self._step_cache.get(key)
        if hit is not None:
            return hit
        from scipy.linalg import expm  # on first use: most processes never need scipy

        n = self._a_aug.shape[0]
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = self._a_aug
        aug[:n, n] = self._b_aug * current
        phi = expm(aug * dt)
        pair = (phi[:n, :n], phi[:n, n])
        if len(self._step_cache) < 4096:
            self._step_cache[key] = pair
        return pair

    def _advance(
        self, state: np.ndarray, dt: float, current: float, t_start: float = 0.0
    ) -> np.ndarray:
        if dt == 0.0:
            return state
        if self._lptv:
            return self._advance_lptv(state, dt, current, t_start)
        ad, bd = self._discrete(dt, current)
        return ad @ state + bd

    @staticmethod
    def _phi(mu: complex, dt: float) -> complex:
        """``integral_0^dt e^{mu tau} d tau`` with the mu -> 0 limit."""
        if abs(mu) * dt < 1e-10:
            return dt * (1.0 + mu * dt / 2.0)
        return (np.exp(mu * dt) - 1.0) / mu

    @staticmethod
    def _phi_ramp(nu: complex, dt: float) -> complex:
        """``integral_0^dt tau e^{nu tau} d tau`` with the nu -> 0 limit."""
        if abs(nu) * dt < 1e-10:
            return dt**2 / 2.0 * (1.0 + 2.0 * nu * dt / 3.0)
        e = np.exp(nu * dt)
        return dt * e / nu - (e - 1.0) / nu**2

    def _advance_lptv(
        self, state: np.ndarray, dt: float, current: float, t_start: float
    ) -> np.ndarray:
        """Closed-form segment propagation for a time-varying ISF.

        Filter (eigenbasis): ``z_j(tau) = e^{l_j tau} z_j(0) + i b_j phi_j(tau)``.
        Phase:  ``theta += delta dt + sum_k v_k e^{j k w0 t0} *
        integral_0^dt e^{j k w0 tau} u(tau) d tau`` where ``u`` is an affine
        combination of exponentials/ramps — every integral is elementary.
        """
        n = self._n_filter
        x0 = state[:n].astype(complex)
        z0 = self._modal_inv @ x0
        lam = self._lam
        # Filter propagation.
        exp_l = np.exp(lam * dt)
        phi_l = np.array([self._phi(l, dt) for l in lam])
        z1 = exp_l * z0 + current * self._beta * phi_l
        x1 = self._modal @ z1
        # Phase increment.
        increment = 0.0 + 0.0j
        for vk, k in zip(self._isf_c, self._isf_k):
            if vk == 0:
                continue
            nu = 1j * k * self._omega0
            carrier = np.exp(nu * t_start)
            acc = self._d_filter * current * self._phi(nu, dt)
            for j in range(n):
                mu = lam[j] + nu
                acc += self._gamma[j] * z0[j] * self._phi(mu, dt)
                if abs(lam[j]) * dt < 1e-10:
                    # Integrator mode: phi_j(tau) ~ tau (+ O(lam tau^2)).
                    ramp = self._phi_ramp(nu, dt)
                    acc += self._gamma[j] * current * self._beta[j] * ramp
                else:
                    inner = (self._phi(mu, dt) - self._phi(nu, dt)) / lam[j]
                    acc += self._gamma[j] * current * self._beta[j] * inner
            increment += vk * carrier * acc
        out = state.copy()
        out[:n] = x1.real
        out[n] = state[n] + float(state[-1]) * dt + increment.real
        return out

    def theta_of(self, state: np.ndarray) -> float:
        """VCO phase (seconds) component of an augmented state."""
        return float(state[self._n_filter])

    def control_of(self, state: np.ndarray, current: float) -> float:
        """Control voltage ``u = C x + D i`` for a given pump current."""
        return float(self._c_filter @ state[: self._n_filter] + self._d_filter * current)

    def theta_rate_of(self, state: np.ndarray, current: float, t: float = 0.0) -> float:
        """Instantaneous ``d theta/dt = v(t) u + delta`` (``v0 u`` when LTI)."""
        u = self.control_of(state, current)
        if self._lptv:
            v_t = float(np.real(self.pll.vco.isf(t)))
            return v_t * u + float(state[-1])
        return self._v0 * u + float(state[-1])

    # -- one reference cycle of PFD/pump event logic -----------------------------------

    def _process_cycle(self, state, t_cur: float, n: int, advance):
        """Advance through reference cycle ``n``: edges, pulse, integration.

        ``advance(t_from, t_to, current, state) -> state`` performs the
        segment integration (the caller may record samples inside).  Returns
        ``(state, t_cur, t_ref, t_vco)``.

        Raises
        ------
        LockError
            On cycle slip or when an expected edge never arrives.
        """
        cfg = self.config
        period = self.period
        up_current = self.pll.charge_pump.up_current
        down_current = self.pll.charge_pump.down_current
        leakage = self.pll.charge_pump.leakage
        target = n * period
        t_ref = solve_reference_edge(self.theta_ref, target)

        def theta_eval(t: float, st=state, t0=t_cur, i=-leakage):
            return self.theta_of(self._advance(st, t - t0, i, t_start=t0))

        def rate_eval(t: float, st=state, t0=t_cur, i=-leakage):
            return self.theta_rate_of(self._advance(st, t - t0, i, t_start=t0), i, t=t)

        try:
            t_vco = solve_phase_crossing(theta_eval, rate_eval, target, t_cur, t_ref)
        except ValidationError as exc:
            raise LockError(f"cycle {n}: {exc}") from exc
        if t_vco is not None:
            # VCO leads: DOWN pulse from the VCO edge to the reference edge.
            state = advance(t_cur, t_vco, -leakage, state)
            state = advance(t_vco, t_ref, -down_current - leakage, state)
            t_cur = t_ref
        else:
            # Reference leads: UP pulse from the reference edge to the VCO edge.
            state = advance(t_cur, t_ref, -leakage, state)
            i_up = up_current - leakage
            horizon = t_ref + (0.5 + cfg.max_phase_error) * period

            def theta_on(t: float, st=state, t0=t_ref, i=i_up):
                return self.theta_of(self._advance(st, t - t0, i, t_start=t0))

            def rate_on(t: float, st=state, t0=t_ref, i=i_up):
                return self.theta_rate_of(self._advance(st, t - t0, i, t_start=t0), i, t=t)

            t_vco = solve_phase_crossing(theta_on, rate_on, target, t_ref, horizon)
            if t_vco is None:
                raise LockError(
                    f"cycle {n}: VCO edge did not arrive within the slip window; "
                    "loop has lost lock"
                )
            state = advance(t_ref, t_vco, i_up, state)
            t_cur = t_vco

        error = t_vco - t_ref
        if abs(error) > cfg.max_phase_error * period:
            raise LockError(
                f"cycle {n}: phase error {error:.3e} s exceeds the slip limit "
                f"{cfg.max_phase_error * period:.3e} s"
            )
        return state, t_cur, t_ref, t_vco

    # -- simulation ------------------------------------------------------------------

    def run(self) -> TransientResult:
        """Simulate ``config.cycles`` reference periods from the locked state.

        Raises
        ------
        LockError
            On a cycle slip (phase error beyond ``max_phase_error * T``) or
            when a pulse fails to terminate within one period.
        """
        cfg = self.config
        period = self.period
        dt = period / cfg.oversample
        total_samples = cfg.cycles * cfg.oversample
        times = np.empty(total_samples)
        theta_rec = np.empty(total_samples)
        control_rec = np.empty(total_samples)
        ref_edges = np.empty(cfg.cycles)
        vco_edges = np.empty(cfg.cycles)
        phase_errors = np.empty(cfg.cycles)
        intervals: list[PumpInterval] = []

        state = np.zeros(self._n_filter + 2)
        state[-1] = cfg.frequency_offset
        t_cur = 0.0
        sample_idx = 0
        next_sample = dt

        def advance_recording(t_from: float, t_to: float, current: float, st: np.ndarray):
            nonlocal sample_idx, next_sample
            t_pos = t_from
            while sample_idx < total_samples and next_sample <= t_to + 1e-15 * period:
                st = self._advance(st, next_sample - t_pos, current, t_start=t_pos)
                t_pos = next_sample
                times[sample_idx] = next_sample
                theta_rec[sample_idx] = self.theta_of(st)
                control_rec[sample_idx] = self.control_of(st, current)
                sample_idx += 1
                next_sample += dt
            return self._advance(st, t_to - t_pos, current, t_start=t_pos)

        leakage = self.pll.charge_pump.leakage

        for n in range(1, cfg.cycles + 1):
            if self.frequency_offset_fn is not None:
                state[-1] = cfg.frequency_offset + float(self.frequency_offset_fn(n))
            state, t_cur, t_ref, t_vco = self._process_cycle(
                state, t_cur, n, advance_recording
            )
            ref_edges[n - 1] = t_ref
            vco_edges[n - 1] = t_vco
            phase_errors[n - 1] = t_vco - t_ref  # = thetaref - theta at sampling
            if t_vco > t_ref:
                intervals.append(PumpInterval(t_ref, t_vco, PFDState.UP))
            elif t_ref > t_vco:
                intervals.append(PumpInterval(t_vco, t_ref, PFDState.DOWN))

        # Coast with the pump off to the end of the recording grid.
        end_time = cfg.cycles * period
        if t_cur < end_time or sample_idx < total_samples:
            state = advance_recording(t_cur, max(end_time, t_cur), -leakage, state)

        return TransientResult(
            times=times[:sample_idx],
            theta=theta_rec[:sample_idx],
            control=control_rec[:sample_idx],
            ref_edges=ref_edges,
            vco_edges=vco_edges,
            phase_errors=phase_errors,
            pump_intervals=intervals,
        )
