"""Monte-Carlo estimation of the secrecy metrics.

Draws are addressed by (seed, absolute trial index), so an estimate is
bit-identical for a fixed (seed, trials) no matter how trials are chunked or
scheduled, and every scheme evaluated at the same seed sees the same
channels.  Accumulation goes through exact compensated summation, which
keeps it order-insensitive at any trial count.

The quadrature oracles that check the closed forms are verification code,
so they live in tests/quadrature_reference.py, off the package's import path
(importing secrelay never loads scipy.integrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import policy
from .channel import draw_batch
from .model import MeanGains, SystemConfig, validate
from .policy import Scheme
from .specfun import q_function


class Metric(Enum):
    """What to estimate per trial.

    ESR: mean secrecy rate.  SOP: frequency of rate at or below the target
    (at target 0 this is the exact complement of PPOS).  PPOS: frequency of
    a strictly positive rate.  SER: mean of alpha*Q(sqrt(beta*gamma_D)),
    the semi-analytic symbol error rate conditioned on each draw.
    """

    ESR = "esr"
    SOP = "sop"
    SER = "ser"
    PPOS = "ppos"


@dataclass(frozen=True)
class MetricEstimate:
    metric: Metric
    scheme: Scheme
    value: float
    std_error: float
    trials: int


@dataclass(eq=False)
class SchemeTrace:
    """Per-trial operating points of one scheme: enough to derive every
    metric without re-simulating."""

    scheme: Scheme
    rates: np.ndarray
    gamma_d: np.ndarray

    @property
    def n_trials(self) -> int:
        return self.rates.size


def derive_seed(master_seed: int, index: int) -> int:
    """Per-grid-point seed: master XOR a bit-mixed index, so points are
    decorrelated but reproducible from the master seed alone."""
    if not (0 <= master_seed < 2**64 and index >= 0):
        raise ValueError("need a 64-bit master seed and index >= 0")
    return master_seed ^ _splitmix64(index)


def _splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def simulate(
    config: SystemConfig,
    gains: MeanGains,
    schemes: Sequence[Scheme],
    trials: int,
    seed: int | None = None,
    chunk_size: int = 2048,
) -> dict[Scheme, SchemeTrace]:
    """Run all schemes over the same `trials` channel draws.

    Trials are drawn in chunks of chunk_size; the result does not depend on
    the chunking.  seed defaults to config.master_seed.  Raises ConfigError
    for a config that model.validate refuses, and ArithmeticError when a
    scheme's rate or destination SINR is not finite (past about 1540 dB the
    SINR products overflow).
    """
    validate(config)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not schemes:
        raise ValueError("need at least one scheme")
    if chunk_size < 1:
        raise ValueError(f"need chunk_size >= 1, got {chunk_size}")
    if gains.n_relays != config.n_relays or gains.n_eves != config.n_eves:
        raise ValueError(
            f"gains are for K={gains.n_relays}, L={gains.n_eves} but config says "
            f"K={config.n_relays}, L={config.n_eves}"
        )
    seed = config.master_seed if seed is None else seed
    schemes = list(dict.fromkeys(schemes))
    out = {
        s: SchemeTrace(s, np.empty(trials), np.empty(trials)) for s in schemes
    }
    done = 0
    while done < trials:
        m = min(chunk_size, trials - done)
        batch = draw_batch(gains, config, seed, done, m)
        for s in schemes:
            res = policy.run_scheme_batch(batch, s, config)
            if not (np.isfinite(res.rate).all() and np.isfinite(res.gamma_d).all()):
                raise ArithmeticError(
                    f"{s.value}: non-finite rate or destination SINR in trials "
                    f"{done}-{done + m - 1} at snr_linear={config.snr_linear:g}")
            out[s].rates[done : done + m] = res.rate
            out[s].gamma_d[done : done + m] = res.gamma_d
        done += m
    return out


def _per_trial(metric: Metric, trace: SchemeTrace, config: SystemConfig) -> np.ndarray:
    if metric is Metric.ESR:
        return trace.rates
    if metric is Metric.PPOS:
        return (trace.rates > 0.0).astype(float)
    if metric is Metric.SOP:
        # "at or below": makes SOP at target 0 the exact complement of PPOS.
        return (trace.rates <= config.target_rate).astype(float)
    if metric is Metric.SER:
        mod = config.modulation
        return mod.alpha_m * q_function(np.sqrt(mod.beta_m * trace.gamma_d))
    raise ValueError(f"unknown metric {metric!r}")


def estimate_from_trace(
    metric: Metric, trace: SchemeTrace, config: SystemConfig
) -> MetricEstimate:
    """Reduce a stored trace to one metric estimate with its standard error."""
    x = _per_trial(metric, trace, config)
    n = x.size
    mean = math.fsum(x) / n
    var = math.fsum((x - mean) ** 2) / (n - 1) if n > 1 else 0.0
    return MetricEstimate(
        metric=metric,
        scheme=trace.scheme,
        value=mean,
        std_error=math.sqrt(max(var, 0.0) / n),
        trials=n,
    )


def estimate(
    metric: Metric,
    scheme: Scheme,
    config: SystemConfig,
    gains: MeanGains,
    trials: int,
    seed: int | None = None,
) -> MetricEstimate:
    """Simulate one scheme and reduce to one metric."""
    trace = simulate(config, gains, [scheme], trials, seed)[scheme]
    return estimate_from_trace(metric, trace, config)


def sweep(
    metric: Metric,
    scheme: Scheme | Sequence[Scheme],
    config: SystemConfig,
    gains: MeanGains,
    rho_grid_db: Sequence[float],
    trials: int,
    seed: int | None = None,
):
    """Estimate a metric over a transmit-SNR grid (dB).

    Each grid point runs on its own derived seed; the draws at a point depend
    only on (seed, point index), so separate sweeps with the same master seed
    see matched channels scheme-for-scheme.  With a single scheme returns
    [(rho_db, MetricEstimate), ...]; with a scheme list, estimates come as a
    dict per point evaluated on shared draws.
    """
    single = isinstance(scheme, Scheme)
    schemes = [scheme] if single else list(scheme)
    if not schemes:
        raise ValueError("need at least one scheme")
    grid = list(rho_grid_db)
    if not grid:
        raise ValueError("need a non-empty rho grid")
    master = config.master_seed if seed is None else seed
    out = []
    for i, rho_db in enumerate(grid):
        cfg = config.with_snr_db(rho_db)
        traces = simulate(cfg, gains, schemes, trials, derive_seed(master, i))
        ests = {s: estimate_from_trace(metric, traces[s], cfg) for s in schemes}
        out.append((rho_db, ests[scheme]) if single else (rho_db, ests))
    return out

