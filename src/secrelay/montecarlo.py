"""Monte-Carlo estimation of the secrecy metrics.

Draws are addressed by (seed, absolute trial index), so an estimate is
bit-identical for a fixed (seed, trials) no matter how trials are chunked or
scheduled, and every scheme evaluated at the same seed sees the same
channels.  The draws do not depend on the eavesdropper model, and depend on
the transmit SNR only through a final scaling, so `simulate` runs every
listed (model, SNR) operating point on each chunk drawn once (common random
numbers across the SNR grid), with the same traces as one run per point.
It stacks a chunk's SNR points, as many as fit in chunk_size rows, into one
batch, so each scheme runs once per stack rather than once per SNR; the
schemes work row by row, so stacking changes no trace.
Accumulation goes through exact compensated summation, which keeps it
order-insensitive at any trial count.

Importing this module loads no scipy: `scipy.special` loads at the first
simulated draw (channel's inverse gamma CDF) or the first SER reduction
(specfun.q_function).  The quadrature oracles that check the closed forms
are verification code, so they live in tests/quadrature_reference.py, off
the package's import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import policy
from .channel import draw_batch
from .model import _U64_MAX, EveModel, MeanGains, SystemConfig, _check_count, validate
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
    """Child seed of a grid position: master XOR a bit-mixed index, so
    positions are decorrelated but reproducible from the master seed alone."""
    _check_count("master_seed", master_seed, 0, _U64_MAX)
    _check_count("index", index, 0)
    return int(master_seed) ^ _splitmix64(int(index))


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
    points: Sequence[tuple[EveModel, float]] | None = None,
) -> dict[Scheme, SchemeTrace] | dict[tuple[EveModel, float], dict[Scheme, SchemeTrace]]:
    """Run all schemes over the same `trials` channel draws.

    Trials are drawn in chunks of chunk_size; the result does not depend on
    the chunking.  seed defaults to config.master_seed.  Raises ConfigError
    for a config that model.validate refuses, which includes every SNR past
    model.MAX_SNR_DB (200 dB), well before the SINR products overflow; and
    ArithmeticError, as a last guard, when a scheme's rate, destination SINR
    or leakage SINR is not finite, naming the scheme, trials, SNR and model
    of the first such point in (SNR, model, scheme) order.

    With points, a list of (eve model, snr_linear) operating points,
    config.eve_model and config.snr_linear are ignored: each chunk of n
    trials is drawn once, by draw_batch at the first point's SNR, and its
    SNRs, in order of first appearance, are taken floor(chunk_size / n) at
    a time.  BatchDraws.at_snr stacks each such group of the chunk's draws
    into one batch, SNR-major, and every model listed at one of the group's
    SNRs runs each scheme once on it.  So chunk_size bounds the rows of
    every scheme call as well as the trials of every draw, and a chunk of
    more than chunk_size / 2 trials runs one SNR per call.  The result is
    {(model, snr_linear): {scheme: trace}}, keyed in the order of points,
    and result[m, rho] is bit-identical to simulate(replace(config,
    eve_model=m, snr_linear=rho), ...) alone at the same seed.
    """
    keys = [(config.eve_model, config.snr_linear)] if points is None else points
    if not keys:
        raise ValueError("need at least one operating point")
    for m, rho in keys:
        validate(replace(config, eve_model=m, snr_linear=rho))
    _check_count("trials", trials, 1)
    _check_count("chunk_size", chunk_size, 1)
    if not schemes:
        raise ValueError("need at least one scheme")
    if gains.n_relays != config.n_relays or gains.n_eves != config.n_eves:
        raise ValueError(
            f"gains are for K={gains.n_relays}, L={gains.n_eves} but config says "
            f"K={config.n_relays}, L={config.n_eves}"
        )
    seed = config.master_seed if seed is None else seed
    schemes = list(dict.fromkeys(schemes))
    out = {
        key: {s: SchemeTrace(s, np.empty(trials), np.empty(trials)) for s in schemes}
        for key in keys
    }
    # The models at each SNR, the first point's SNR first, so every model
    # at one SNR reads one batch (and the split searches it stores).
    by_snr: dict[float, list[EveModel]] = {}
    for m, rho in out:
        by_snr.setdefault(rho, []).append(m)
    snrs = list(by_snr)
    first = replace(config, eve_model=keys[0][0], snr_linear=snrs[0])
    done = 0
    while done < trials:
        n = min(chunk_size, trials - done)
        per_batch = chunk_size // n
        drawn = draw_batch(gains, first, seed, done, n)
        for lo in range(0, len(snrs), per_batch):
            rhos = snrs[lo : lo + per_batch]
            # The drawn batch is already at the first SNR.
            batch = drawn if rhos == snrs[:1] else drawn.at_snr(rhos)
            # Each model listed at any of the stack's SNRs runs each scheme
            # once; a scheme reads only the config's eve_model.
            res = {}
            for m in dict.fromkeys(m for rho in rhos for m in by_snr[rho]):
                cfg = replace(config, eve_model=m)
                for s in schemes:
                    res[m, s] = policy.run_scheme_batch(batch, s, cfg)
            # Block j of each result is the j-th SNR.  Walking in (SNR,
            # model, scheme) order meets the first non-finite point as a run
            # of one SNR per batch would.
            for j, rho in enumerate(rhos):
                block = slice(j * n, (j + 1) * n)
                for m in by_snr[rho]:
                    for s in schemes:
                        r = res[m, s]
                        rate, gamma_d = r.rate[block], r.gamma_d[block]
                        for what, values in (("rate or destination SINR", (rate, gamma_d)),
                                             ("leakage SINR", (r.gamma_e[block],))):
                            if not all(np.isfinite(v).all() for v in values):
                                raise ArithmeticError(
                                    f"{s.value}: non-finite {what} in trials "
                                    f"{done}-{done + n - 1} at snr_linear={rho:g} "
                                    f"under {m.value}")
                        out[m, rho][s].rates[done : done + n] = rate
                        out[m, rho][s].gamma_d[done : done + n] = gamma_d
        done += n
    return out if points is not None else out[keys[0]]


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
    # math.fsum reads the arrays through their buffers, with no list copy,
    # and is itself most of the reduction's cost: the two sums take
    # about 4.5 of 7.4 ms a sim-schemes round, a median 17 us for an ESR
    # row and 19 us for an SER row of 300 trials (one Xeon core).
    mean = math.fsum(memoryview(x)) / n
    var = math.fsum(memoryview((x - mean) ** 2)) / (n - 1) if n > 1 else 0.0
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

    The whole grid runs on one simulate call, so on one set of draws
    rescaled to each SNR (common random numbers), seeded
    derive_seed(master, 0) with master = seed or config.master_seed.  The
    estimate at rho_db equals one simulated at that SNR alone from that
    seed, and separate sweeps with the same master seed see matched
    channels scheme-for-scheme.  With a single scheme returns
    [(rho_db, MetricEstimate), ...]; with a scheme list, estimates come as a
    dict per point evaluated on shared draws.
    """
    single = isinstance(scheme, Scheme)
    schemes = [scheme] if single else list(scheme)
    grid = list(rho_grid_db)
    master = config.master_seed if seed is None else seed
    cfgs = [config.with_snr_db(rho_db) for rho_db in grid]
    keys = [(cfg.eve_model, cfg.snr_linear) for cfg in cfgs]
    traces = simulate(config, gains, schemes, trials, derive_seed(master, 0), points=keys)
    out = []
    for rho_db, cfg, key in zip(grid, cfgs, keys):
        ests = {s: estimate_from_trace(metric, traces[key][s], cfg) for s in schemes}
        out.append((rho_db, ests[scheme]) if single else (rho_db, ests))
    return out
