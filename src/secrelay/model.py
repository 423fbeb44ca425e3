"""System configuration, node layout, and average channel gains.

The network has one multi-antenna source, one destination, K single-antenna
untrusted amplify-and-forward relays and L passive eavesdroppers.  Average
link gains follow distance-based path loss mu = d**(-path_loss_exp); the
instantaneous fading on top of them is Rayleigh (see channel.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

# The ESR's power offset, the SER and the collusion DT bound enumerate all
# 2**K - 1 non-empty relay subsets.
from .specfun import MAX_SUBSET_NODES as MAX_RELAYS

# Largest transmit SNR that validate accepts: 200 dB, far past any figure
# (60 dB).  The relayed SINRs multiply two gains that each scale with rho, so
# their products reach the float ceiling near rho**2 ~ 1e300 (about 1500 dB;
# sooner for strong mean gains, and sooner still in the split search's
# leakage products).  The NaN that results steers the search to a wrong rate
# without raising, so the box stops far short of it: rho**2 <= 1e40.
MAX_SNR_DB = 200.0
MAX_SNR_LINEAR = 10.0 ** (MAX_SNR_DB / 10.0)

# Seeds and trial indices key a Philox stream, so each fits in 64 bits.
_U64_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Invalid system configuration."""


class TopologyError(ValueError):
    """Degenerate node layout (zero-length modeled link, bad exponent)."""


def _check_count(name: str, value, lo: int, hi: float = math.inf, error=ValueError) -> None:
    """The one rule for every count, seed and index: an int or numpy integer,
    never a bool, in [lo, hi].  Raises error with a message led by name."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= hi:
        return
    span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    raise error(f"{name} must be an integer {span}, got {value!r}")


class EveModel(Enum):
    """Eavesdropper decoding model.

    NCE: nodes decode independently, the leakage is the strongest single
    observation.  CE: the L external eavesdroppers pool their observations
    (maximum-ratio combining over both protocol phases) while the untrusted
    relays still act alone.
    """

    NCE = "nce"
    CE = "ce"


def _check_eve_model(name: str, value, error=ValueError) -> None:
    """The one rule for an eavesdropper model: an EveModel member, never its
    name or None.  Raises error with a message led by name."""
    if not isinstance(value, EveModel):
        raise error(f"{name} must be an EveModel, got {value!r}")


@dataclass(frozen=True)
class Modulation:
    """Coherent modulation with SER(snr) ~= alpha_m * Q(sqrt(beta_m * snr))."""

    alpha_m: float
    beta_m: float
    name: str = "custom"

    @classmethod
    def qam(cls, order: int) -> "Modulation":
        """Square M-QAM: alpha = 4(1 - 1/sqrt(M)), beta = 3/(M - 1)."""
        _check_count("order", order, 4, error=ConfigError)
        if math.isqrt(order) ** 2 != order:
            raise ConfigError(f"qam order must be a square, got {order}")
        root = math.sqrt(order)
        return cls(4.0 * (1.0 - 1.0 / root), 3.0 / (order - 1), f"qam{order}")

    @classmethod
    def psk(cls, order: int) -> "Modulation":
        """M-PSK for M >= 4: alpha = 2, beta = 2 sin^2(pi/M)."""
        _check_count("order", order, 4, error=ConfigError)
        name = "qpsk" if order == 4 else f"psk{order}"
        return cls(2.0, 2.0 * math.sin(math.pi / order) ** 2, name)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    snr_linear is the transmit SNR rho = P/sigma^2 in linear scale; anything
    user-facing (CLI, sweeps) speaks dB and converts at the boundary.
    Construction is permissive; call validate() before using a config.  It
    accepts snr_linear in (0, MAX_SNR_LINEAR], that is up to 200 dB.
    """

    n_antennas: int
    n_relays: int
    n_eves: int
    snr_linear: float
    target_rate: float = 1.0
    eve_model: EveModel = EveModel.NCE
    modulation: Modulation = field(default_factory=lambda: Modulation.psk(4))
    master_seed: int = 0

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """This config at transmit SNR snr_db; inf past the float range
        (which validate refuses, like the 0 that a very negative dB gives)."""
        try:
            snr = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            snr = math.inf
        return replace(self, snr_linear=snr)


def _config_problems(config: SystemConfig) -> dict[str, str]:
    """Every failed config invariant as {field: message}, in field order, each
    message led by its field; counts must be integers, never bools."""
    problems = {}
    for name, lo, hi in (("n_antennas", 1, math.inf), ("n_relays", 1, math.inf),
                         ("n_eves", 0, math.inf), ("master_seed", 0, _U64_MAX)):
        try:
            _check_count(name, getattr(config, name), lo, hi, ConfigError)
            if name == "n_relays" and config.n_relays > MAX_RELAYS:
                raise ConfigError(f"n_relays={config.n_relays} exceeds {MAX_RELAYS}: closed forms "
                                  f"enumerate 2^K - 1 relay subsets and would explode")
        except ConfigError as err:
            problems[name] = str(err)
    if not (math.isfinite(config.snr_linear) and config.snr_linear > 0):
        problems["snr_linear"] = f"snr_linear must be positive and finite, got {config.snr_linear}"
    elif config.snr_linear > MAX_SNR_LINEAR:
        problems["snr_linear"] = (f"snr_linear must be <= {MAX_SNR_LINEAR:g} ({MAX_SNR_DB:g} dB), "
                                  f"got {config.snr_linear:g}")
    if not (math.isfinite(config.target_rate) and config.target_rate >= 0):
        problems["target_rate"] = f"target_rate must be >= 0, got {config.target_rate}"
    try:
        _check_eve_model("eve_model", config.eve_model, ConfigError)
    except ConfigError as err:
        problems["eve_model"] = str(err)
    mod = config.modulation
    if not (mod.alpha_m > 0 and mod.beta_m > 0):
        problems["modulation"] = f"modulation needs alpha_m, beta_m > 0, got {mod}"
    return problems


def validate(config: SystemConfig) -> None:
    """Raise one ConfigError whose message joins every problem that
    _config_problems finds by "; "; return None when the config is valid."""
    problems = _config_problems(config)
    if problems:
        raise ConfigError("; ".join(problems.values()))


@dataclass(frozen=True)
class Topology:
    """Planar node positions. Relays and eavesdroppers are the malicious set."""

    source_pos: tuple[float, float]
    dest_pos: tuple[float, float]
    relay_pos: tuple[tuple[float, float], ...]
    eve_pos: tuple[tuple[float, float], ...] = ()
    path_loss_exp: float = 3.0

    @property
    def n_relays(self) -> int:
        return len(self.relay_pos)

    @property
    def n_eves(self) -> int:
        return len(self.eve_pos)


def paper_topology(
    n_relays: int,
    n_eves: int,
    relay_ring: float = 0.02,
    eve_ring: float = 0.03,
    path_loss_exp: float = 3.0,
) -> Topology:
    """Reference layout: source (-1,0), destination (0,0), relay cluster at (1,0).

    Relays sit on a small ring of radius relay_ring around (1,0) (a single
    relay sits exactly at (1,0)); eavesdroppers sit on a slightly larger ring
    around the same center, i.e. right next to the relays, which is their
    worst-case placement.  The rings keep every modeled pairwise link at a
    strictly positive distance.
    """
    _check_count("n_relays", n_relays, 1, error=TopologyError)
    _check_count("n_eves", n_eves, 0, error=TopologyError)
    for name, ring in (("relay_ring", relay_ring), ("eve_ring", eve_ring)):
        if not math.isfinite(ring):
            raise TopologyError(f"{name} must be finite, got {ring}")
    center = np.array([1.0, 0.0])
    if n_relays == 1:
        relays = [center.copy()]
    else:
        ang = 2.0 * np.pi * np.arange(n_relays) / n_relays
        relays = [center + relay_ring * np.array([np.cos(a), np.sin(a)]) for a in ang]
    ang = 2.0 * np.pi * (np.arange(n_eves) + 0.5) / max(n_eves, 1)
    eves = [center + eve_ring * np.array([np.cos(a), np.sin(a)]) for a in ang[:n_eves]]
    return Topology(
        source_pos=(-1.0, 0.0),
        dest_pos=(0.0, 0.0),
        relay_pos=tuple((float(p[0]), float(p[1])) for p in relays),
        eve_pos=tuple((float(p[0]), float(p[1])) for p in eves),
        path_loss_exp=path_loss_exp,
    )


@dataclass(frozen=True, eq=False)
class MeanGains:
    """Average (path-loss) gains for every modeled link.

    mu_sr, mu_rd: per-relay source->relay / relay->destination gains.
    mu_se, mu_ed: per-eavesdropper source->eve / destination->eve gains.
    mu_sd: source->destination gain.
    mu_rl: (K, K+L) inter-malicious gains, row = candidate relay, columns =
        relays then eavesdroppers; the diagonal self entries are zero and
        never drawn.  These only shape the second-phase overhearing channel.

    Average SNRs scale linearly with the transmit SNR: gbar = rho * mu.
    """

    mu_sr: np.ndarray
    mu_rd: np.ndarray
    mu_se: np.ndarray
    mu_ed: np.ndarray
    mu_sd: float
    mu_rl: np.ndarray | None = None

    def __post_init__(self):
        for name in ("mu_sr", "mu_rd", "mu_se", "mu_ed"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if arr.size and not (np.isfinite(arr).all() and (arr > 0).all()):
                raise ValueError(f"{name} entries must be positive and finite")
        if len(self.mu_sr) != len(self.mu_rd):
            raise ValueError("mu_sr and mu_rd must have one entry per relay")
        if len(self.mu_se) != len(self.mu_ed):
            raise ValueError("mu_se and mu_ed must have one entry per eavesdropper")
        if not (math.isfinite(self.mu_sd) and self.mu_sd > 0):
            raise ValueError(f"mu_sd must be positive and finite, got {self.mu_sd}")
        k, l = self.n_relays, self.n_eves
        self_link = np.eye(k, k + l, dtype=bool)
        if self.mu_rl is None:
            mu_rl = np.where(self_link, 0.0, 1.0)
        else:
            mu_rl = np.asarray(self.mu_rl, dtype=float)
        object.__setattr__(self, "mu_rl", mu_rl)
        if mu_rl.shape != (k, k + l):
            raise ValueError(f"mu_rl must have shape ({k}, {k + l}), got {mu_rl.shape}")
        if not (np.isfinite(mu_rl).all() and (mu_rl[~self_link] > 0).all()):
            raise ValueError("off-diagonal mu_rl entries must be positive and finite")

    @property
    def n_relays(self) -> int:
        return len(self.mu_sr)

    @property
    def n_eves(self) -> int:
        return len(self.mu_se)

    @classmethod
    def iid(
        cls,
        n_relays: int,
        n_eves: int,
        mu_sr: float = 1.0,
        mu_rd: float = 1.0,
        mu_se: float = 1.0,
        mu_ed: float = 1.0,
        mu_sd: float = 1.0,
        mu_rl: float = 1.0,
    ) -> "MeanGains":
        """Gains with identical statistics per relay / per eavesdropper."""
        k, l = n_relays, n_eves
        return cls(
            mu_sr=np.full(k, mu_sr),
            mu_rd=np.full(k, mu_rd),
            mu_se=np.full(l, mu_se),
            mu_ed=np.full(l, mu_ed),
            mu_sd=mu_sd,
            mu_rl=np.where(np.eye(k, k + l, dtype=bool), 0.0, mu_rl),
        )

    # Every closed form scales its means by rho through these three, so they
    # hold its one check: rho must be positive and finite.
    def gbar_rd(self, rho: float) -> np.ndarray:
        """Average relay->destination SNRs at transmit SNR rho."""
        return _transmit_snr(rho) * self.mu_rd

    def gbar_sd(self, rho: float) -> float:
        return _transmit_snr(rho) * self.mu_sd

    def leak_means_dt(self, rho: float) -> np.ndarray:
        """Average beamformer-leakage SNRs toward all K+L malicious nodes
        under direct transmission (relays first, then eavesdroppers)."""
        return _transmit_snr(rho) * np.concatenate([self.mu_sr, self.mu_se])


def _transmit_snr(rho: float) -> float:
    if not 0.0 < rho < math.inf:
        raise ValueError(f"transmit SNR rho must be positive and finite, got {rho}")
    return rho


def mean_gains_from_topology(topology: Topology) -> MeanGains:
    """Distance-based path loss mu = d**(-alpha) on every modeled link.

    Modeled links: source to every other node, destination to every relay and
    eavesdropper, and each relay to every other malicious node.  Two
    eavesdroppers may share a position (they never talk to each other), but
    any other coincidence is degenerate.
    """
    alpha = topology.path_loss_exp
    if not (math.isfinite(alpha) and alpha > 0):
        raise TopologyError(f"path_loss_exp must be positive, got {alpha}")
    src = np.asarray(topology.source_pos, dtype=float)
    dst = np.asarray(topology.dest_pos, dtype=float)
    relays = np.asarray(topology.relay_pos, dtype=float).reshape(-1, 2)
    eves = np.asarray(topology.eve_pos, dtype=float).reshape(-1, 2)
    k, l = len(relays), len(eves)
    if k < 1:
        raise TopologyError("topology needs at least one relay")

    # Both ends of every modeled link, in the order the gains are listed:
    # source-relay, dest-relay, source-eve, dest-eve, source-dest, then
    # relay i to node j != i row by row.  One hypot call over all of them.
    malicious = np.concatenate([relays, eves]) if l else relays
    ri, nj = np.nonzero(~np.eye(k, k + l, dtype=bool))
    one = np.concatenate([
        np.broadcast_to(src, (k, 2)), np.broadcast_to(dst, (k, 2)),
        np.broadcast_to(src, (l, 2)), np.broadcast_to(dst, (l, 2)), src[None], relays[ri],
    ])
    other = np.concatenate([relays, relays, eves, eves, dst[None], malicious[nj]])
    diff = one - other
    dist = np.hypot(diff[:, 0], diff[:, 1])
    bad = np.flatnonzero(dist <= 0.0)
    if bad.size:
        names = [
            *(f"source-relay{i}" for i in range(k)), *(f"relay{i}-dest" for i in range(k)),
            *(f"source-eve{j}" for j in range(l)), *(f"eve{j}-dest" for j in range(l)),
            "source-dest", *(f"relay{i}-node{j}" for i, j in zip(ri, nj)),
        ]
        raise TopologyError(f"zero distance on modeled link: {names[bad[0]]}")
    # Python's float power, per element: np.power can differ in the last bit.
    mu = np.array([x ** (-alpha) for x in dist.tolist()])
    mu_sr, mu_rd, mu_se, mu_ed, mu_sd, rl = np.split(mu, np.cumsum([k, k, l, l, 1]))
    mu_sd = float(mu_sd[0])
    mu_rl = np.zeros((k, k + l))
    mu_rl[ri, nj] = rl
    return MeanGains(mu_sr=mu_sr, mu_rd=mu_rd, mu_se=mu_se, mu_ed=mu_ed, mu_sd=mu_sd, mu_rl=mu_rl)
