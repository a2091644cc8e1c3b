"""Synthetic epidemic observations: exact-event paths resampled to a grid.

The observation file format is one header line "# N=<n>" followed by one
record per line, "<time> <bitstring>", the bitstring holding one 0/1
character per node with node 1 leftmost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generator import ModelParams, reaction_rates
from .graphs import Network

__all__ = [
    "EventTrajectory",
    "ObservationSeries",
    "simulate_epidemic",
    "resample_uniform",
    "parse_observations",
    "serialize_observations",
]


@dataclass
class EventTrajectory:
    """Exact-event path: initial state plus one (time, node, new value) per jump."""

    initial_state: np.ndarray
    times: np.ndarray
    nodes: np.ndarray
    values: np.ndarray
    t_max: float

    @property
    def n_events(self) -> int:
        return len(self.times)


@dataclass
class ObservationSeries:
    """Time-ordered nodal state records; row k of states belongs to times[k]."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=np.uint8)
        if self.states.ndim != 2 or len(self.times) != len(self.states):
            raise ValueError("times and states disagree")
        if not np.isfinite(self.times).all():
            raise ValueError("times must be finite")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.isin(self.states, (0, 1)).all():
            raise ValueError("states must be binary")

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1


def _check_states(net: Network, *states) -> list:
    """The states as uint8 arrays; each must be a 0/1 vector of length N."""
    checked = []
    for x in states:
        x = np.asarray(x)
        if x.shape != (net.n_nodes,) or not np.isin(x, (0, 1)).all():
            raise ValueError(
                f"state {x.tolist()} is not a 0/1 vector of length {net.n_nodes}")
        checked.append(x.astype(np.uint8))
    return checked


def _jump_events(net: Network, params: ModelParams, x, t_max, rng):
    """Gillespie kernel: flip x in place at each jump before t_max.

    Yields (time, node) after every jump.  Exponential waiting times by
    inverse CDF, reaction selection by cumulative rate scan; the draw that
    crosses t_max is the last one taken.
    """
    t = 0.0
    while True:
        rates = reaction_rates(x, net, params)
        total = rates.sum()
        t += -math.log(rng.random()) / total
        if t >= t_max:
            return
        cum = np.cumsum(rates)
        node = int(np.searchsorted(cum, rng.random() * total, side="right"))
        node = min(node, len(x) - 1)
        x[node] ^= 1
        yield t, node


def simulate_epidemic(net: Network, params: ModelParams, x0, t_max,
                      rng) -> EventTrajectory:
    """Exact-event simulation of the epidemic jump process up to t_max."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    x0 = _check_states(net, x0)[0]
    x = x0.copy()
    times, nodes, values = [], [], []
    for t, node in _jump_events(net, params, x, t_max, rng):
        times.append(t)
        nodes.append(node)
        values.append(int(x[node]))
    return EventTrajectory(
        initial_state=x0,
        times=np.array(times),
        nodes=np.array(nodes, dtype=int),
        values=np.array(values, dtype=np.uint8),
        t_max=float(t_max),
    )


def resample_uniform(traj: EventTrajectory, tau, t_max) -> ObservationSeries:
    """States on the grid k*tau, k = 0..floor(t_max/tau).

    Sampling is right-continuous: a record at exactly an event time shows
    the post-event state.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    n_intervals = int(math.floor(t_max / tau + 1e-9))
    times = np.arange(n_intervals + 1) * tau
    states = np.empty((n_intervals + 1, len(traj.initial_state)), dtype=np.uint8)
    x = traj.initial_state.copy()
    ev = 0
    for k, t in enumerate(times):
        while ev < traj.n_events and traj.times[ev] <= t:
            x[traj.nodes[ev]] = traj.values[ev]
            ev += 1
        states[k] = x
    return ObservationSeries(times=times, states=states)


def serialize_observations(obs: ObservationSeries) -> str:
    lines = [f"# N={obs.n_nodes}"]
    for t, row in zip(obs.times, obs.states):
        lines.append(f"{t:.10g} " + "".join(str(int(b)) for b in row))
    return "\n".join(lines) + "\n"


def parse_observations(text: str) -> ObservationSeries:
    n_nodes = None
    times, states = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if n_nodes is None:
                payload = line.lstrip("#").strip()
                if not payload.startswith("N="):
                    raise ValueError(f"line {lineno}: expected '# N=<n>' header")
                try:
                    n_nodes = int(payload[2:])
                except ValueError:
                    raise ValueError(f"line {lineno}: bad node count in header") from None
            continue
        if n_nodes is None:
            raise ValueError("missing '# N=<n>' header")
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<time> <bits>', got {line!r}")
        try:
            t = float(fields[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad time {fields[0]!r}") from None
        if not math.isfinite(t):
            raise ValueError(f"line {lineno}: non-finite time")
        bits = fields[1]
        if len(bits) != n_nodes:
            raise ValueError(
                f"line {lineno}: bit string length {len(bits)} != N={n_nodes}")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"line {lineno}: bit string must be 0/1, got {bits!r}")
        if times and t <= times[-1]:
            raise ValueError(f"line {lineno}: times must be strictly increasing")
        times.append(t)
        states.append([int(c) for c in bits])
    if n_nodes is None:
        raise ValueError("missing '# N=<n>' header")
    if not times:
        raise ValueError("no records in observation file")
    return ObservationSeries(times=np.array(times), states=np.array(states, dtype=np.uint8))
