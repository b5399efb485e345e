"""RSSI-distance model and multilateration for locating peers.

A log-distance path-loss model maps RSSI to range estimates; a Gauss-Newton
least-squares solver combines ranges from several observers of known position
into a location estimate. `locate_and_verify` ties both to the topology
store: it estimates a payload sender's position from the node's own smoothed
measurement plus peer measurements extracted from BFT messages, and checks
the estimate against the location the payload was signed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .messages import (
    Location,
    NodeId,
    PayloadMessage,
    RSSI_MAX,
    RSSI_MIN,
    Rssi,
    location_key,
    quantize_location,
)
from .topology import LinkKey, TopologyStore

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import ProtocolParams


class InsufficientAnchorsError(ValueError):
    """Too few observations for the requested solve."""


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance propagation: p0 dBm at d0 metres, exponent n."""

    p0: float = -40.0
    n: float = 2.0
    d0: float = 1.0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.d0 <= 0:
            raise ValueError("need n > 0 and d0 > 0")


@dataclass(frozen=True)
class AnchorObservation:
    """One observer of known position and its RSSI reading of the target."""

    anchor: Location
    rssi: Rssi


def rssi_value_from_distance(m: PathLossModel, d: float) -> float:
    """Model RSSI at range `d` as a plain float, clamped into the dB range."""
    if d <= 0:
        raise ValueError("distance must be positive")
    raw = m.p0 - 10.0 * m.n * math.log10(d / m.d0)
    return min(RSSI_MAX, max(RSSI_MIN, raw))


def rssi_from_distance(m: PathLossModel, d: float) -> Rssi:
    """Model RSSI at range `d`, clamped into the representable dB range."""
    return Rssi(rssi_value_from_distance(m, d))


def distance_from_rssi(m: PathLossModel, r: Rssi) -> float:
    """Invert the path-loss model (exact inverse within the unclamped range)."""
    return m.d0 * 10.0 ** ((m.p0 - r.value) / (10.0 * m.n))


@dataclass(frozen=True)
class MultilaterationResult:
    position: Location
    residual: float  # RMS range misfit in metres
    converged: bool
    iterations: int
    gdop: float = 0.0  # geometric dilution of precision at the solution


def _solve_spd(a: list[list[float]], g: list[float]) -> Optional[list[float]]:
    """Solve the 2x2 or 3x3 normal-equation system via determinants."""
    if len(g) == 2:
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if abs(det) < 1e-300:
            return None
        return [
            (g[0] * a[1][1] - g[1] * a[0][1]) / det,
            (a[0][0] * g[1] - a[1][0] * g[0]) / det,
        ]
    c00 = a[1][1] * a[2][2] - a[1][2] * a[2][1]
    c01 = a[1][2] * a[2][0] - a[1][0] * a[2][2]
    c02 = a[1][0] * a[2][1] - a[1][1] * a[2][0]
    det = a[0][0] * c00 + a[0][1] * c01 + a[0][2] * c02
    if abs(det) < 1e-300:
        return None
    c10 = a[0][2] * a[2][1] - a[0][1] * a[2][2]
    c11 = a[0][0] * a[2][2] - a[0][2] * a[2][0]
    c12 = a[0][1] * a[2][0] - a[0][0] * a[2][1]
    c20 = a[0][1] * a[1][2] - a[0][2] * a[1][1]
    c21 = a[0][2] * a[1][0] - a[0][0] * a[1][2]
    c22 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return [
        (g[0] * c00 + g[1] * c10 + g[2] * c20) / det,
        (g[0] * c01 + g[1] * c11 + g[2] * c21) / det,
        (g[0] * c02 + g[1] * c12 + g[2] * c22) / det,
    ]


def _inverse_trace(a: list[list[float]]) -> float:
    """trace(A^-1) for the 2x2 or 3x3 normal matrix; inf when singular."""
    if len(a) == 2:
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if abs(det) < 1e-300:
            return math.inf
        return (a[1][1] + a[0][0]) / det
    c00 = a[1][1] * a[2][2] - a[1][2] * a[2][1]
    c11 = a[0][0] * a[2][2] - a[0][2] * a[2][0]
    c22 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    det = (
        a[0][0] * c00
        + a[0][1] * (a[1][2] * a[2][0] - a[1][0] * a[2][2])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    if abs(det) < 1e-300:
        return math.inf
    return (c00 + c11 + c22) / det


def multilaterate(
    obs: list[AnchorObservation],
    m: PathLossModel,
    fixed_z: Optional[float] = None,
    max_iterations: int = 50,
    step_tol: float = 1e-9,
) -> MultilaterationResult:
    """Estimate the target position from anchor RSSI observations.

    Needs four observations for a full 3-D solve, or three when `fixed_z`
    pins the height (planar fallback). A damped Gauss-Newton (Levenberg)
    iteration starts from the anchor centroid and minimizes the sum of
    squared range residuals (estimated distance minus model distance per
    anchor). Non-convergence returns the best iterate, flagged via
    `converged`. The result carries the RMS misfit and the geometric dilution
    of precision, which callers use to reject low-confidence solutions.
    """
    planar = fixed_z is not None
    needed = 3 if planar else 4
    if len(obs) < needed:
        raise InsufficientAnchorsError(
            f"{len(obs)} observations, need {needed} for {'planar' if planar else '3-D'} solve"
        )

    anchors = [o.anchor.as_tuple() for o in obs]
    dists = [distance_from_rssi(m, o.rssi) for o in obs]
    count = len(obs)
    dim = 2 if planar else 3
    x = [sum(p[i] for p in anchors) / count for i in range(dim)]

    # The sweeps below are the dim x dim accumulation loop written out per
    # entry. Every accumulator starts at 0.0 and adds in anchor order, so the
    # sums are bit-for-bit those of the loop; a[j][i] is the same product as
    # a[i][j] because float multiplication commutes.
    sqrt = math.sqrt
    if planar:
        # the height offset to each anchor is fixed; only its square is used
        terms = [
            (px, py, (fixed_z - pz) * (fixed_z - pz), d) for (px, py, pz), d in zip(anchors, dists)
        ]

        def pass_over(point: list[float]) -> tuple[float, list[list[float]], list[float]]:
            """One sweep: cost, normal matrix J'J and gradient J'r."""
            x0, x1 = point
            a00 = a01 = a11 = g0 = g1 = cost = 0.0
            for px, py, dz2, d in terms:
                dx = x0 - px
                dy = x1 - py
                rng = sqrt(dx * dx + dy * dy + dz2)
                if 1e-12 > rng:
                    rng = 1e-12
                res = rng - d
                cost += res * res
                u0 = dx / rng
                u1 = dy / rng
                g0 += u0 * res
                g1 += u1 * res
                a00 += u0 * u0
                a01 += u0 * u1
                a11 += u1 * u1
            return cost, [[a00, a01], [a01, a11]], [g0, g1]

    else:
        terms = [(px, py, pz, d) for (px, py, pz), d in zip(anchors, dists)]

        def pass_over(point: list[float]) -> tuple[float, list[list[float]], list[float]]:
            """One sweep: cost, normal matrix J'J and gradient J'r."""
            x0, x1, x2 = point
            a00 = a01 = a02 = a11 = a12 = a22 = g0 = g1 = g2 = cost = 0.0
            for px, py, pz, d in terms:
                dx = x0 - px
                dy = x1 - py
                dz = x2 - pz
                rng = sqrt(dx * dx + dy * dy + dz * dz)
                if 1e-12 > rng:
                    rng = 1e-12
                res = rng - d
                cost += res * res
                u0 = dx / rng
                u1 = dy / rng
                u2 = dz / rng
                g0 += u0 * res
                g1 += u1 * res
                g2 += u2 * res
                a00 += u0 * u0
                a01 += u0 * u1
                a02 += u0 * u2
                a11 += u1 * u1
                a12 += u1 * u2
                a22 += u2 * u2
            return cost, [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]], [g0, g1, g2]

    cost, a, g = pass_over(x)
    best_x = list(x)
    best_cost = cost
    best_a = a  # the normal matrix at best_x, for the GDOP
    converged = False
    lam = 1e-9
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        damped = [row[:] for row in a]
        for i in range(dim):
            damped[i][i] += lam * (1.0 + a[i][i])
        step = _solve_spd(damped, [-v for v in g])
        if step is None:
            lam = max(lam * 10.0, 1e-6)
            continue
        candidate = [xi + si for xi, si in zip(x, step)]
        new_cost, new_a, new_g = pass_over(candidate)
        if new_cost <= cost:
            x, cost, a, g = candidate, new_cost, new_a, new_g
            lam = max(lam * 0.3, 1e-12)
            if cost < best_cost:
                best_cost = cost
                best_x = list(x)
                best_a = a
            if math.sqrt(sum(s * s for s in step)) < step_tol:
                converged = True
                break
        else:
            lam = min(lam * 10.0, 1e6)

    rms = math.sqrt(best_cost / count)
    trace_inv = _inverse_trace(best_a)
    gdop = math.sqrt(trace_inv) if trace_inv > 0 else math.inf
    if planar:
        pos = Location(best_x[0], best_x[1], float(fixed_z))
    else:
        pos = Location(best_x[0], best_x[1], best_x[2])
    return MultilaterationResult(pos, rms, converged, iterations, gdop)


class VerifyOutcome(Enum):
    VERIFIED = "verified"
    CONTRADICTED = "contradicted"
    INSUFFICIENT_DATA = "insufficient_data"


def gather_anchors(
    subject: NodeId,
    store: TopologyStore,
    self_location: Location,
    now: int,
    freshness: int,
) -> list[AnchorObservation]:
    """Collect usable observers of `subject`: self plus reporting peers.

    The node's own anchor uses its current smoothed RSSI of the subject. Peer
    anchors come from Reported history entries (extracted from BFT messages)
    no older than `freshness` ticks; the anchor point is the location the
    reporter claimed in its BFT message, falling back to the stored peer
    location when it is known and still verified.
    """
    anchors: list[AnchorObservation] = []
    own = store.latest_smoothed(LinkKey(store.self_id, subject))
    if own is not None and now - own[0] <= freshness:
        anchors.append(AnchorObservation(self_location, Rssi(own[1])))
    reports = store.latest_reports_of(subject)
    for peer_id in sorted(reports):
        if peer_id == subject or peer_id == store.self_id:
            continue
        entry = reports[peer_id]
        if now - entry.timestamp > freshness:
            continue
        point = entry.reporter_location
        if point is None:
            rec = store.peer(peer_id)
            if rec is None or rec.location is None or not rec.location_verified:
                continue
            point = rec.location
        anchors.append(AnchorObservation(point, Rssi(entry.value)))
    return anchors


def locate_and_verify(
    subject: NodeId,
    store: TopologyStore,
    msg: PayloadMessage,
    m: PathLossModel,
    self_location: Location,
    now: int,
    params: ProtocolParams,
) -> VerifyOutcome:
    """Check a payload's signed location against the RSSI-derived position.

    The bounds come from the node's `params`. Anchors older than
    `anchor_freshness` ticks are dropped. With at least `min_anchors`
    anchors a 3-D multilateration runs; with one fewer and a stored subject
    location the solve falls back to the stored height. The verdict is only
    trusted when the solve converged, the range misfit stays below
    `residual_cap` (anchors agree with each other) and the geometry is
    strong enough (`max_gdop`); anything else yields INSUFFICIENT_DATA
    rather than an accusation.

    RSSI localization cannot resolve positions to a single grid cell under
    measurement noise, so the signed key is accepted if it matches any
    `location_grid` cell within `verify_slack_cells` of the estimate's cell
    per axis; a displacement of two or more cells still contradicts.
    """
    min_anchors = params.min_anchors
    anchors = gather_anchors(subject, store, self_location, now, params.anchor_freshness)
    fixed_z: Optional[float] = None
    if len(anchors) < min_anchors:
        rec = store.peer(subject)
        if len(anchors) == min_anchors - 1 and rec is not None and rec.location is not None:
            fixed_z = rec.location.z
        else:
            return VerifyOutcome.INSUFFICIENT_DATA
    try:
        # grid-level verification needs far less precision than the public
        # solver default, and garbage inputs should fail fast
        result = multilaterate(anchors, m, fixed_z=fixed_z, max_iterations=20, step_tol=1e-7)
    except InsufficientAnchorsError:
        return VerifyOutcome.INSUFFICIENT_DATA
    if not result.converged or result.residual > params.residual_cap or result.gdop > params.max_gdop:
        return VerifyOutcome.INSUFFICIENT_DATA

    grid = params.location_grid
    slack_cells = params.verify_slack_cells
    ex, ey, ez = quantize_location(result.position, grid)
    offsets = sorted(range(-slack_cells, slack_cells + 1), key=abs)  # exact cell first
    for dx in offsets:
        for dy in offsets:
            for dz in offsets:
                cell = Location(ex + dx * grid, ey + dy * grid, ez + dz * grid)
                if location_key(cell, msg.payload, grid) == msg.signed_payload:
                    return VerifyOutcome.VERIFIED
    return VerifyOutcome.CONTRADICTED
