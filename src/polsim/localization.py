"""RSSI-distance model and multilateration for locating peers.

A log-distance path-loss model maps RSSI to range estimates; a Gauss-Newton
least-squares solver combines ranges from several observers of known position
into a location estimate. `locate_and_verify` ties both to the topology
store: it estimates a payload sender's position from the node's own smoothed
measurement, fresh while the link's newest sample is, plus peer measurements
extracted from BFT messages, and checks the estimate against the location
the payload was signed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .messages import RSSI_MAX, RSSI_MIN, Location, NodeId, PayloadMessage, cell_digest, quantize_location
# perfbench/tracer.py wraps polsim.localization.location_key by name; the
# verification below calls cell_digest per candidate cell, not location_key
from .messages import location_key  # noqa: F401
from .topology import TopologyStore

if TYPE_CHECKING:  # protocol imports this module
    from .protocol import ProtocolParams

# One observer of known position and its reading of the target:
# (x, y, z, rssi_dB), the observer's coordinates in metres.
Anchor = tuple[float, float, float, float]


class InsufficientAnchorsError(ValueError):
    """Too few observations for the requested solve."""


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance propagation: p0 dBm at d0 metres, exponent n."""

    p0: float = -40.0
    n: float = 2.0
    d0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.n > 0 and self.d0 > 0):
            raise ValueError("need n > 0 and d0 > 0")
        if not math.isfinite(self.p0):
            raise ValueError("p0 must be finite")


def rssi_value_from_distance(m: PathLossModel, d: float) -> float:
    """Model RSSI at range `d` as a plain float, clamped into the dB range."""
    if d <= 0:
        raise ValueError("distance must be positive")
    raw = m.p0 - 10.0 * m.n * math.log10(d / m.d0)
    return min(RSSI_MAX, max(RSSI_MIN, raw))


@dataclass(frozen=True)
class MultilaterationResult:
    position: Location
    residual: float  # RMS range misfit in metres
    converged: bool
    iterations: int
    gdop: float = 0.0  # geometric dilution of precision at the solution


def multilaterate(
    anchors: list[Anchor],
    m: PathLossModel,
    fixed_z: Optional[float] = None,
    max_iterations: int = 50,
    step_tol: float = 1e-9,
) -> MultilaterationResult:
    """Estimate the target position from `(x, y, z, rssi_dB)` anchor readings.

    Needs four anchors for a full 3-D solve, or three when `fixed_z` pins
    the height (planar fallback). A damped Gauss-Newton (Levenberg)
    iteration starts from the anchor centroid and minimizes the sum of
    squared range residuals (estimated distance minus model distance per
    anchor). Non-convergence returns the best iterate, flagged via
    `converged`. The result carries the RMS misfit and the geometric dilution
    of precision, which callers use to reject low-confidence solutions.
    """
    planar = fixed_z is not None
    needed = 3 if planar else 4
    count = len(anchors)
    if count < needed:
        raise InsufficientAnchorsError(
            f"{count} observations, need {needed} for {'planar' if planar else '3-D'} solve"
        )
    # the inverse of the path-loss model, d0 * 10 ** ((p0 - rssi) / (10 n)), on the plain dB value
    d0, p0, slope = m.d0, m.p0, 10.0 * m.n
    # the centroid adds in anchor order, left to right: sum() of floats is
    # compensated from Python 3.12 on and would round differently
    cx = cy = cz = 0.0
    terms = []
    for px, py, pz, rssi in anchors:
        cx += px
        cy += py
        cz += pz
        terms.append((px, py, pz, d0 * 10.0 ** ((p0 - rssi) / slope)))
    z = float(fixed_z) if planar else cz / count
    return _levenberg(terms, cx / count, cy / count, z, planar, max_iterations, step_tol)


def _sweep(
    terms: list[tuple[float, float, float, float]], x0: float, x1: float, x2: float
) -> tuple[float, float, float, float, float, float, float, float, float, float]:
    """One pass over (x, y, z, range) terms: cost, J'J upper triangle, J'r."""
    sqrt = math.sqrt
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
    return cost, a00, a01, a02, a11, a12, a22, g0, g1, g2


# One Levenberg loop serves the 3-D solve and the planar fallback. It keeps
# the iterate, the symmetric normal matrix J'J (upper triangle aNM) and the
# gradient J'r (gN) as scalars, and solves the damped system
# (J'J + damping) step = -J'r by Cramer's rule: the full 3x3 system in 3-D,
# the x-y block alone when the height is fixed. Each sum and product is the
# one of the generic dim x dim loop with list matrices, in the same order:
# the sweep starts every accumulator at 0.0 and adds in anchor order, a
# mirrored entry aMN is the same float as aNM, and x * y == y * x exactly;
# subtracting a product equals adding its negation, so the step is
# bit-for-bit the one of the list solver. The planar solve runs the same
# sweep at the fixed height, whose z sums go unused. Its step leaves z as given
# rather than adding a zero step to it, since -0.0 + 0.0 is 0.0 and would
# flip the sign of a fixed height of -0.0; its zero s2 leaves the step norm
# exactly the one of the x-y step.


def _levenberg(
    terms: list[tuple[float, float, float, float]],
    x0: float,
    x1: float,
    x2: float,
    planar: bool,
    max_iterations: int,
    step_tol: float,
) -> MultilaterationResult:
    cost, a00, a01, a02, a11, a12, a22, g0, g1, g2 = _sweep(terms, x0, x1, x2)
    b0, b1, b2, best_cost = x0, x1, x2, cost
    # the normal matrix at the best iterate, for the GDOP
    b00, b01, b02, b11, b12, b22 = a00, a01, a02, a11, a12, a22
    converged = False
    lam = 1e-9
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        d00 = a00 + lam * (1.0 + a00)
        d11 = a11 + lam * (1.0 + a11)
        if planar:
            det = d00 * d11 - a01 * a01
        else:
            d22 = a22 + lam * (1.0 + a22)
            c00 = d11 * d22 - a12 * a12
            c01 = a12 * a02 - a01 * d22
            c02 = a01 * a12 - d11 * a02
            det = d00 * c00 + a01 * c01 + a02 * c02
        if abs(det) < 1e-300:
            lam = max(lam * 10.0, 1e-6)
            continue
        if planar:
            s0 = (-g0 * d11 + g1 * a01) / det
            s1 = (-d00 * g1 + a01 * g0) / det
            s2 = 0.0
            n2 = x2
        else:
            c11 = d00 * d22 - a02 * a02
            c12 = a01 * a02 - d00 * a12
            c22 = d00 * d11 - a01 * a01
            s0 = (-g0 * c00 - g1 * c01 - g2 * c02) / det
            s1 = (-g0 * c01 - g1 * c11 - g2 * c12) / det
            s2 = (-g0 * c02 - g1 * c12 - g2 * c22) / det
            n2 = x2 + s2
        n0 = x0 + s0
        n1 = x1 + s1
        swept = _sweep(terms, n0, n1, n2)
        if swept[0] <= cost:
            x0, x1, x2 = n0, n1, n2
            cost, a00, a01, a02, a11, a12, a22, g0, g1, g2 = swept
            lam = max(lam * 0.3, 1e-12)
            if cost < best_cost:
                b0, b1, b2, best_cost = x0, x1, x2, cost
                b00, b01, b02, b11, b12, b22 = a00, a01, a02, a11, a12, a22
            if math.sqrt(s0 * s0 + s1 * s1 + s2 * s2) < step_tol:
                converged = True
                break
        else:
            lam = min(lam * 10.0, 1e6)

    # GDOP: sqrt(trace((J'J)^-1)) at the best iterate, from its cofactors,
    # over the solved block only
    if planar:
        det = b00 * b11 - b01 * b01
        trace_inv = math.inf if abs(det) < 1e-300 else (b11 + b00) / det
    else:
        c00 = b11 * b22 - b12 * b12
        det = b00 * c00 + b01 * (b12 * b02 - b01 * b22) + b02 * (b01 * b12 - b11 * b02)
        trace_inv = math.inf if abs(det) < 1e-300 else (c00 + (b00 * b22 - b02 * b02) + (b00 * b11 - b01 * b01)) / det
    gdop = math.sqrt(trace_inv) if trace_inv > 0 else math.inf
    rms = math.sqrt(best_cost / len(terms))
    return MultilaterationResult(Location(b0, b1, b2), rms, converged, iterations, gdop)


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
) -> list[Anchor]:
    """Collect usable observers of `subject`: self plus reporting peers.

    The node's own anchor uses its newest smoothed RSSI of the subject,
    from the link's newest sample, when that sample is no older than
    `freshness` ticks. Peer anchors come from the newest report per
    reporter (extracted from BFT messages) no older than `freshness` ticks;
    the anchor point is the location the reporter claimed in its BFT
    message.
    """
    anchors: list[Anchor] = []
    rec = store.peers.get(subject)
    if rec is not None and rec.smoothed is not None and now - rec.heard <= freshness:
        anchors.append((self_location.x, self_location.y, self_location.z, rec.smoothed))
    reports = store.latest_reports_of(subject)
    for peer_id in sorted(reports):
        entry = reports[peer_id]
        if now - entry.timestamp > freshness:
            continue
        point = entry.reporter_location
        anchors.append((point.x, point.y, point.z, entry.value))
    return anchors


def min_reporters(params: ProtocolParams) -> int:
    """The fewest reporters of a subject with which `locate_and_verify` can
    solve: the own anchor plus one per reporter must reach the
    `min_anchors - 1` of the planar fallback. With fewer, every verdict
    about the subject is INSUFFICIENT_DATA, reached before any solve."""
    return params.min_anchors - 2


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
    location the solve falls back to the stored height (the planar rule
    `min_reporters` follows from). The verdict is only
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
        rec = store.peers.get(subject)
        if len(anchors) == min_anchors - 1 and rec is not None and rec.location is not None:
            fixed_z = rec.location.z
        else:
            return VerifyOutcome.INSUFFICIENT_DATA
    # min_anchors >= 4, so the 3-D solve gets at least four anchors and the
    # planar one at least three. Grid-level verification needs far less
    # precision than the public solver default, and garbage inputs should fail fast
    result = multilaterate(anchors, m, fixed_z=fixed_z, max_iterations=20, step_tol=1e-7)
    if not result.converged or result.residual > params.residual_cap or result.gdop > params.max_gdop:
        return VerifyOutcome.INSUFFICIENT_DATA

    if _signed_within_slack(result.position, msg, params.location_grid, params.verify_slack_cells):
        return VerifyOutcome.VERIFIED
    return VerifyOutcome.CONTRADICTED


def _signed_within_slack(position: Location, msg: PayloadMessage, grid: float, slack_cells: int) -> bool:
    """True iff `msg` was signed in a `grid` cell at most `slack_cells` cells
    from the cell of `position` on every axis.

    This is `location_key(Location(ex + dx*grid, ...), msg.payload, grid) ==
    msg.signed_payload` over the cell offsets, (ex, ey, ez) the quantized
    `position`, with the quantization `location_key` applies done once per
    axis and offset.
    """
    offsets = sorted(range(-slack_cells, slack_cells + 1), key=abs)  # exact cell first
    xs, ys, zs = (
        [round((e + d * grid) / grid) * grid for d in offsets]
        for e in quantize_location(position, grid)
    )
    payload = msg.payload
    signed = msg.signed_payload.digest
    for qx in xs:
        for qy in ys:
            for qz in zs:
                if cell_digest(qx, qy, qz, payload) == signed:
                    return True
    return False
