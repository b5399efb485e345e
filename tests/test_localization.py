"""Path-loss model, multilateration, and location verification."""

import math
import random
import statistics
from functools import reduce
from operator import add
from typing import Optional

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from polsim.localization import (
    InsufficientAnchorsError,
    MultilaterationResult,
    PathLossModel,
    VerifyOutcome,
    _signed_within_slack,
    gather_anchors,
    locate_and_verify,
    min_reporters,
    multilaterate,
    rssi_value_from_distance,
)
from polsim.messages import (
    Location,
    LocationKey,
    NodeId,
    PayloadMessage,
    Rssi,
    SensorType,
    decode_message,
    encode_message,
    location_key,
    quantize_location,
)
from polsim.protocol import ProtocolParams
from polsim.topology import PeerRecord, TopologyStore

MODEL = PathLossModel(p0=-40.0, n=2.0, d0=1.0)
# verification bounds: grid 0.5 m, one cell of slack, four anchors
PARAMS = ProtocolParams()

SELF = NodeId.from_str("02:00:00:00:00:01")
SUBJECT = NodeId.from_str("02:00:00:00:00:05")
PEERS = [NodeId.from_str(f"02:00:00:00:00:0{i}") for i in (2, 3, 4)]

HULL = [
    Location(0.0, 0.0, 0.0),
    Location(4.0, 0.0, 0.0),
    Location(0.0, 4.0, 0.0),
    Location(0.0, 0.0, 4.0),
]


class TestPathLoss:
    def test_reference_distance(self):
        assert rssi_value_from_distance(MODEL, 1.0) == pytest.approx(-40.0)

    def test_decade(self):
        assert rssi_value_from_distance(MODEL, 10.0) == pytest.approx(-60.0)

    def test_two_metres_high_precision(self):
        # -40 - 20*log10(2) evaluated independently
        expected = -40.0 - 20.0 * math.log10(2.0)
        assert rssi_value_from_distance(MODEL, 2.0) == pytest.approx(expected, abs=1e-9)
        assert rssi_value_from_distance(MODEL, 2.0) == pytest.approx(-46.0206, abs=1e-4)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            rssi_value_from_distance(MODEL, 0.0)

    def test_inverse_at_reference(self):
        assert distance_from_rssi(MODEL, Rssi(-40.0)) == pytest.approx(1.0)
        assert distance_from_rssi(MODEL, Rssi(-60.0)) == pytest.approx(10.0)

    def test_roundtrip(self):
        d = 3.7
        r = Rssi(rssi_value_from_distance(MODEL, d))
        assert distance_from_rssi(MODEL, r) == pytest.approx(d, abs=1e-9)

    @given(st.floats(min_value=0.02, max_value=500.0), st.floats(min_value=0.02, max_value=500.0))
    @example(0.020000000000000004, 0.02)  # one ulp apart: log10 maps both to -6.020599913279625
    def test_strictly_decreasing(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        r_lo = rssi_value_from_distance(MODEL, lo)
        r_hi = rssi_value_from_distance(MODEL, hi)
        assert r_lo >= r_hi
        # strict wherever the distances differ by more than float rounding can hide
        if r_lo < 0.0 and r_hi > -120.0 and hi / lo > 1 + 1e-9:  # off the clamp rails
            assert r_lo > r_hi

    def test_clamped_into_rssi_range(self):
        assert rssi_value_from_distance(MODEL, 1e-6) == 0.0
        assert rssi_value_from_distance(MODEL, 1e7) == -120.0


def exact_observations(target: Location, anchors=None) -> list[tuple[float, float, float, float]]:
    anchors = anchors if anchors is not None else HULL
    return [(*a.as_tuple(), rssi_value_from_distance(MODEL, target.distance_to(a))) for a in anchors]


class TestMultilaterate:
    def test_recovers_exact_target(self):
        target = Location(1.0, 1.0, 1.0)
        result = multilaterate(exact_observations(target), MODEL)
        assert result.position.distance_to(target) < 1e-6
        assert result.residual < 1e-6
        assert result.converged

    def test_planar_fallback(self):
        anchors = [Location(0.0, 0.0, 0.0), Location(4.0, 0.0, 0.0), Location(0.0, 4.0, 0.0)]
        target = Location(2.0, 1.0, 0.0)
        result = multilaterate(exact_observations(target, anchors), MODEL, fixed_z=0.0)
        assert result.position.distance_to(target) < 1e-6

    def test_too_few_anchors(self):
        target = Location(1.0, 1.0, 1.0)
        with pytest.raises(InsufficientAnchorsError):
            multilaterate(exact_observations(target, HULL[:2]), MODEL)
        with pytest.raises(InsufficientAnchorsError):
            multilaterate(exact_observations(target, HULL[:3]), MODEL)  # 3-D needs 4

    def test_gdop_larger_outside_the_hull(self):
        inside = multilaterate(exact_observations(Location(1.0, 1.0, 1.0)), MODEL)
        outside = multilaterate(exact_observations(Location(1.0, 12.0, 0.0)), MODEL)
        assert outside.gdop > inside.gdop > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=0.7),
        st.floats(min_value=0.1, max_value=0.7),
        st.floats(min_value=0.1, max_value=0.7),
    )
    def test_recovery_property_inside_hull(self, wx, wy, wz):
        total = 1.0 + wx + wy + wz
        target = Location(4.0 * wx / total, 4.0 * wy / total, 4.0 * wz / total)
        if min(target.distance_to(a) for a in HULL) < 0.1:
            return
        result = multilaterate(exact_observations(target), MODEL)
        assert result.position.distance_to(target) < 1e-6

    def test_noise_error_grows_with_sigma(self):
        # Monte-Carlo oracle over the five-node static geometry
        anchors = [
            Location(0.0, 0.0, -1.0),
            Location(1.0, 0.0, 0.0),
            Location(0.0, 1.5, 0.0),
            Location(2.0, 1.0, 1.0),
        ]
        target = Location(1.0, 2.0, 0.0)
        rng = random.Random(7)

        def median_error(sigma: float) -> float:
            errors = []
            for _ in range(200):
                obs = []
                for a in anchors:
                    level = rssi_value_from_distance(MODEL, target.distance_to(a))
                    noisy = min(0.0, max(-120.0, level + rng.gauss(0.0, sigma)))
                    obs.append((*a.as_tuple(), noisy))
                result = multilaterate(obs, MODEL)
                errors.append(result.position.distance_to(target))
            return statistics.median(errors)

        errs = {sigma: median_error(sigma) for sigma in (0.0, 0.5, 2.0)}
        assert errs[0.0] < 1e-6
        assert errs[0.5] < errs[2.0]
        assert errs[2.0] <= 1.5  # stated bound, tolerance +-50% covered by margin


def _ranged(
    anchors: list[Location], target: Location, offsets: list[float]
) -> list[tuple[float, float, float, float]]:
    """Model RSSI of `target` at each anchor, shifted by `offsets` dB."""
    return [
        (*a.as_tuple(), Rssi(rssi_value_from_distance(MODEL, target.distance_to(a)) + off).value)
        for a, off in zip(anchors, offsets)
    ]


_SPREAD = [Location(0, 0, 0), Location(4, 0, 0), Location(0, 4, 0), Location(0, 0, 4), Location(3, 3, 1)]
_PLANE = [Location(0, 0, 0), Location(6, 0, 1), Location(0, 5, -1), Location(5, 5, 0)]
_NOISE = [1.5, -2.0, 0.5, -0.75, 2.5]


class TestPinnedSolves:
    """Every result field, recorded bit for bit from the solver that re-swept
    the best iterate for its GDOP; the solver now keeps that normal matrix."""

    @pytest.mark.parametrize(
        "obs, kwargs, want",
        [
            (_ranged(_SPREAD, Location(1.3, 2.1, 0.7), [0.0] * 5), {},
             ((1.3, 2.0999999999999996, 0.7000000000000002), 4.864753555590494e-16, True, 4,
              1.4742616826792836)),
            (_ranged(_SPREAD, Location(1.3, 2.1, 0.7), _NOISE), {},
             ((1.1213124245471993, 2.3897883276500833, 0.5998354998100422), 0.4603472954378065, True, 29,
              1.5110267060104956)),
            (_ranged(_SPREAD, Location(1.3, 2.1, 0.7), _NOISE), {"max_iterations": 3},
             ((1.116690079149622, 2.3928993837064105, 0.6022050585310903), 0.46036368808260236, False, 3,
              1.511191975178506)),
            (_ranged(_SPREAD[:4], Location(1.3, 2.1, 0.7), [0.3, -0.4, 0.2, 0.1]),
             {"max_iterations": 20, "step_tol": 1e-7},
             ((1.1198599215191605, 2.094183430260901, 0.7104977977035988), 0.02120955015447579, True, 11,
              1.662825231881407)),
            (_ranged(_PLANE, Location(2.2, 1.7, 0.0), [-1.0, 2.0, 0.5, -1.5]), {"fixed_z": 0.0},
             ((2.461990526636248, 1.3072668308864535, 0.0), 0.5644103608219164, False, 50,
              1.0273595486126574)),
            (_ranged(_PLANE[:3], Location(2.2, 1.7, 0.0), [0.4, -0.2, 0.3]),
             {"fixed_z": 0.0, "max_iterations": 20, "step_tol": 1e-7},
             ((2.0501269200142174, 1.7250492987896884, 0.0), 0.036757093359760976, True, 5,
              1.2120907939901924)),
        ],
        ids=["3d-exact", "3d-noisy", "3d-budget", "3d-verify", "planar-noisy", "planar-three"],
    )
    def test_every_field_bit_for_bit(self, obs, kwargs, want):
        result = multilaterate(obs, MODEL, **kwargs)
        position, residual, converged, iterations, gdop = want
        assert result.position.as_tuple() == position
        assert result.residual == residual
        assert result.converged is converged
        assert result.iterations == iterations
        assert result.gdop == gdop


# -- solver equivalence ---------------------------------------------------------
#
# `reference_multilaterate` is the generic dim x dim accumulation loop with
# list matrices and a determinant solve, as the solver was before its sweeps
# and its 2x2/3x3 solves were written out per matrix entry on scalars. The
# scalar solver must return bit-for-bit the same result for any input. Its
# sums add left to right, as the solver's do: `sum` of floats is compensated
# from Python 3.12 on, so it would round differently there.


def reference_solve_spd(a: list[list[float]], g: list[float]) -> Optional[list[float]]:
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


def reference_inverse_trace(a: list[list[float]]) -> float:
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


def distance_from_rssi(m: PathLossModel, r: Rssi) -> float:
    """Invert the path-loss model (exact inverse within the unclamped range)."""
    return m.d0 * 10.0 ** ((m.p0 - r.value) / (10.0 * m.n))


def reference_multilaterate(
    obs: list[tuple[float, float, float, float]],
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

    anchors = [o[:3] for o in obs]
    dists = [distance_from_rssi(m, Rssi(o[3])) for o in obs]
    count = len(obs)
    dim = 2 if planar else 3
    x = [reduce(add, (p[i] for p in anchors), 0) / count for i in range(dim)]

    def pass_over(point: list[float]) -> tuple[float, list[list[float]], list[float]]:
        """One sweep: cost, normal matrix J'J and gradient J'r."""
        a = [[0.0] * dim for _ in range(dim)]
        g = [0.0] * dim
        cost = 0.0
        for p, d in zip(anchors, dists):
            dx = point[0] - p[0]
            dy = point[1] - p[1]
            dz = (fixed_z - p[2]) if planar else (point[2] - p[2])
            rng = math.sqrt(dx * dx + dy * dy + dz * dz)
            rng = max(rng, 1e-12)
            res = rng - d
            cost += res * res
            row = (dx / rng, dy / rng) if planar else (dx / rng, dy / rng, dz / rng)
            for i in range(dim):
                g[i] += row[i] * res
                for j in range(dim):
                    a[i][j] += row[i] * row[j]
        return cost, a, g

    cost, a, g = pass_over(x)
    best_x = list(x)
    best_cost = cost
    converged = False
    lam = 1e-9
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        damped = [row[:] for row in a]
        for i in range(dim):
            damped[i][i] += lam * (1.0 + a[i][i])
        step = reference_solve_spd(damped, [-v for v in g])
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
            if math.sqrt(reduce(add, (s * s for s in step), 0)) < step_tol:
                converged = True
                break
        else:
            lam = min(lam * 10.0, 1e6)

    rms = math.sqrt(best_cost / count)
    _, a_best, _ = pass_over(best_x)
    trace_inv = reference_inverse_trace(a_best)
    gdop = math.sqrt(trace_inv) if trace_inv > 0 else math.inf
    if planar:
        pos = Location(best_x[0], best_x[1], float(fixed_z))
    else:
        pos = Location(best_x[0], best_x[1], best_x[2])
    return MultilaterationResult(pos, rms, converged, iterations, gdop)


def solve_outcome(solver, obs, fixed_z, max_iterations, step_tol):
    """The solver's result, or the type of the error it raised."""
    try:
        return solver(obs, MODEL, fixed_z=fixed_z, max_iterations=max_iterations, step_tol=step_tol)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_solve(obs, fixed_z=None, max_iterations=50, step_tol=1e-9):
    got = solve_outcome(multilaterate, obs, fixed_z, max_iterations, step_tol)
    want = solve_outcome(reference_multilaterate, obs, fixed_z, max_iterations, step_tol)
    if isinstance(want, type):
        assert got is want
        return
    # hex, not ==: -0.0 == 0.0, but a sign flip of a coordinate is a different solve
    assert [c.hex() for c in got.position.as_tuple()] == [c.hex() for c in want.position.as_tuple()]
    assert same_float(got.residual, want.residual)
    assert same_float(got.gdop, want.gdop)
    assert got.iterations == want.iterations
    assert got.converged == want.converged


# A failing example is reported as generated: shrinking lists of floats
# through two solvers can run for minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
coord = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)
anchor_point = st.builds(Location, coord, coord, st.floats(min_value=-3.0, max_value=3.0))
level = st.floats(min_value=-110.0, max_value=-20.0)


class TestUnrolledSolverMatchesReference:
    @settings(max_examples=300, deadline=None, phases=NO_SHRINK)
    @given(
        st.lists(st.tuples(anchor_point, level), min_size=3, max_size=8),
        st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0)),
        st.sampled_from([(50, 1e-9), (20, 1e-7), (3, 1e-3)]),
    )
    def test_random_anchors(self, anchors, fixed_z, budget):
        obs = [(*point.as_tuple(), value) for point, value in anchors]
        assert_same_solve(obs, fixed_z, *budget)

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(
        st.lists(anchor_point, min_size=4, max_size=8, unique=True),
        anchor_point,
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_consistent_ranges(self, anchors, target, noise_db):
        # levels from a real target, as in the simulator, plus one offset
        levels = [rssi_value_from_distance(MODEL, max(target.distance_to(a), 1e-9)) for a in anchors]
        obs = [
            (*a.as_tuple(), min(0.0, max(-120.0, level + noise_db)))
            for a, level in zip(anchors, levels)
        ]
        assert_same_solve(obs)
        assert_same_solve(obs[:3], fixed_z=target.z)

    @pytest.mark.parametrize("fixed_z", [None, 0.0, 1.5])
    def test_collinear_anchors(self, fixed_z):
        anchors = [Location(float(i), 0.0, 0.0) for i in range(5)]
        target = Location(2.0, 3.0, 0.5)
        obs = exact_observations(target, anchors)
        assert_same_solve(obs, fixed_z=fixed_z)
        assert_same_solve(obs, fixed_z=fixed_z, max_iterations=20, step_tol=1e-7)

    @pytest.mark.parametrize("fixed_z", [None, 0.0, -0.0, -1.0])
    def test_coplanar_anchors(self, fixed_z):
        anchors = [
            Location(0.0, 0.0, 0.0),
            Location(4.0, 0.0, 0.0),
            Location(0.0, 4.0, 0.0),
            Location(3.0, 3.0, 0.0),
            Location(1.0, 2.0, 0.0),
        ]
        for target in (Location(1.0, 1.0, 0.0), Location(1.0, 1.0, 2.0), Location(9.0, -4.0, 1.0)):
            assert_same_solve(exact_observations(target, anchors), fixed_z=fixed_z)
            obs = exact_observations(target, anchors[:4])
            assert_same_solve(obs, fixed_z=fixed_z, max_iterations=20, step_tol=1e-7)

    def test_coincident_anchors(self):
        same = [Location(1.0, 1.0, 1.0)] * 4
        obs = [(*a.as_tuple(), -50.0) for a in same]
        assert_same_solve(obs)
        assert_same_solve(obs[:3], fixed_z=1.0)

    def test_start_on_an_anchor(self):
        # the start point (anchor centroid) is an anchor: its range takes the 1e-12 floor
        anchors = [
            Location(0.0, 0.0, 0.0),
            Location(1.0, 0.0, 0.0),
            Location(-1.0, 0.0, 0.0),
            Location(0.0, 1.0, 1.0),
            Location(0.0, -1.0, -1.0),
        ]
        obs = [(*a.as_tuple(), -45.0) for a in anchors]
        assert_same_solve(obs)
        assert_same_solve(obs, fixed_z=0.0)


def seeded_store(subject_location: Location, *, reports_at: int = 100) -> TopologyStore:
    """Store holding a full set of exact anchors for SUBJECT."""
    store = TopologyStore(SELF, capacity=64, min_reporters=min_reporters(PARAMS), freshness=PARAMS.anchor_freshness)
    self_loc = Location(0.0, 0.0, 0.0)
    peer_locs = [Location(4.0, 0.0, 0.0), Location(0.0, 4.0, 0.0), Location(0.0, 0.0, 4.0)]
    store.add_peer(PeerRecord(id=SUBJECT, location=Location(1.0, 1.0, 1.0)))
    own = rssi_value_from_distance(MODEL, subject_location.distance_to(self_loc))
    # the first smoothed output of a link is its first sample
    store.record_rssi(SUBJECT, reports_at, own)
    store.update_smoothed(SUBJECT, own)
    for peer, loc in zip(PEERS, peer_locs):
        store.add_peer(PeerRecord(id=peer, location=loc))
        store.record_report(
            peer,
            SUBJECT,
            reports_at,
            rssi_value_from_distance(MODEL, subject_location.distance_to(loc)),
            reporter_location=loc,
        )
    return store


def payload_signed_at(loc: Location, grid: float = 0.5) -> PayloadMessage:
    payload = b"\x17"
    return PayloadMessage(
        sender=SUBJECT,
        seq=1,
        sensor_type=SensorType.TEMPERATURE,
        payload=payload,
        signed_payload=location_key(loc, payload, grid),
        timestamp=100,
    )


class TestLocateAndVerify:
    def test_honest_sender_verified(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc)
        msg = payload_signed_at(true_loc)
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, PARAMS)
        assert outcome is VerifyOutcome.VERIFIED

    def test_displaced_signature_contradicted(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc)
        msg = payload_signed_at(Location(2.0, 1.0, 1.0))  # 2 grid cells off
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, PARAMS)
        assert outcome is VerifyOutcome.CONTRADICTED

    def test_one_cell_slack_tolerated(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc)
        msg = payload_signed_at(Location(1.5, 1.0, 1.0))  # single cell off
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, PARAMS)
        assert outcome is VerifyOutcome.VERIFIED

    @pytest.mark.parametrize(
        "signed_at, verdict",
        [
            (Location(1.0, 1.0, 1.0), VerifyOutcome.VERIFIED),
            (Location(1.5, 1.0, 1.0), VerifyOutcome.VERIFIED),
            (Location(2.0, 1.0, 1.0), VerifyOutcome.CONTRADICTED),
        ],
    )
    def test_decoded_payload_gets_the_deferred_verdict(self, signed_at, verdict):
        """A payload off the wire, its key rebuilt from the digest, gets the
        verdict of the payload whose key was still to compute its digest."""
        store = seeded_store(Location(1.0, 1.0, 1.0))
        deferred = payload_signed_at(signed_at)
        assert locate_and_verify(SUBJECT, store, deferred, MODEL, Location(0, 0, 0), 100, PARAMS) is verdict
        decoded = decode_message(encode_message(payload_signed_at(signed_at)))
        assert locate_and_verify(SUBJECT, store, decoded, MODEL, Location(0, 0, 0), 100, PARAMS) is verdict
        assert decoded == deferred

    def test_only_self_measurement_insufficient(self):
        store = TopologyStore(SELF, capacity=64, min_reporters=min_reporters(PARAMS), freshness=PARAMS.anchor_freshness)
        store.add_peer(PeerRecord(id=SUBJECT, location=Location(1.0, 1.0, 1.0)))
        store.record_rssi(SUBJECT, 100, -45.0)
        store.update_smoothed(SUBJECT, -45.0)
        msg = payload_signed_at(Location(1.0, 1.0, 1.0))
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, PARAMS)
        assert outcome is VerifyOutcome.INSUFFICIENT_DATA

    def test_stale_reports_insufficient(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc, reports_at=10)
        msg = payload_signed_at(true_loc)
        outcome = locate_and_verify(
            SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, ProtocolParams(anchor_freshness=45)
        )
        assert outcome is VerifyOutcome.INSUFFICIENT_DATA
        assert SUBJECT in store.live(55) and SUBJECT not in store.live(56)

    def test_planar_fallback_with_three_anchors(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc)
        # drop one peer report: 3 anchors remain, the stored height pins z
        store._reported[SUBJECT].pop(PEERS[2])
        msg = payload_signed_at(true_loc)
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, PARAMS)
        assert outcome is VerifyOutcome.VERIFIED

    @pytest.mark.parametrize("min_anchors", [4, 5, 6])
    def test_min_reporters_is_the_fewest_that_reach_a_solve(self, min_anchors, monkeypatch):
        """With a fresh own anchor and a stored height, min_reporters - 1
        fresh reporters give INSUFFICIENT_DATA before any solve, and
        min_reporters reporters reach the planar fallback."""
        params = ProtocolParams(min_anchors=min_anchors)
        solves = []

        def unconverged(anchors, *args, **kwargs):
            solves.append(len(anchors))
            return MultilaterationResult(Location(0.0, 0.0, 0.0), math.inf, False, 0)

        monkeypatch.setattr("polsim.localization.multilaterate", unconverged)
        reporters = [NodeId.from_str(f"02:00:00:00:01:{i:02x}") for i in range(min_reporters(params))]
        store = TopologyStore(
            SELF, capacity=64, min_reporters=min_reporters(params), freshness=params.anchor_freshness
        )
        store.add_peer(PeerRecord(id=SUBJECT, location=Location(1.0, 1.0, 1.0)))
        store.record_rssi(SUBJECT, 100, -45.0)
        store.update_smoothed(SUBJECT, -45.0)
        msg = payload_signed_at(Location(1.0, 1.0, 1.0))
        for i, reporter in enumerate(reporters):
            verdict = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, params)
            assert verdict is VerifyOutcome.INSUFFICIENT_DATA and solves == []
            assert SUBJECT not in store.live(100)
            store.record_report(reporter, SUBJECT, 100, -45.0, reporter_location=Location(float(i + 1), 0.0, 0.0))
        assert SUBJECT in store.live(100)
        locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 100, params)
        assert solves == [min_anchors - 1]

    def test_inconsistent_ranges_yield_no_verdict(self):
        true_loc = Location(1.0, 1.0, 1.0)
        store = seeded_store(true_loc)
        # poison one report: ranges no longer meet anywhere
        store.record_report(
            PEERS[0], SUBJECT, 101, -90.0, reporter_location=Location(4.0, 0.0, 0.0)
        )
        msg = payload_signed_at(true_loc)
        outcome = locate_and_verify(SUBJECT, store, msg, MODEL, Location(0, 0, 0), 101, PARAMS)
        assert outcome is VerifyOutcome.INSUFFICIENT_DATA


# -- cell check ---------------------------------------------------------------
#
# `reference_signed_within_slack` is the verification loop as it was before
# the quantization moved out of it: one Location and one location_key per
# candidate cell. The check in polsim must give the same answer for any input.


def reference_signed_within_slack(position: Location, msg: PayloadMessage, grid: float, slack_cells: int) -> bool:
    ex, ey, ez = quantize_location(position, grid)
    offsets = sorted(range(-slack_cells, slack_cells + 1), key=abs)  # exact cell first
    for dx in offsets:
        for dy in offsets:
            for dz in offsets:
                cell = Location(ex + dx * grid, ey + dy * grid, ez + dz * grid)
                if location_key(cell, msg.payload, grid) == msg.signed_payload:
                    return True
    return False


def payload_with_key(payload: bytes, key: LocationKey) -> PayloadMessage:
    return PayloadMessage(
        sender=SUBJECT, seq=1, sensor_type=SensorType.TEMPERATURE, payload=payload,
        signed_payload=key, timestamp=100,
    )


@st.composite
def cell_checks(draw):
    """(position, message, grid, slack): a key signed near the position, one
    cell outside the slack included, or a random key."""
    grid = draw(st.one_of(st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 1.5]), st.floats(0.05, 2.0)))
    slack = draw(st.integers(0, 2))
    # anywhere, negative included, on a cell centre, or on a cell boundary
    # (half a cell off a centre, where round() ties)
    coordinate = st.one_of(
        st.floats(-60.0, 60.0),
        st.integers(-100, 100).map(lambda k: k * grid),
        st.integers(-100, 100).map(lambda k: (k + 0.5) * grid),
    )
    position = Location(draw(coordinate), draw(coordinate), draw(coordinate))
    payload = draw(st.binary(max_size=16))
    reach = slack + 1  # one cell outside the slack
    cells = st.tuples(*[st.integers(-reach, reach)] * 3)
    shifts = st.tuples(*[st.floats(-reach - 0.5, reach + 0.5)] * 3)
    shift = draw(st.one_of(cells, shifts, st.none()))
    if shift is None:
        key = LocationKey(draw(st.binary(min_size=32, max_size=32)))
    else:
        signed_at = Location(*(c + k * grid for c, k in zip(position.as_tuple(), shift)))
        key = location_key(signed_at, payload, grid)
    return position, payload_with_key(payload, key), grid, slack


class TestCellCheckMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(cell_checks())
    def test_same_verdict(self, case):
        assert _signed_within_slack(*case) == reference_signed_within_slack(*case)

    @pytest.mark.parametrize("grid", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_slack_edge(self, grid, slack):
        position = Location(-2.0 * grid, 3.0 * grid, 7.0 * grid)
        for cells, verified in ((slack, True), (slack + 1, False), (-slack, True), (-slack - 1, False)):
            signed_at = Location(position.x, position.y + cells * grid, position.z)
            msg = payload_with_key(b"\x17", location_key(signed_at, b"\x17", grid))
            assert _signed_within_slack(position, msg, grid, slack) is verified
            assert reference_signed_within_slack(position, msg, grid, slack) is verified


class TestGatherAnchors:
    def test_collects_self_and_fresh_reports(self):
        store = seeded_store(Location(1.0, 1.0, 1.0))
        anchors = gather_anchors(SUBJECT, store, Location(0, 0, 0), 100, 45)
        assert len(anchors) == 4

    def test_reporter_location_preferred(self):
        store = TopologyStore(SELF, capacity=64, min_reporters=min_reporters(PARAMS), freshness=PARAMS.anchor_freshness)
        claimed = Location(9.0, 9.0, 9.0)
        store.add_peer(PeerRecord(id=PEERS[0], location=Location(4.0, 0.0, 0.0)))
        store.record_report(PEERS[0], SUBJECT, 100, -50.0, reporter_location=claimed)
        anchors = gather_anchors(SUBJECT, store, Location(0, 0, 0), 100, 45)
        assert anchors[0][:3] == claimed.as_tuple()
