"""Per-layer attribution by wrapping polsim's public functions from outside.

A `Tracer` replaces chosen attributes (module functions, class methods) with
wrappers that time each call and count it. Times are aggregated in memory per
(span name, parent span name): calls, inclusive time and self time, where
self time is the span's duration minus the time of the traced spans it
called. Nothing is written until the caller asks for the totals.

`uninstall` puts every original attribute object back; `leftovers`
reports any attribute that is not the original afterwards.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Optional

NS = 1e-9

# Hooks run after the wrapped call: hook(tracer, args, kwargs, result, elapsed_ns).
# A hook that returns something other than None replaces the call's result.
Hook = Callable[["Tracer", tuple, dict, Any, int], Any]


class Tracer:
    def __init__(self) -> None:
        # (name, parent) -> [calls, inclusive_ns, self_ns]
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.counters: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._names: list[str] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        # per-run tick timing for the growth ratio: (start, seconds) of each
        # NodeState.tick call in the first / last tenth of a run's ticks
        self._run_duration = 0
        self._ticks: list[tuple[int, float, float]] = []
        self.tick_head: list[tuple[float, float]] = []
        self.tick_tail: list[tuple[float, float]] = []

    # -- spans ----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Hook] = None,
        before: Optional[Callable[["Tracer", tuple, dict], None]] = None,
        on_error: Optional[Callable[["Tracer", BaseException], None]] = None,
    ) -> Callable:
        names, child_ns, spans = self._names, self._child_ns, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = names[-1] if names else ""
            names.append(name)
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                elapsed = perf_counter_ns() - start
                names.pop()
                inner = child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    spans[(name, parent)] = [1, elapsed, elapsed - inner]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += elapsed - inner
            if after is not None:
                replaced = after(self, args, kwargs, result, elapsed)
                if replaced is not None:
                    return replaced
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace `owner.attr` by a traced wrapper; classmethods stay classmethods."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapped = self.wrap(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Patched attributes that are not their original object right now."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    # -- totals -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _p), rec in self.spans.items() if n == name)

    def self_s(self, *names: str) -> float:
        return sum(rec[2] for (n, _p), rec in self.spans.items() if n in names) * NS

    def total_s(self, name: str) -> float:
        return sum(rec[1] for (n, _p), rec in self.spans.items() if n == name) * NS

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def span_table(self) -> list[dict[str, Any]]:
        return [
            {"span": n, "parent": p, "calls": c, "total_s": t * NS, "self_s": s * NS}
            for (n, p), (c, t, s) in sorted(self.spans.items())
        ]


# -- hooks ------------------------------------------------------------------


def _run_started(tr: Tracer, args: tuple, kwargs: dict) -> None:
    scenario = args[0] if args else kwargs["scenario"]
    tr._run_duration = scenario.duration
    tr._ticks = []


def _run_finished(tr: Tracer, args, kwargs, result, elapsed) -> None:
    tenth = max(1, tr._run_duration // 10)
    for tick, start, seconds in tr._ticks:
        if tick < tenth:
            tr.tick_head.append((start, seconds))
        elif tick >= tr._run_duration - tenth:
            tr.tick_tail.append((start, seconds))


def _tick_timed(tr: Tracer, args, kwargs, result, elapsed) -> None:
    now = args[3] if len(args) > 3 else kwargs["now"]
    seconds = elapsed * NS
    tr._ticks.append((now, perf_counter_ns() * NS - seconds, seconds))


def _pool_depth(tr: Tracer, args: tuple, kwargs: dict) -> None:
    tr.note_max("pool_depth", len(args[0].pool))


def _deliveries(tr: Tracer, args, kwargs, result, elapsed) -> None:
    tr.counters["deliveries"] += len(result)


def _trigger_fired(tr: Tracer, args, kwargs, result, elapsed) -> None:
    if result:
        tr.counters["trigger_fires"] += 1


def _verdict(tr: Tracer, args, kwargs, result, elapsed) -> None:
    tr.counters[f"verdict_{result.value}"] += 1


def _duplicate(tr: Tracer, exc: BaseException) -> None:
    if isinstance(exc, ValueError):
        tr.counters["duplicate_samples"] += 1


def _trace_bytes(tr: Tracer, args, kwargs, result, elapsed) -> None:
    tr.counters["trace_bytes"] += sum(path.stat().st_size for path in result.values())


def _wrap_offline_step(tr: Tracer, args, kwargs, result, elapsed) -> Callable:
    return tr.wrap("filters.offline_step", result)


def install(tr: Tracer) -> None:
    """Wrap every traced entry point of the polsim modules."""
    mod = {name: importlib.import_module(f"polsim.{name}") for name in (
        "channel", "cli", "filters", "harness", "localization", "protocol", "topology",
    )}
    node = mod["protocol"].NodeState
    store = mod["topology"].TopologyStore

    tr.patch(mod["harness"], "run", "harness.run", before=_run_started, after=_run_finished)
    tr.patch(mod["harness"], "write_traces", "harness.write_traces", after=_trace_bytes)
    tr.patch(mod["channel"].RadioChannel, "broadcast", "channel.broadcast", after=_deliveries)
    tr.patch(node, "tick", "protocol.tick", after=_tick_timed)
    tr.patch(node, "ingest_sample", "protocol.ingest_sample")
    tr.patch(node, "validate_pool", "protocol.validate_pool", before=_pool_depth)
    tr.patch(node, "emit_payload", "protocol.emit_payload")
    # polsim.protocol binds these at import time, so wrap its own names
    tr.patch(mod["protocol"], "cascade_step", "filters.cascade_step")
    tr.patch(mod["protocol"], "bft_trigger", "filters.bft_trigger", after=_trigger_fired)
    tr.patch(mod["protocol"], "locate_and_verify", "localization.locate_and_verify", after=_verdict)
    tr.patch(mod["localization"], "multilaterate", "localization.multilaterate")
    for owner in (mod["protocol"], mod["localization"], mod["harness"]):
        tr.patch(owner, "location_key", "messages.location_key")
    tr.patch(store, "record_rssi", "topology.record_rssi", on_error=_duplicate)
    tr.patch(store, "update_smoothed", "topology.update_smoothed")
    for scan in ("count_recent_bft", "recent_bft_senders", "has_seen_bft"):
        tr.patch(store, scan, f"topology.{scan}")
    # offline filter path: cmd_filters imports bft_trigger from polsim.filters
    # inside its loop, and steps the closures that make_filter returns
    tr.patch(mod["filters"], "bft_trigger", "filters.offline_trigger")
    tr.patch(mod["cli"], "make_filter", "filters.make_filter", after=_wrap_offline_step)
    tr.patch(mod["cli"], "cmd_filters", "cli.cmd_filters")
    install_scenario(tr)


def install_scenario(tr: Tracer) -> None:
    """Wrap only the scenario constructors (used around set-up)."""
    scenario = importlib.import_module("polsim.scenario")
    tr.patch(scenario, "builtin_scenario", "scenario.builtin_scenario")
    tr.patch(scenario.Scenario, "from_dict", "scenario.from_dict")



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tr: Tracer, untraced_s: float, traced_s: float, scale: Callable[[float, float], float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, with the untraced time as the overhead base.

    `scale(start, seconds)` converts the `NodeState.tick` calls behind the
    growth ratio to reference seconds, so that the host's drift between the
    first and the last tenth of a run does not read as growth.
    """
    c = tr.counters
    deliveries = c["deliveries"]
    verify_calls = tr.calls("localization.locate_and_verify")
    decided = c["verdict_verified"] + c["verdict_contradicted"]
    trigger_calls = tr.calls("filters.bft_trigger")
    head = [scale(start, seconds) for start, seconds in tr.tick_head]
    tail = [scale(start, seconds) for start, seconds in tr.tick_tail]
    head_us = _ratio(sum(head), len(head)) * 1e6
    tail_us = _ratio(sum(tail), len(tail)) * 1e6
    return {
        "channel.broadcast_calls": (tr.calls("channel.broadcast"), "count"),
        "channel.deliveries": (deliveries, "count"),
        "channel.self_s": (tr.self_s("channel.broadcast"), "s"),
        "channel.ns_per_delivery": (_ratio(tr.self_s("channel.broadcast") / NS, deliveries), "ns"),
        "protocol.ingest_calls": (tr.calls("protocol.ingest_sample"), "count"),
        "protocol.ingest_self_s": (tr.self_s("protocol.ingest_sample"), "s"),
        "protocol.validate_pool_self_s": (tr.self_s("protocol.validate_pool"), "s"),
        "protocol.tick_self_s": (tr.self_s("protocol.tick"), "s"),
        "protocol.emit_payload_self_s": (tr.self_s("protocol.emit_payload"), "s"),
        "protocol.pool_depth_max": (tr.maxima.get("pool_depth", 0), "count"),
        "protocol.tick_growth": (_ratio(tail_us, head_us), "ratio"),
        "protocol.tick_first_tenth_us": (head_us, "us"),
        "protocol.tick_last_tenth_us": (tail_us, "us"),
        "filters.cascade_calls": (tr.calls("filters.cascade_step"), "count"),
        "filters.cascade_self_s": (tr.self_s("filters.cascade_step"), "s"),
        "filters.trigger_calls": (trigger_calls, "count"),
        "filters.trigger_fires": (c["trigger_fires"], "count"),
        "filters.fire_ratio": (_ratio(c["trigger_fires"], trigger_calls), "ratio"),
        "filters.offline_step_self_s": (tr.self_s("filters.offline_step"), "s"),
        "filters.offline_trigger_self_s": (tr.self_s("filters.offline_trigger"), "s"),
        "topology.record_rssi_calls": (tr.calls("topology.record_rssi"), "count"),
        "topology.record_rssi_self_s": (tr.self_s("topology.record_rssi"), "s"),
        "topology.duplicate_samples": (c["duplicate_samples"], "count"),
        "topology.update_smoothed_self_s": (tr.self_s("topology.update_smoothed"), "s"),
        "topology.bft_scan_self_s": (
            tr.self_s("topology.count_recent_bft", "topology.recent_bft_senders", "topology.has_seen_bft"),
            "s",
        ),
        "localization.verify_calls": (verify_calls, "count"),
        "localization.verify_self_s": (tr.self_s("localization.locate_and_verify"), "s"),
        "localization.verdicts_verified": (c["verdict_verified"], "count"),
        "localization.verdicts_contradicted": (c["verdict_contradicted"], "count"),
        "localization.verdicts_insufficient": (c["verdict_insufficient_data"], "count"),
        "localization.verdict_ratio": (_ratio(decided, verify_calls), "ratio"),
        "localization.solve_calls": (tr.calls("localization.multilaterate"), "count"),
        "localization.solve_self_s": (tr.self_s("localization.multilaterate"), "s"),
        "messages.location_key_calls": (tr.calls("messages.location_key"), "count"),
        "messages.location_key_self_s": (tr.self_s("messages.location_key"), "s"),
        "harness.self_s": (tr.self_s("harness.run"), "s"),
        "harness.write_traces_s": (tr.total_s("harness.write_traces"), "s"),
        "harness.trace_bytes": (c["trace_bytes"], "bytes"),
        "scenario.build_s": (tr.self_s("scenario.builtin_scenario", "scenario.from_dict"), "s"),
        "cli.self_s": (tr.self_s("cli.cmd_filters"), "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_pct": (100.0 * _ratio(traced_s - untraced_s, untraced_s), "%"),
    }
