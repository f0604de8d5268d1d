"""Per-layer tracing: wrap the program's public functions and methods, count
their calls and measure their self time.

Self time is the time spent in a wrapped call minus the time spent in wrapped
calls nested inside it. ``Simulation.step`` is wrapped too and keyed on the
kind of the event it returns, so the engine's own code is split by event
kind. Nothing here reads a private attribute of the program; a wrapped name
that no longer exists stops the traced run with an error naming it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

EVENT_KINDS = (
    "packet-arrival",
    "tx-complete",
    "slot-boundary",
    "round-setup",
    "sleep-expiry",
    "idle-expiry",
    "mobility-step",
    "node-death",
    "cache-delivery",
)

# Layer metric prefix -> (module, public name). Each gets .calls and _s.
COUNTED = {
    "cache.store": ("ecsim.cache", "CacheStore.store"),
    "cache.deliver_on_wake": ("ecsim.cache", "CacheStore.deliver_on_wake"),
    "cache.evict_expired": ("ecsim.cache", "CacheStore.evict_expired"),
    "cache.volume_for": ("ecsim.cache", "CacheStore.volume_for"),
    "cache.hosting_delay": ("ecsim.cache", "CacheStore.hosting_delay"),
    "scheduler.compute_sleep": ("ecsim.scheduler", "compute_sleep"),
    "scheduler.backward_diff": ("ecsim.scheduler", "backward_diff"),
    "scheduler.pairwise_idle_decision": ("ecsim.scheduler", "pairwise_idle_decision"),
    "scheduler.record_active": ("ecsim.scheduler", "ActivityLedger.record_active"),
    "cluster.form_clusters": ("ecsim.cluster", "form_clusters"),
    "cluster.elect_roles": ("ecsim.cluster", "elect_roles"),
    "topology.neighbors_of": ("ecsim.topology", "ConnectivityGraph.neighbors_of"),
    "topology.refresh_node": ("ecsim.topology", "refresh_node"),
    "topology.move_step": ("ecsim.topology", "move_step"),
    "topology.build_connectivity": ("ecsim.topology", "build_connectivity"),
    "core.consume": ("ecsim.core", "consume"),
}

# Layer metric prefix -> public names whose self time is summed into <prefix>_s.
TIMED = {
    "traffic.generate": (("ecsim.traffic", "generate"),),
    "config.from_dict": (("ecsim.config", "from_dict"),),
    "report.finalize": (("ecsim.report", "finalize"),),
    "report.serialize": (
        ("ecsim.report", "MetricsReport.to_json"),
        ("ecsim.report", "MetricsReport.timeseries_csv"),
        ("ecsim.report", "trace_csv"),
        ("ecsim.report", "compare_csv"),
    ),
}


class MissingTarget(LookupError):
    """A function or method the tracer wraps is gone from the program."""


def _resolve(module_name: str, qualname: str):
    """(owner, attribute name, current value) of a public name."""
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except AttributeError:
        raise MissingTarget(f"traced name {module_name}.{qualname} no longer exists") from None


class Tracer:
    """Counts and self times of the wrapped public names, while installed."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.events: Counter[str] = Counter()
        self.step_s: defaultdict[str, float] = defaultdict(float)
        self.retries = 0
        self.stored = 0
        self.stored_packets: set[int] = set()
        self.handed = 0
        self._stack: list[float] = []  # time of wrapped children, per open call
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _timed(self, metric: str, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[metric] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, module_name: str, qualname: str, wrapper_for) -> None:
        owner, name, original = _resolve(module_name, qualname)
        wrapped = wrapper_for(original)
        if "." in qualname:
            self._set(owner, name, wrapped)
            return
        # A function is also bound by name in every module that imported it.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ecsim" or mod_name.startswith("ecsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original and not attr.startswith("_"):
                    self._set(module, attr, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target; on a missing target nothing stays wrapped."""
        try:
            self._patch("ecsim.engine", "Simulation.step", self._step_wrapper)
            after = {"cache.store": self._after_store, "cache.deliver_on_wake": self._after_deliver}
            for metric, (module_name, qualname) in COUNTED.items():
                self._patch(
                    module_name,
                    qualname,
                    lambda fn, m=metric: self._timed(m, fn, after.get(m)),
                )
            for metric, targets in TIMED.items():
                for module_name, qualname in targets:
                    self._patch(module_name, qualname, lambda fn, m=metric: self._timed(m, fn))
        except MissingTarget:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-target bookkeeping ------------------------------------------------

    def _step_wrapper(self, step):
        stack = self._stack

        def wrapper(sim):
            stack.append(0.0)
            start = perf_counter()
            try:
                event = step(sim)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if event is not None:
                kind = event.kind.value
                self.events[kind] += 1
                self.step_s[kind] += own
                if kind == "packet-arrival" and event.payload.get("retry"):
                    self.retries += 1
            return event

        return wrapper

    def _after_store(self, args, result) -> None:
        if result.value == "accepted":
            self.stored += 1
            self.stored_packets.add(args[1].id)

    def _after_deliver(self, args, result) -> None:
        self.handed += len(result)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        events = sum(self.events.values())
        out: dict[str, float] = {"engine.events": events}
        for kind in EVENT_KINDS:
            out[f"engine.events.{kind}"] = self.events[kind]
        for kind in EVENT_KINDS:
            out[f"engine.step_s.{kind}"] = self.step_s[kind]
        out["engine.step_self_s"] = sum(self.step_s.values())
        out["engine.retries"] = self.retries
        arrivals = self.events["packet-arrival"]
        out["engine.tx_per_arrival"] = self.events["tx-complete"] / arrivals if arrivals else 0.0
        for metric in COUNTED:
            out[f"{metric}.calls"] = self.calls[metric]
            out[f"{metric}_s"] = self.self_s[metric]
        for metric in TIMED:
            out[f"{metric}_s"] = self.self_s[metric]
        out["cache.store.accepted"] = self.stored
        out["cache.stores_per_packet"] = (
            self.stored / len(self.stored_packets) if self.stored_packets else 0.0
        )
        out["cache.handed_entries"] = self.handed
        return out
