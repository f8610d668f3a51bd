"""The fault-injection harness.

The injector sits between a :class:`FaultPolicy` and a live
deployment.  Installation hooks every connector (the connector's
``_guarded`` retry loop calls :meth:`before_call` ahead of each
attempt) and applies the policy's link faults to the network.  The
injector never mutates query results — it only raises structured
errors the resilience layer must absorb.
"""

from __future__ import annotations

import random
import re
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineUnavailableError, TransientConnectorError
from repro.faults.policy import FaultPolicy


def _references_table(detail: Optional[str], table: str) -> bool:
    """Whether a call payload mentions ``table`` as a whole identifier.

    Word-bounded so shard names stay distinct (``orders__p3`` must not
    match a call touching ``orders__p30``).
    """
    if not detail:
        return False
    return (
        re.search(
            rf"\b{re.escape(table)}\b", detail, flags=re.IGNORECASE
        )
        is not None
    )


class FaultInjector:
    """Interprets a :class:`FaultPolicy` against guarded connector calls."""

    def __init__(self, policy: FaultPolicy):
        self.policy = policy
        self._rng = random.Random(policy.seed)
        # the overload benchmark injects faults from concurrent client
        # threads; the counters and RNG draw must stay consistent
        self._lock = threading.Lock()
        #: guarded calls seen per DBMS (attempts, including retries)
        self.calls_by_db: Dict[str, int] = {}
        #: matching calls per shard-scoped outage, keyed (db, table)
        self.calls_by_shard: Dict[Tuple[str, str], int] = {}
        #: matching-call counters per scripted fault (by index)
        self._script_hits: List[int] = [0] * len(policy.scripted)
        #: injected transient errors (for reporting)
        self.injected_transients = 0
        #: guarded calls rejected by an engine outage
        self.injected_outage_rejections = 0
        #: schema drifts already applied (each fires once)
        self._drifts_applied: List[bool] = [False] * len(policy.drifts)
        self.injected_drifts = 0
        self._deployment = None

    # -- lifecycle ------------------------------------------------------

    def install(self, deployment) -> "FaultInjector":
        """Hook every connector and apply link faults; returns self."""
        if self._deployment is not None:
            raise ValueError("fault injector is already installed")
        self._deployment = deployment
        for connector in deployment.connectors.values():
            connector.fault_injector = self
        network = deployment.network
        for fault in self.policy.link_faults:
            if fault.partitioned:
                network.partition_link(
                    fault.src, fault.dst, symmetric=fault.symmetric
                )
            if fault.latency_factor != 1.0 or fault.bandwidth_factor != 1.0:
                network.degrade_link(
                    fault.src,
                    fault.dst,
                    latency_factor=fault.latency_factor,
                    bandwidth_factor=fault.bandwidth_factor,
                    symmetric=fault.symmetric,
                )
        return self

    def uninstall(self) -> None:
        """Remove the hooks and heal every injected link fault."""
        if self._deployment is None:
            return
        for connector in self._deployment.connectors.values():
            if connector.fault_injector is self:
                connector.fault_injector = None
        network = self._deployment.network
        for fault in self.policy.link_faults:
            if fault.partitioned:
                network.heal_link(
                    fault.src, fault.dst, symmetric=fault.symmetric
                )
            if fault.latency_factor != 1.0 or fault.bandwidth_factor != 1.0:
                network.restore_link(
                    fault.src, fault.dst, symmetric=fault.symmetric
                )
        self._deployment = None

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # -- probes (non-consuming) ----------------------------------------

    def engine_down(self, db: str) -> bool:
        """Whether the *next* guarded call to ``db`` would hit an outage.

        A probe: consumes neither the call counter nor the RNG, so the
        annotator can test availability without perturbing the fault
        schedule.  Shard-scoped outages do not count — they strike one
        table, not the engine.
        """
        outage = self._outage_for(db)
        if outage is None:
            return False
        return outage.down_at(self.calls_by_db.get(db, 0) + 1)

    def shard_down(self, db: str, table: str) -> bool:
        """Whether the next call touching ``db.table`` would be struck.

        The shard-level twin of :meth:`engine_down`, equally
        non-consuming.
        """
        for outage in self.policy.outages:
            if (
                outage.db == db
                and outage.table is not None
                and outage.table.lower() == table.lower()
            ):
                key = (db, outage.table.lower())
                if outage.down_at(self.calls_by_shard.get(key, 0) + 1):
                    return True
        return False

    def _outage_for(self, db: str):
        for outage in self.policy.outages:
            if outage.db == db and outage.table is None:
                return outage
        return None

    def _apply_drift(self, drift) -> None:
        if self._deployment is None:
            return
        # Imported lazily: repro.drift pulls in the engine layer, which
        # the injector itself must not depend on at import time.
        from repro.drift.mutate import apply_drift

        apply_drift(self._deployment.database(drift.db), drift)
        self.injected_drifts += 1

    # -- the injection point -------------------------------------------

    def before_call(self, db: str, op: str, detail: Optional[str] = None) -> None:
        """Called by the connector ahead of every guarded attempt.

        Raises the injected fault, if any; otherwise returns and the
        real call proceeds.  ``detail`` is the call's payload when the
        connector has one (rendered DDL, query text, a table name) —
        shard-scoped outages match against it.
        """
        with self._lock:
            count = self.calls_by_db.get(db, 0) + 1
            self.calls_by_db[db] = count

            # Shard-scoped outages first: they consume their own
            # matching-call counters and never touch the engine-wide
            # schedule, so composing them with whole-engine faults
            # stays deterministic.
            for outage in self.policy.outages:
                if (
                    outage.db != db
                    or outage.table is None
                    or not _references_table(detail, outage.table)
                ):
                    continue
                key = (db, outage.table.lower())
                shard_count = self.calls_by_shard.get(key, 0) + 1
                self.calls_by_shard[key] = shard_count
                if outage.down_at(shard_count):
                    self.injected_outage_rejections += 1
                    raise EngineUnavailableError(
                        f"injected shard outage: {outage.table!r} on "
                        f"DBMS {db!r} is unreachable (matching call "
                        f"{shard_count}, outage after "
                        f"{outage.after_calls})",
                        db=db,
                        table=outage.table,
                    )

            # Schema drifts fire once, when their target engine's call
            # counter passes the trigger — the mutation lands *before*
            # the call proceeds, like a DBA's DDL racing the federation.
            for index, drift in enumerate(self.policy.drifts):
                if (
                    not self._drifts_applied[index]
                    and drift.db == db
                    and count > drift.after_calls
                ):
                    self._drifts_applied[index] = True
                    self._apply_drift(drift)

            outage = self._outage_for(db)
            if outage is not None and outage.down_at(count):
                self.injected_outage_rejections += 1
                raise EngineUnavailableError(
                    f"injected outage: DBMS {db!r} is down "
                    f"(call {count}, outage after {outage.after_calls})",
                    db=db,
                )

            for index, scripted in enumerate(self.policy.scripted):
                if scripted.matches(db, op):
                    self._script_hits[index] += 1
                    if self._script_hits[index] == scripted.nth:
                        self.injected_transients += 1
                        raise TransientConnectorError(
                            f"injected scripted fault: {op} call "
                            f"#{scripted.nth} on {db!r}"
                        )

            rate = self.policy.rate_for(db)
            if rate > 0.0 and self._rng.random() < rate:
                self.injected_transients += 1
                raise TransientConnectorError(
                    f"injected transient error on {db!r} during {op}"
                )
