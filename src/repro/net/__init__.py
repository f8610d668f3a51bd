"""Simulated network: nodes, links, and transfer accounting.

The network never moves real bytes — engines run in-process — but every
inter-DBMS fetch and every control message is priced here and
attributed to the active query's context, which is what the paper's
data-transfer experiments (Fig. 1 shading, Fig. 14) measure, and what
the schedule simulator uses to derive transfer times.  The network
itself keeps no history.  Links can be transiently degraded or
partitioned (fault injection); ``metrics`` aggregates one query's
transfers and connector resilience counters.
"""

from repro.net.network import LinkSpec, Network, TransferRecord
from repro.net.metrics import (
    ConnectorResilience,
    ResilienceSummary,
    TransferSummary,
    summarize,
)

__all__ = [
    "ConnectorResilience",
    "LinkSpec",
    "Network",
    "ResilienceSummary",
    "TransferRecord",
    "TransferSummary",
    "summarize",
]
