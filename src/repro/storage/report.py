"""Operational status report for a running database.

``status_report(db)`` assembles one structured snapshot -- scheme,
protection level, space overhead, virtual-time event breakdown, audit and
checkpoint state, transaction counters -- and ``render_status(db)`` turns
it into the text an operator would read.  Everything here is read-only
and costs nothing on the virtual clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.reporting import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.database import Database


def status_report(db: "Database") -> dict:
    """A structured snapshot of the database's protection and activity."""
    scheme = db.scheme
    table = scheme.codeword_table
    tables = {
        name: {
            "capacity": t.capacity,
            "record_size": t.schema.record_size,
            "index": type(t.index).__name__ if t.index is not None else None,
        }
        for name, t in db.tables.items()
    }
    report = {
        "scheme": {
            "name": scheme.name,
            "members": [member.name for member in db.pipeline.members],
            "direct_protection": scheme.direct_protection,
            "indirect_protection": scheme.indirect_protection,
            "region_size": getattr(scheme, "region_size", None),
            "region_count": table.region_count if table is not None else 0,
            "space_overhead_pct": round(scheme.space_overhead * 100, 3),
        },
        "memory": {
            "size_bytes": db.memory.size,
            "page_size": db.memory.page_size,
            "pages": db.memory.page_count,
            "segments": len(db.memory.segments),
            "dirty_pages_pending_A": len(db.memory.dirty_pages.pending_for("A")),
            "dirty_pages_pending_B": len(db.memory.dirty_pages.pending_for("B")),
        },
        "transactions": {
            "committed": db.manager.committed_count,
            "aborted": db.manager.aborted_count,
            "active": len(db.manager.att),
        },
        "log": {
            "next_lsn": db.system_log.next_lsn,
            "stable_through_lsn": db.system_log.end_of_stable_lsn,
            "tail_records": db.system_log.tail_records,
        },
        "audits": {
            "runs": db.auditor.audits_run,
            "failures": db.auditor.failures,
            "audit_sn": db.auditor.last_clean_audit_lsn,
        },
        "checkpoints": {
            "taken": db.checkpointer.checkpoints_taken,
            "anchor": db.checkpointer.read_anchor(),
        },
        "virtual_time_s": round(db.clock.now_seconds, 6),
        "events": {
            event: {"count": count, "total_ns": ns}
            for event, (count, ns) in db.meter.snapshot().items()
        },
        "tables": tables,
        "access": dict(db.stats),
    }
    return report


def render_status(db: "Database", top_events: int = 10) -> str:
    """Human-readable status text."""
    report = status_report(db)
    scheme = report["scheme"]
    lines = [
        f"scheme: {scheme['name']}  "
        f"(direct: {scheme['direct_protection']}, "
        f"indirect: {scheme['indirect_protection']}, "
        f"space overhead: {scheme['space_overhead_pct']}%)",
        f"memory: {report['memory']['size_bytes']:,} bytes in "
        f"{report['memory']['segments']} segments / "
        f"{report['memory']['pages']} pages",
        f"transactions: {report['transactions']['committed']} committed, "
        f"{report['transactions']['aborted']} aborted, "
        f"{report['transactions']['active']} active",
        f"log: lsn {report['log']['next_lsn']} "
        f"(stable through {report['log']['stable_through_lsn']}, "
        f"{report['log']['tail_records']} in tail)",
        f"audits: {report['audits']['runs']} run, "
        f"{report['audits']['failures']} failed, "
        f"Audit_SN = {report['audits']['audit_sn']}",
        f"checkpoints: {report['checkpoints']['taken']} taken, "
        f"anchor = {report['checkpoints']['anchor']}",
        f"virtual time: {report['virtual_time_s']} s",
    ]
    events = sorted(
        report["events"].items(), key=lambda kv: -kv[1]["total_ns"]
    )[:top_events]
    if events:
        rows = [
            [event, f"{data['count']:,}", f"{data['total_ns'] / 1e6:,.2f} ms"]
            for event, data in events
        ]
        lines.append("")
        lines.append(
            render_table(
                ["event", "count", "virtual time"], rows, title="top cost events"
            )
        )
    return "\n".join(lines)
