"""Persistent run ledger: the verification flight recorder.

PR 3's tracing made a *single* run visible; everything still evaporated
at process exit.  The ledger is the durable half: an append-only SQLite
database (stdlib :mod:`sqlite3`, schema-versioned, one transaction per
run) recording every ``verify`` / ``verify-batch`` / ``diff`` /
``analyze`` invocation —

* identity: a short random ``run_id`` (also the log correlation id),
  the CLI command and argv, wall-clock start/finish;
* reproducibility anchors: a content hash of the loaded configs
  (canonical device forms, so comment/whitespace edits do not change
  it) and the semantic :class:`EncoderOptions` fingerprint from
  :func:`repro.analysis.deps.options_fingerprint`;
* outcomes: one row per query (verdict, cached/replayed flag, how it
  was decided — ``sat`` or ``simulation`` —, CNF sizes, conflicts,
  timing split);
* telemetry rollups: per-phase span totals and the full metrics
  snapshot, so ``repro history`` can diff where time and formula size
  went between any two recorded runs without the original trace files.

The ledger is the substrate the ROADMAP's verification-as-a-service
item needs (run records keyed by config hash = snapshot ids), and
``repro history compare`` gives any user run-over-run regression
checks on their own corpus: record two runs, diff them, gate CI on
the result.

Concurrency: writers use SQLite's own locking (one short IMMEDIATE
transaction per run); readers never block writers beyond that.  The
format is append-only — nothing ever updates or deletes a run row.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["LedgerError", "RunLedger", "RunRecord", "build_record",
           "compare_runs", "default_ledger_path", "network_hash",
           "texts_hash"]

SCHEMA_VERSION = 1

#: Environment override for the ledger location; the CLI default is a
#: dotfile next to the verdict cache convention (``.repro-verdicts``).
ENV_VAR = "REPRO_LEDGER"
DEFAULT_FILENAME = ".repro-ledger.sqlite"


class LedgerError(Exception):
    """The ledger file cannot be used (wrong schema, unknown run, ...)."""


def default_ledger_path() -> str:
    return os.environ.get(ENV_VAR) or DEFAULT_FILENAME


def network_hash(network) -> str:
    """Content hash of a whole network: SHA-256 over every device's
    canonical config form, order-independent."""
    from repro.analysis.deps import device_hash

    digest = hashlib.sha256()
    for name in sorted(network.devices):
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(device_hash(network.devices[name]).encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def texts_hash(texts: Dict[str, str]) -> str:
    """Content hash over raw config texts (filename → text), for paths
    that never build a :class:`Network` (``repro analyze``)."""
    digest = hashlib.sha256()
    for name in sorted(texts):
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(texts[name].encode())
        digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class RunRecord:
    """One run, ready to append (or as read back from the ledger)."""

    run_id: str
    command: str
    argv: List[str] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    config_hash: str = ""
    options: str = ""
    workload: Dict[str, Any] = field(default_factory=dict)
    queries: List[Dict[str, Any]] = field(default_factory=list)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return max(0.0, self.finished - self.started)

    def verdict_summary(self) -> str:
        """``"3/4 hold"``-style summary (or a diagnostics count)."""
        if not self.queries:
            if "diagnostics" in self.extra:
                return f"{self.extra['diagnostics']} finding(s)"
            return "-"
        holding = sum(1 for q in self.queries if q.get("holds") is True)
        text = f"{holding}/{len(self.queries)} hold"
        cached = sum(1 for q in self.queries if q.get("cached"))
        if cached:
            text += f" ({cached} cached)"
        return text


def build_record(command: str,
                 argv: Sequence[str] = (),
                 *,
                 run_id: Optional[str] = None,
                 network=None,
                 options=None,
                 results: Sequence = (),
                 tracer=None,
                 started: Optional[float] = None,
                 config_hash: Optional[str] = None,
                 extra: Optional[Dict[str, Any]] = None) -> RunRecord:
    """Assemble a :class:`RunRecord` from the run's artifacts.

    ``results`` are :class:`~repro.core.verifier.VerificationResult`
    objects (possibly paired with query names via ``.property_name``);
    ``tracer`` contributes phase rollups over its spans — worker spans
    included, since the batch engine merges worker buffers into the
    active tracer at join — and the metrics snapshot.
    """
    from repro.obs.log import new_run_id

    record = RunRecord(
        run_id=run_id or new_run_id(),
        command=command,
        argv=list(argv),
        started=started if started is not None else time.time(),
        finished=time.time(),
        extra=dict(extra or {}))
    if network is not None:
        record.config_hash = network_hash(network)
        record.workload = {
            "routers": len(network.devices),
            "links": len(network.internal_links()),
            "externals": len(network.externals),
        }
    if config_hash is not None:
        record.config_hash = config_hash
    if options is not None:
        from repro.analysis.deps import options_fingerprint

        record.options = options_fingerprint(options)
    for index, result in enumerate(results):
        record.queries.append({
            "idx": index,
            "name": getattr(result, "property_name", str(result)),
            "holds": result.holds,
            "cached": bool(getattr(result, "cached", False)),
            "seconds": result.seconds,
            "encode_seconds": result.encode_seconds,
            "solve_seconds": result.solve_seconds,
            "vars": result.num_variables,
            "clauses": result.num_clauses,
            "conflicts": result.conflicts,
            "message": result.message,
            "method": getattr(result, "method", "sat"),
        })
    if tracer is not None and getattr(tracer, "enabled", False):
        phases: Dict[str, Dict[str, float]] = {}
        for span in tracer.spans:
            row = phases.setdefault(
                span["name"], {"count": 0, "total_seconds": 0.0})
            row["count"] += 1
            row["total_seconds"] += span["duration"]
        record.phases = phases
        record.metrics = tracer.metrics.snapshot()
    return record


_CREATE = [
    """CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS runs (
        seq INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id TEXT UNIQUE NOT NULL,
        command TEXT NOT NULL,
        argv TEXT NOT NULL,
        started REAL NOT NULL,
        finished REAL NOT NULL,
        config_hash TEXT NOT NULL DEFAULT '',
        options TEXT NOT NULL DEFAULT '',
        workload TEXT NOT NULL DEFAULT '{}',
        phases TEXT NOT NULL DEFAULT '{}',
        metrics TEXT NOT NULL DEFAULT '{}',
        extra TEXT NOT NULL DEFAULT '{}')""",
    """CREATE TABLE IF NOT EXISTS queries (
        run_id TEXT NOT NULL,
        idx INTEGER NOT NULL,
        name TEXT NOT NULL,
        holds INTEGER,
        cached INTEGER NOT NULL DEFAULT 0,
        seconds REAL NOT NULL DEFAULT 0.0,
        encode_seconds REAL NOT NULL DEFAULT 0.0,
        solve_seconds REAL NOT NULL DEFAULT 0.0,
        vars INTEGER NOT NULL DEFAULT 0,
        clauses INTEGER NOT NULL DEFAULT 0,
        conflicts INTEGER NOT NULL DEFAULT 0,
        message TEXT NOT NULL DEFAULT '',
        method TEXT NOT NULL DEFAULT 'sat',
        PRIMARY KEY (run_id, idx))""",
    """CREATE INDEX IF NOT EXISTS idx_runs_config
        ON runs (config_hash, started)""",
]


class RunLedger:
    """Append-only SQLite store of :class:`RunRecord` rows.

    Usable as a context manager; connections are opened lazily so
    constructing a ledger that is never written creates no file.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path or default_ledger_path()
        self._conn: Optional[sqlite3.Connection] = None

    # -- lifecycle ------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.row_factory = sqlite3.Row
            try:
                with conn:
                    for statement in _CREATE:
                        conn.execute(statement)
                    self._check_schema(conn)
            except LedgerError:
                conn.close()
                raise
            except sqlite3.DatabaseError as exc:
                conn.close()
                raise LedgerError(
                    f"{self.path} is not a usable ledger: {exc}") from exc
            self._conn = conn
        return self._conn

    def _check_schema(self, conn: sqlite3.Connection) -> None:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            return
        version = int(row["value"])
        if version > SCHEMA_VERSION:
            raise LedgerError(
                f"{self.path} has schema v{version}; this build "
                f"understands up to v{SCHEMA_VERSION} — upgrade repro "
                "or point --ledger at a fresh file")
        # version <= SCHEMA_VERSION: additive migrations.  A ledger
        # written before ``queries.method`` existed gains the column;
        # its rows were all decided by the SAT search.
        columns = {r["name"] for r in conn.execute(
            "PRAGMA table_info(queries)")}
        if "method" not in columns:
            conn.execute("ALTER TABLE queries ADD COLUMN "
                         "method TEXT NOT NULL DEFAULT 'sat'")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- writing --------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Write one run in a single transaction; returns the run id."""
        conn = self._connect()
        with conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                """INSERT INTO runs (run_id, command, argv, started,
                       finished, config_hash, options, workload, phases,
                       metrics, extra)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)""",
                (record.run_id, record.command,
                 json.dumps(record.argv),
                 record.started, record.finished,
                 record.config_hash, record.options,
                 json.dumps(record.workload, sort_keys=True),
                 json.dumps(record.phases, sort_keys=True),
                 json.dumps(record.metrics, sort_keys=True),
                 json.dumps(record.extra, sort_keys=True)))
            conn.executemany(
                """INSERT INTO queries (run_id, idx, name, holds, cached,
                       seconds, encode_seconds, solve_seconds, vars,
                       clauses, conflicts, message, method)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)""",
                [(record.run_id, q["idx"], q["name"],
                  None if q["holds"] is None else int(q["holds"]),
                  int(q.get("cached", False)),
                  q.get("seconds", 0.0),
                  q.get("encode_seconds", 0.0),
                  q.get("solve_seconds", 0.0),
                  q.get("vars", 0), q.get("clauses", 0),
                  q.get("conflicts", 0), q.get("message", ""),
                  q.get("method", "sat"))
                 for q in record.queries])
        return record.run_id

    # -- reading --------------------------------------------------------

    def runs(self, limit: Optional[int] = None,
             command: Optional[str] = None) -> List[Dict[str, Any]]:
        """Run summaries, newest first."""
        if not os.path.exists(self.path):
            return []
        conn = self._connect()
        sql = ("SELECT seq, run_id, command, argv, started, finished, "
               "config_hash, options, workload, extra FROM runs")
        params: List[Any] = []
        if command:
            sql += " WHERE command = ?"
            params.append(command)
        sql += " ORDER BY seq DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        out = []
        for row in conn.execute(sql, params):
            verdicts = conn.execute(
                "SELECT holds, cached FROM queries WHERE run_id = ?",
                (row["run_id"],)).fetchall()
            out.append({
                "seq": row["seq"],
                "run_id": row["run_id"],
                "command": row["command"],
                "argv": json.loads(row["argv"]),
                "started": row["started"],
                "seconds": max(0.0, row["finished"] - row["started"]),
                "config_hash": row["config_hash"],
                "queries": len(verdicts),
                "holding": sum(1 for v in verdicts if v["holds"] == 1),
                "cached": sum(1 for v in verdicts if v["cached"]),
                "extra": json.loads(row["extra"]),
            })
        return out

    def get(self, ref: str) -> RunRecord:
        """Load one run by id, unique id prefix, or ``-N`` index
        (``-1`` = most recent).  Raises :class:`LedgerError` when the
        reference is unknown or ambiguous."""
        if not os.path.exists(self.path):
            raise LedgerError(f"no ledger at {self.path}")
        conn = self._connect()
        row = None
        if ref.startswith("-") and ref[1:].isdigit():
            rows = conn.execute(
                "SELECT * FROM runs ORDER BY seq DESC LIMIT 1 OFFSET ?",
                (int(ref[1:]) - 1,)).fetchall()
            if rows:
                row = rows[0]
        else:
            matches = conn.execute(
                "SELECT * FROM runs WHERE run_id = ? "
                "OR run_id LIKE ? ORDER BY seq", (ref, ref + "%")
            ).fetchall()
            exact = [m for m in matches if m["run_id"] == ref]
            if exact:
                row = exact[0]
            elif len(matches) == 1:
                row = matches[0]
            elif len(matches) > 1:
                ids = ", ".join(m["run_id"] for m in matches[:5])
                raise LedgerError(f"run prefix {ref!r} is ambiguous "
                                  f"({ids}, ...)")
        if row is None:
            raise LedgerError(f"no run {ref!r} in {self.path}")
        queries = [
            {"idx": q["idx"], "name": q["name"],
             "holds": None if q["holds"] is None else bool(q["holds"]),
             "cached": bool(q["cached"]),
             "seconds": q["seconds"],
             "encode_seconds": q["encode_seconds"],
             "solve_seconds": q["solve_seconds"],
             "vars": q["vars"], "clauses": q["clauses"],
             "conflicts": q["conflicts"], "message": q["message"],
             "method": q["method"]}
            for q in conn.execute(
                "SELECT * FROM queries WHERE run_id = ? ORDER BY idx",
                (row["run_id"],))]
        return RunRecord(
            run_id=row["run_id"],
            command=row["command"],
            argv=json.loads(row["argv"]),
            started=row["started"],
            finished=row["finished"],
            config_hash=row["config_hash"],
            options=row["options"],
            workload=json.loads(row["workload"]),
            queries=queries,
            phases=json.loads(row["phases"]),
            metrics=json.loads(row["metrics"]),
            extra=json.loads(row["extra"]))

    def __len__(self) -> int:
        if not os.path.exists(self.path):
            return 0
        conn = self._connect()
        return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]


# ---------------------------------------------------------------------------
# Run-over-run comparison (the `repro history compare` core)
# ---------------------------------------------------------------------------

#: Deterministic per-query count metrics: identical workload + code →
#: identical values, so any growth beyond the threshold is a real
#: regression, not runner noise.  Timing fields are reported but gate
#: only when the caller opts in.
COUNT_FIELDS = ("vars", "clauses", "conflicts")
TIME_FIELDS = ("seconds", "encode_seconds", "solve_seconds")

#: Timing drift below this absolute growth (seconds) is never flagged:
#: a 0.2 ms phase doubling is scheduler noise, not a regression.
TIME_NOISE_FLOOR = 0.005


def compare_runs(old: RunRecord, new: RunRecord,
                 threshold: float = 0.10,
                 time_threshold: float = 0.50,
                 gate_timings: bool = False) -> Dict[str, Any]:
    """Structured run-over-run diff with regression classification.

    ``threshold`` bounds growth of the deterministic count metrics
    (fraction over the old value: 0.10 = +10%); ``time_threshold``
    bounds the timing fields; verdict flips always regress.  Returns::

        {"queries": [...], "phases": [...],
         "regressions": [...], "warnings": [...],
         "missing": [names], "added": [names]}

    where ``regressions`` are gate-failing rows (CI exit code 1) and
    ``warnings`` are advisory (timing drift without ``gate_timings``).
    """
    report: Dict[str, Any] = {
        "old": old.run_id, "new": new.run_id,
        "config_changed": (bool(old.config_hash) and bool(new.config_hash)
                           and old.config_hash != new.config_hash),
        "options_changed": old.options != new.options,
        "queries": [], "phases": [],
        "regressions": [], "warnings": [],
        "missing": [], "added": [],
    }
    old_by_name = {q["name"]: q for q in old.queries}
    new_by_name = {q["name"]: q for q in new.queries}
    report["missing"] = sorted(set(old_by_name) - set(new_by_name))
    report["added"] = sorted(set(new_by_name) - set(old_by_name))

    def _verdict(value) -> str:
        return {True: "HOLDS", False: "VIOLATED", None: "UNKNOWN"}[value]

    for name in [q["name"] for q in old.queries
                 if q["name"] in new_by_name]:
        q_old, q_new = old_by_name[name], new_by_name[name]
        entry: Dict[str, Any] = {"name": name,
                                 "old_holds": q_old["holds"],
                                 "new_holds": q_new["holds"],
                                 "deltas": {}}
        if q_old["holds"] != q_new["holds"]:
            report["regressions"].append(
                f"{name}: verdict {_verdict(q_old['holds'])} -> "
                f"{_verdict(q_new['holds'])}")
        for fields, bound, hard in ((COUNT_FIELDS, threshold, True),
                                    (TIME_FIELDS, time_threshold,
                                     gate_timings)):
            for fld in fields:
                a, b = q_old.get(fld, 0), q_new.get(fld, 0)
                entry["deltas"][fld] = {"old": a, "new": b}
                if not (a and b > a * (1.0 + bound)):
                    continue
                if fld in TIME_FIELDS and b - a < TIME_NOISE_FLOOR:
                    continue
                text = (f"{name}: {fld} {a} -> {b} "
                        f"(+{(b / a - 1) * 100:.0f}%, "
                        f"threshold +{bound * 100:.0f}%)")
                (report["regressions"] if hard
                 else report["warnings"]).append(text)
        report["queries"].append(entry)

    names = sorted(set(old.phases) | set(new.phases))
    for name in names:
        a = old.phases.get(name, {}).get("total_seconds", 0.0)
        b = new.phases.get(name, {}).get("total_seconds", 0.0)
        report["phases"].append({"name": name, "old": a, "new": b})
        if (a > 0 and b > a * (1.0 + time_threshold)
                and b - a >= TIME_NOISE_FLOOR):
            text = (f"phase {name}: {a * 1e3:.1f}ms -> {b * 1e3:.1f}ms "
                    f"(+{(b / a - 1) * 100:.0f}%, threshold "
                    f"+{time_threshold * 100:.0f}%)")
            (report["regressions"] if gate_timings
             else report["warnings"]).append(text)
    return report
