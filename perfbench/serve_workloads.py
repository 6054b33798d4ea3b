"""The serving workload ``trickle``: durable ingest, then crash recovery.

Each run is a few *rounds*.  A round boots a fresh durable server, seeds a
fresh store with the same 2,000 tax rows, installs 4 DCs with ``remine``
f1, and then replays the run's op sequence from one closed-loop client
(one connection; each op waits for the previous reply).  Every round
replays the same sequence from the same state, so an op's latency never
depends on how many rounds ran before it.  The relation is fixed;
``--seed`` picks which rows are appended and checked, and in which order.

The client measures the host's pace (:mod:`calibrate`) around the
set-up and between the ops of the loop, and scales their times by it.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from common import BUILD, OpLog, Server
from tracing import clock

STORE = "bench"
N_BASE = 2000
#: Rows beyond the base that the seed draws appended and checked rows from.
N_POOL = 1000
#: The relation does not depend on ``--seed``; only the op sequence does.
DATA_SEED = 0
#: ``remine`` arguments that install the served DCs during set-up.
INSTALL = {"epsilon": 0.01, "function": "f1", "max_dc_size": 2, "limit": 4}

TRICKLE_APPENDS = 40
TRICKLE_CHECK_EVERY = 5

#: Rounds per run: ``setup_s`` is the median of their set-ups and
#: ``round_s`` their median replay (:func:`stats.median_replay`), both
#: host-scaled.
ROUNDS = 3

#: Op kinds whose time is the round's time.  Set-up and verification ops
#: are counted as attempted but not timed as part of a round.  ``recover``
#: (SIGKILL to first read after restart) is timed and traced but left out
#: of the round: it is one multi-second op, mostly interpreter start-up,
#: whose time the host pace around it does not predict (its own metric is
#: ``recover_s``).
ROUND_OPS = ("append", "read", "check")
TRACED_OPS = (*ROUND_OPS, "recover")

_DATA: tuple[list[dict], list[dict], dict[str, str]] | None = None


def load_data() -> tuple[list[dict], list[dict], dict[str, str]]:
    """The fixed base rows, the pool the seed draws from, and the column types."""
    global _DATA
    if _DATA is None:
        from repro.data.datasets import generate_dataset
        from repro.durability.journal import plain_rows, relation_types

        relation = generate_dataset("tax", N_BASE + N_POOL, seed=DATA_SEED).relation
        rows = plain_rows(relation)
        _DATA = rows[:N_BASE], rows[N_BASE:], relation_types(relation)
    return _DATA


def trickle_ops(seed: int, pool: list[dict]) -> list[tuple]:
    """Keyed single-row appends, each followed by a ``report``; every 5th
    also by a 1-row ``check_batch``."""
    rng = random.Random(seed)
    rows = rng.sample(pool, TRICKLE_APPENDS + TRICKLE_APPENDS // TRICKLE_CHECK_EVERY)
    appended, checked = rows[:TRICKLE_APPENDS], rows[TRICKLE_APPENDS:]
    ops: list[tuple] = []
    for index, row in enumerate(appended):
        ops.append(("append", [row], f"s{seed}-a{index}"))
        ops.append(("read",))
        if index % TRICKLE_CHECK_EVERY == TRICKLE_CHECK_EVERY - 1:
            ops.append(("check", [checked[index // TRICKLE_CHECK_EVERY]]))
    return ops


def execute(client, log: OpLog, op: tuple):
    kind = op[0]
    if kind == "append":
        return log.call(kind, client.append, STORE, op[1], request_key=op[2])
    if kind == "read":
        return log.call(kind, client.report, STORE)
    if kind == "check":
        return log.call(kind, client.check_batch, STORE, op[1])
    raise ValueError(f"unknown op {kind!r}")


@dataclass
class Round:
    """What one round measured and checked."""

    log: OpLog = field(default_factory=OpLog)
    setup_s: float = 0.0
    seed_s: float = 0.0
    rss_mb: float = 0.0
    acked_rows: int = 0
    wal_bytes: int = 0
    #: The host's pace around the set-up and between the loop's ops.
    paces: list[float] = field(default_factory=list)
    #: Host-scaled seconds of each round op that succeeded, in sequence order.
    scaled: list[float] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    spans_files: list[Path] = field(default_factory=list)

    def op_seconds(self) -> list[float]:
        """Raw seconds of each round op, in sequence order."""
        return [end - start for kind, start, end in self.log.timed if kind in ROUND_OPS]


def _client(server: Server):
    from repro.serve.client import ServeClient

    return ServeClient(server.host, server.port, timeout=120.0)


def _boot_and_seed(round_: Round, args: list[str], spans_file: Path | None) -> Server:
    base, _, types = load_data()
    round_.paces.append(calibrate.pace())
    started = clock()
    server = Server(args, spans_file)
    try:
        with _client(server) as client:
            round_.log.call("setup.create", client.create_store, STORE, base, types)
            round_.seed_s = round_.log.seconds("setup.create")[-1]
            round_.log.call("setup.install", client.remine, STORE, **INSTALL)
    except BaseException:
        server.kill()
        raise
    seconds = clock() - started
    round_.paces.append(calibrate.pace())
    round_.setup_s = calibrate.scaled(seconds, *round_.paces[-2:])
    return server


def _counts(report: dict | None) -> list[int] | None:
    return None if report is None else [entry["count"] for entry in report["report"]]


def trickle_round(ops: list[tuple], index: int, spans_dir: Path | None) -> Round:
    """Boot a durable server, trickle appends, SIGKILL it, recover, verify."""
    round_ = Round()
    log = round_.log
    data_dir = BUILD / "tmp" / f"trickle-{index}"
    shutil.rmtree(data_dir, ignore_errors=True)
    spans = [None, None] if spans_dir is None else [
        spans_dir / f"trickle-{index}-{part}.json" for part in ("live", "recovered")
    ]
    round_.spans_files = [path for path in spans if path is not None]
    args = ["--data-dir", str(data_dir)]
    server = _boot_and_seed(round_, args, spans[0])
    try:
        with _client(server) as client:
            paces = [calibrate.pace()]
            seconds: list[float | None] = []
            for op in ops:
                result = execute(client, log, op)
                paces.append(calibrate.pace())
                seconds.append(None if result is None else log.seconds(op[0])[-1])
                if op[0] == "append" and result is not None:
                    round_.acked_rows += result["appended"]
            round_.scaled = calibrate.scale_series(seconds, paces)
            round_.paces += paces
            # Peak RSS of the workload itself: the finalize that verifies
            # the counters below allocates more than the serving loop does.
            round_.rss_mb = server.peak_rss_mb()
            before = _counts(log.call("verify.report", client.report, STORE))
            finalized = [
                (log.call("verify.finalize", client.violations, STORE, dc, mode="finalize")
                 or {}).get("count")
                for dc in range(len(before or []))
            ]
            round_.checks["counters equal finalize"] = before is not None and before == finalized
            stats = log.call("verify.stats", client.stats)
            round_.wal_bytes = stats["stores"][STORE]["durability"]["wal_bytes"] if stats else 0
        if spans_dir is not None:
            server.dump_spans()
    finally:
        server.kill()

    killed = clock()
    server = Server(args, spans[1])
    try:
        with _client(server) as client:
            after = log.call("recover", client.report, STORE, start=killed)
            round_.checks["recovered n_rows"] = (
                after is not None and after["n_rows"] == N_BASE + round_.acked_rows
            )
            round_.checks["recovered counts"] = before is not None and _counts(after) == before
            first = ops[0]
            resent = log.call("verify.dedup", client.append, STORE, first[1], request_key=first[2])
            round_.checks["resent key deduplicated"] = bool(resent and resent.get("deduplicated"))
    finally:
        server.stop()
    shutil.rmtree(data_dir, ignore_errors=True)
    return round_


def run_rounds(seed: int, spans_dir: Path | None) -> list[Round]:
    """:data:`ROUNDS` rounds of the seed's op sequence."""
    _, pool, _ = load_data()
    ops = trickle_ops(seed, pool)
    return [trickle_round(ops, index, spans_dir) for index in range(ROUNDS)]
