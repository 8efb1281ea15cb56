"""The benchmark's workloads: inputs, set-up, traffic, and oracles.

Every workload is a closed loop with one client in one process.  All
inputs derive from the run's seed.  Services use the defaults a user gets
(``engine="kd"``, default sample size) with ``n_shards=2`` and
``eps=0.2``.  Each workload implements:

- ``setup(instr)`` -- raw arrays to ready to serve: constructor, ``warm()``
  and one throwaway Pref leaf per rank ``k`` so no user pays that build;
- ``read(seconds, rec)`` -- the timed traffic; answers are kept for the
  oracle, which runs afterwards;
- ``verify_reads()`` -- the oracle for the timed answers; returns one
  message per failed request;
- ``ingest(seconds, rec)`` -- ``add_datasets`` latency (the churn stream
  times the adds it interleaves with its reads instead);
- ``close()`` -- stops every server, pool and thread it started.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from oracle import check_service_answer
from quantile import quantile
from repro import QueryService, Repository
from repro.core.bitset import bitmap_from_wire
from repro.core.measures import PreferenceMeasure
from repro.core.predicates import Expression, Predicate
from repro.geometry.interval import Interval
from repro.service.federation import (
    FederatedCoordinator,
    federated_node_service,
    make_federation_server,
)
from repro.service.server import expression_to_json, make_server
from repro.workloads.generators import synthetic_data_lake
from repro.workloads.queries import ambient_gaussian_dataset, batched_query_workload
from spans import SpanRecorder

EPS = 0.2
N_SHARDS = 2
PREF_RANKS = (3, 5)
MEDIAN_SIZE = 200
SIZE_SIGMA = 0.4
N_INGEST = 100
FED_BATCH = 16


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list = field(default_factory=list)  # seconds per read request
    sizes: list = field(default_factory=list)  # expressions per read request
    ingest: list = field(default_factory=list)  # seconds per add_datasets
    removes: int = 0  # remove_datasets calls
    rebuilds: int = 0  # adds that fell back to a full rebuild
    errors: list = field(default_factory=list)  # failed requests

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.ingest) + self.removes

    def record(self, seconds: float, queries: int = 1) -> None:
        self.latencies.append(seconds)
        self.sizes.append(queries)

    @property
    def queries(self) -> int:
        return sum(self.sizes)

    def read_figures(self) -> dict:
        """``qps`` (expressions over the time their requests took) and the
        p50/p90 read latency in seconds, over every read of the phase.

        Pooled, so a program stall counts in full however it falls in
        time.  Per-window summaries (the median window, or the fast-side
        quartile of windows) miss stalls that hit few windows, and the
        median window spread wider from run to run than these figures.
        """
        if not self.latencies:
            return {"qps": 0.0, "p50": 0.0, "p90": 0.0}
        return {"qps": self.queries / sum(self.latencies),
                "p50": quantile(self.latencies, 0.5),
                "p90": quantile(self.latencies, 0.9)}

    def ingest_figures(self) -> dict:
        """The p50/p90 ``add_datasets`` latency in seconds, over every add."""
        if not self.ingest:
            return {"p50": 0.0, "p90": 0.0}
        return {"p50": quantile(self.ingest, 0.5), "p90": quantile(self.ingest, 0.9)}

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.sizes += other.sizes
        self.ingest += other.ingest
        self.removes += other.removes
        self.rebuilds += other.rebuilds
        self.errors += other.errors


def make_lake(n: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    return synthetic_data_lake(
        n, dim, rng, family="clustered", median_size=MEDIAN_SIZE,
        size_sigma=SIZE_SIGMA,
    )


def build_service(arrays: list, seed: int) -> QueryService:
    return QueryService(
        repository=Repository.from_arrays(arrays),
        n_shards=N_SHARDS,
        eps=EPS,
        seed=seed,
    )


def prime_pref(service: QueryService, dim: int, rng: np.random.Generator) -> None:
    """Build every Pref rank's index with throwaway leaves."""
    for k in PREF_RANKS:
        v = rng.normal(size=dim)
        leaf = Predicate(PreferenceMeasure(v / np.linalg.norm(v), k=k),
                         Interval.at_least(float(rng.uniform(0.2, 1.0))))
        service.search(leaf)


def timed(rec: Optional[SpanRecorder], fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run one request under the benchmark's own request span."""
    span = rec.open("request") if rec is not None else None
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.close(span)
    return out, dt


class Workload:
    name = ""
    dim = 1
    n = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.arrays = make_lake(self.n, self.dim, np.random.default_rng((seed, 1)))
        self.box = Repository.from_arrays(self.arrays).bounding_box()
        self.service: Optional[QueryService] = None
        #: Set by the traced run: re-instruments executors that mutation
        #: creates (the delta engine, rebuilt executors).
        self.instr: Any = None

    # -- set-up ----------------------------------------------------------
    def setup(self, instr: Any = None) -> None:
        self.service = build_service(self.arrays, self.seed)
        if instr is not None:
            instr.install_service(self.service)
        self.service.warm()
        prime_pref(self.service, self.dim, np.random.default_rng((self.seed, 2)))

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def services(self) -> list:
        return [self.service]

    def install(self, instr: Any) -> None:
        for svc in self.services():
            instr.install_service(svc)

    def metadata(self) -> dict:
        ex = self.services()[0].executor
        return {
            "n_datasets": self.n,
            "dim": self.dim,
            "sample_size": ex.sample_size,
            "eps_effective": ex.eps_effective,
        }

    # -- traffic ---------------------------------------------------------
    def warmup(self) -> None:
        """Untimed work between set-up and the timed phase."""

    def read(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        raise NotImplementedError

    def ingest(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        """``N_INGEST`` timed adds of one dataset each, inside the bounding
        box, paced evenly over ``seconds``: a writer that adds a dataset
        now and then while the service idles.  Every add is timed.

        Paced this far apart (75 ms over 7.5 s), every add finds the
        caches cold and costs about the same; back-to-back adds are 3-5x
        cheaper, and 5 ms apart they mix the two costs from run to run.
        """
        phase = Phase()
        rng = np.random.default_rng((self.seed, 3))
        t0 = time.perf_counter()
        for i in range(N_INGEST):
            arr = ambient_gaussian_dataset(rng, self.box, MEDIAN_SIZE)
            add = self.add_request(arr)
            time.sleep(max(0.0, t0 + seconds * i / N_INGEST - time.perf_counter()))
            receipt, dt = timed(rec, add)
            phase.ingest.append(dt)
            if self.instr is not None:  # the first add makes a delta engine
                for svc in self.services():
                    self.instr.install_executor(svc.executor)
            self.arrays.append(arr)
            phase.rebuilds += bool(receipt["rebuilt"])
            if receipt["indexes"] != [len(self.arrays) - 1]:
                phase.errors.append(f"add receipt {receipt['indexes']}")
        return phase

    def add_request(self, arr: np.ndarray) -> Callable[[], dict]:
        """The call that adds one dataset and returns its receipt."""
        return lambda: self.service.add_datasets([arr])

    def verify_reads(self) -> list:
        raise NotImplementedError

    def sample_leaves(self, limit: int) -> list:
        raise NotImplementedError


class InProcessReads(Workload):
    """Single-query ``search`` calls; answers kept for the oracle."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.answered: list = []  # (tag, expression, bitmap)

    def next_query(self) -> tuple[Any, Expression]:
        raise NotImplementedError

    def read(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        phase = Phase()
        svc = self.service
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            tag, expr = self.next_query()
            result, dt = timed(rec, lambda: svc.search(expr))
            phase.record(dt)
            if result.stats.get("degraded"):
                phase.errors.append("degraded answer")
            self.keep(tag, expr, result.bitmap)
        return phase

    def keep(self, tag: Any, expr: Expression, bits: Any) -> None:
        """Hold an answer for ``verify_reads``."""
        self.answered.append((tag, expr, bits))

    def sample_leaves(self, limit: int) -> list:
        leaves: dict = {}
        for _tag, expr, _bits in self.answered:
            for leaf in expr.leaves():
                leaves.setdefault(leaf.canonical_key(), leaf)
                if len(leaves) >= limit:
                    return list(leaves.items())
        return list(leaves.items())


class Cold2D(InProcessReads):
    """Fresh 2-D Ptile/Pref predicates: the leaf cache never hits."""

    name = "cold-2d"
    dim = 2
    n = 80

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._qrng = np.random.default_rng((seed, 4))
        self._pending: list = []

    def next_query(self) -> tuple[Any, Expression]:
        if not self._pending:
            self._pending = batched_query_workload(
                64, self.dim, self._qrng, pref_fraction=0.3,
                duplicate_leaf_rate=0.0, max_leaves=3,
            )[::-1]
        return None, self._pending.pop()

    def verify_reads(self) -> list:
        errors = []
        for _tag, expr, bits in self.answered:
            why = check_service_answer(self.service, expr, set(bits.to_list()),
                                       self.arrays)
            if why is not None:
                errors.append(why)
        return errors


class Warm1D(InProcessReads):
    """A fixed pool whose working set fits the leaf cache."""

    name = "warm-1d"
    dim = 1
    n = 320
    pool_size = 160

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = batched_query_workload(
            self.pool_size, self.dim, np.random.default_rng((seed, 4)),
            pref_fraction=0.3, duplicate_leaf_rate=0.5, max_leaves=3,
        )
        self.first: list = []
        self.changed: list = []  # pool indexes whose warm answer changed
        self._order = np.random.default_rng((seed, 5))

    def warmup(self) -> None:
        self.first = [r.bitmap for r in self.service.search_batch(self.pool)]

    def next_query(self) -> tuple[Any, Expression]:
        i = int(self._order.integers(len(self.pool)))
        return i, self.pool[i]

    def keep(self, tag: Any, expr: Expression, bits: Any) -> None:
        """Compare with the first answer now, after the request's clock
        stopped, rather than hold the answers of ~10^5 requests until the
        run ends."""
        if bits != self.first[tag]:
            self.changed.append(tag)

    def verify_reads(self) -> list:
        errors = []
        for q, bits in zip(self.pool, self.first):
            why = check_service_answer(self.service, q, set(bits.to_list()), self.arrays)
            if why is not None:
                errors.append("first answer: " + why)
        for i in self.changed:
            errors.append(f"warm answer of pool query {i} changed")
        return errors

    def sample_leaves(self, limit: int) -> list:
        leaves: dict = {}
        for expr in self.pool:
            for leaf in expr.leaves():
                leaves.setdefault(leaf.canonical_key(), leaf)
        return list(leaves.items())[:limit]


def churn_stream(
    rng: np.random.Generator, n_initial: int, box: Any, n_blocks: int
) -> list:
    """``mutation_workload``'s events with stratified kinds.

    Every block of 20 events holds exactly 3 adds (two datasets inside
    ``box`` each), 2 removals of a live dataset and 15 single-query reads,
    in random order.  The reads come from one ``batched_query_workload``
    pool with leaf-reuse rate 0.6, shared by the whole stream.
    ``mutation_workload`` draws each event's kind independently, so the
    number of reads between two adds -- and with it the read latency
    mix of a time-bounded run -- varied widely from seed to seed.
    """
    queries = iter(batched_query_workload(
        15 * n_blocks, 1, rng, pref_fraction=0.3, duplicate_leaf_rate=0.6,
        max_leaves=3,
    ))
    live = list(range(n_initial))
    next_index = n_initial
    events: list = []
    for _ in range(n_blocks):
        kinds = ["add"] * 3 + ["remove"] * 2 + ["queries"] * 15
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "add":
                arrays = [ambient_gaussian_dataset(rng, box, MEDIAN_SIZE) for _ in range(2)]
                live += [next_index, next_index + 1]
                next_index += 2
                events.append(("add", arrays))
            elif kind == "remove":
                events.append(("remove", [live.pop(int(rng.integers(len(live))))]))
            else:
                events.append(("queries", [next(queries)]))
    return events


class Churn1D(Workload):
    """Single-query reads interleaved with adds (15%) and removals (10%).

    One untimed batch caches the stream's queries before the clock starts,
    as on a lake that has served this traffic for a while.  Timed reads
    then upgrade cached answers from the delta shard -- the path this
    workload exists to measure -- or hit, and miss only after a rebalance
    rebuild flushes the cache.  (Without the warm-up, two thirds of reads
    missed, and the median read sat on the edge between the upgrade and
    the miss latency modes.)

    The stream drifts by design: the delta shard grows with every add, so
    adds and reads get dearer until the add that triggers the rebalance
    rebuild.  A run therefore covers a fixed stretch of events, not a
    fixed time -- one delta cycle, closed by the first read after the
    rebalance (which builds the new shards) -- so the work of a run does
    not depend on how fast the host is.  ``--seconds`` sets the event
    budget at ``events_per_s`` per second; at 10 s it exceeds the cycle.
    """

    name = "churn-1d"
    dim = 1
    n = 160
    n_blocks = 16  # 320 events; the cycle closes within the first 15 blocks
    events_per_s = 30
    final_checks = 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.events = churn_stream(
            np.random.default_rng((seed, 4)), self.n, self.box, self.n_blocks
        )
        self.cursor = 0
        self.seen: dict = {}  # canonical key -> expression
        self.mutated = False  # a mutation since the last checked read
        self.rebalanced = False  # an add of this cycle rebuilt
        self.cycle_done = False

    def warmup(self) -> None:
        pool = {p[0].canonical_key(): p[0] for k, p in self.events if k == "queries"}
        self.service.search_batch(list(pool.values()))

    def read(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        phase = Phase()
        svc = self.service
        stop = min(len(self.events), self.cursor + round(seconds * self.events_per_s))
        while self.cursor < stop and not self.cycle_done:
            kind, payload = self.events[self.cursor]
            self.cursor += 1
            if kind == "queries":
                expr = payload[0]
                result, dt = timed(rec, lambda: svc.search(expr))
                phase.record(dt)
                self.seen[expr.canonical_key()] = expr
                self.cycle_done = self.rebalanced
                if result.stats.get("degraded"):
                    phase.errors.append("degraded answer")
                elif self.mutated:
                    self._check(expr, result, phase)
                    self.mutated = False
            elif kind == "add":
                receipt, dt = timed(rec, lambda: svc.add_datasets(payload))
                phase.ingest.append(dt)
                self.arrays.extend(payload)
                phase.rebuilds += bool(receipt["rebuilt"])
                self.rebalanced |= bool(receipt["rebuilt"])
                if receipt["indexes"][-1] != len(self.arrays) - 1:
                    phase.errors.append(f"add receipt {receipt['indexes']}")
            else:
                timed(rec, lambda: svc.remove_datasets(payload))
                phase.removes += 1
            if kind != "queries":
                self.mutated = True
                if self.instr is not None:
                    self.instr.install_executor(svc.executor)
        return phase

    def _check(self, expr: Expression, result: Any, phase: Phase) -> None:
        """Recall 1 and the slack band against the live lake, on the first
        read after each mutation."""
        why = check_service_answer(self.service, expr, set(result.indexes), self.arrays)
        if why is not None:
            phase.errors.append(why)

    def ingest(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        return Phase()  # the stream's own adds are the ingest samples

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["events"] = self.cursor
        meta["cycle_closed"] = self.cycle_done
        return meta

    def verify_reads(self) -> list:
        """Final answers equal a fresh service over the live datasets.

        The fresh service shares the churned one's frozen accuracy frame:
        the same seeded synopses, bounding box and sample size, and a
        failure probability that resolves to the same ``eps_effective``
        at the live count.
        """
        ex = self.service.executor
        live = sorted(set(range(ex.n_datasets)) - ex.removed)
        n_acc = round(1.0 / ex.phi_eff)
        grown = len(live) > n_acc
        fresh = QueryService(
            repository=Repository.from_arrays([self.arrays[i] for i in live]),
            synopses=[ex.synopses[i] for i in live],
            n_shards=N_SHARDS,
            eps=EPS,
            phi=ex.phi_eff * len(live) / n_acc if grown else ex.phi_eff,
            sample_size=ex.sample_size,
            bounding_box=ex.bounding_box,
            capacity=None if grown else n_acc,
            seed=ex.seed,
        )
        try:
            if not np.isclose(fresh.executor.eps_effective, ex.eps_effective,
                              rtol=1e-12, atol=0.0):
                return ["fresh service resolved a different eps_effective"]
            queries = list(self.seen.values())[-self.final_checks:]
            errors = []
            for q in queries:
                got = self.service.search(q).indexes
                want = sorted(live[j] for j in fresh.search(q).indexes)
                if got != want:
                    errors.append("final answer differs from a fresh service")
            return errors
        finally:
            fresh.close()

    def sample_leaves(self, limit: int) -> list:
        leaves: dict = {}
        for expr in self.seen.values():
            for leaf in expr.leaves():
                leaves.setdefault(leaf.canonical_key(), leaf)
        return list(leaves.items())[:limit]


def reference_answers(arrays: list, pool: list, seed: int) -> list:
    """One in-process service's answers to ``pool``, over ``arrays``."""
    service = build_service(arrays, seed)
    try:
        return [r.bitmap for r in service.search_batch(pool)]
    finally:
        service.close()


class _Server:
    """One HTTP server on an ephemeral loopback port, in its own thread."""

    def __init__(self, httpd: Any) -> None:
        self.httpd = httpd
        self.thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        self.thread.start()
        self.port = httpd.server_address[1]

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)


class Federated1D(Warm1D):
    """``warm-1d``'s lake and pool over two nodes behind a coordinator."""

    name = "federated-1d"
    n_nodes = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.nodes: list = []
        self.servers: list = []
        self.coordinator: Optional[FederatedCoordinator] = None
        self.conn: Optional[http.client.HTTPConnection] = None
        self.add_conn: Optional[http.client.HTTPConnection] = None
        self.pool_json = [expression_to_json(q) for q in self.pool]
        # In a child process, so the reference service's memory never
        # counts in this process's peak_rss_mb.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as ex:
            self.reference = ex.submit(
                reference_answers, self.arrays, self.pool, seed
            ).result()

    def setup(self, instr: Any = None) -> None:
        per = self.n // self.n_nodes
        rng = np.random.default_rng((self.seed, 2))
        for i in range(self.n_nodes):
            svc = federated_node_service(
                self.arrays[i * per:(i + 1) * per], offset=i * per, total=self.n,
                bounding_box=self.box, seed=self.seed, n_shards=N_SHARDS, eps=EPS,
            )
            if instr is not None:
                instr.install_service(svc)
            svc.warm()
            prime_pref(svc, self.dim, rng)
            self.nodes.append(svc)
            self.servers.append(_Server(make_server(svc, host="127.0.0.1", port=0)))
        self.coordinator = FederatedCoordinator(seed=self.seed)
        for server, svc in zip(self.servers, self.nodes):
            ex = svc.executor
            self.coordinator.add_node(
                f"http://127.0.0.1:{server.port}", synopses=list(ex.synopses),
                eps=ex.eps, eps_effective=ex.eps_effective,
            )
        self.servers.append(_Server(
            make_federation_server(self.coordinator, host="127.0.0.1", port=0)
        ))
        self.conn = http.client.HTTPConnection("127.0.0.1", self.servers[-1].port,
                                               timeout=60)
        self.add_conn = http.client.HTTPConnection(
            "127.0.0.1", self.servers[self.n_nodes - 1].port, timeout=60
        )

    def close(self) -> None:
        for conn in (self.conn, self.add_conn):
            if conn is not None:
                conn.close()
        for server in self.servers:
            server.stop()
        if self.coordinator is not None:
            self.coordinator.close()
        for svc in self.nodes:
            svc.close()
        self.nodes, self.servers, self.coordinator = [], [], None
        self.conn = self.add_conn = None

    def services(self) -> list:
        return self.nodes

    def install(self, instr: Any) -> None:
        instr.install_federation(self.coordinator, self.nodes)

    def _post(self, path: str, body: bytes,
              conn: Optional[http.client.HTTPConnection] = None) -> bytes:
        conn = conn or self.conn
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"{path} answered {resp.status}: {data[:200]!r}")
        return data

    def _batch_body(self, idx: list) -> bytes:
        return json.dumps({"expressions": [self.pool_json[i] for i in idx],
                           "format": "bitset"}).encode()

    def warmup(self) -> None:
        idx = list(range(len(self.pool)))
        self.answered.append((idx, self._post("/search/batch", self._batch_body(idx))))

    def read(self, seconds: float, rec: Optional[SpanRecorder]) -> Phase:
        phase = Phase()
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            idx = [int(i) for i in self._order.integers(len(self.pool), size=FED_BATCH)]
            body = self._batch_body(idx)
            data, dt = timed(rec, lambda: self._post("/search/batch", body))
            phase.record(dt, len(idx))
            self.answered.append((idx, data))
        return phase

    def add_request(self, arr: np.ndarray) -> Callable[[], dict]:
        """``POST /datasets`` to the last node, the body encoded before the
        clock starts.  The node answers with local indexes, shifted to
        global ones."""
        body = json.dumps({"datasets": [arr.tolist()]}).encode()
        offset = (self.n_nodes - 1) * (self.n // self.n_nodes)

        def add() -> dict:
            receipt = json.loads(self._post("/datasets", body, self.add_conn))
            return {"indexes": [offset + i for i in receipt["indexes"]],
                    "rebuilt": receipt["rebuilt"]}

        return add

    def verify_reads(self) -> list:
        """Bit-identical to one in-process service over the whole lake."""
        errors = []
        for idx, data in self.answered:
            for i, result in zip(idx, json.loads(data)["results"]):
                if result.get("degraded"):
                    errors.append("degraded federated answer")
                elif bitmap_from_wire(result["bitset"]) != self.reference[i]:
                    errors.append(f"federated answer of pool query {i} differs")
        return errors

    def metadata(self) -> dict:
        meta = super().metadata()
        meta["n_nodes"] = self.n_nodes
        return meta


WORKLOADS = {w.name: w for w in (Cold2D, Warm1D, Churn1D, Federated1D)}
