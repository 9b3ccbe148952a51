"""Stress and fault-injection tests for the ``repro.serve`` server.

* N concurrent clients submitting overlapping specs: each unique spec
  hash simulates **exactly once** (pinned via ``RunStore.writes`` and
  the server's ``simulated`` stat), and every client receives identical
  outcomes.
* A pool worker killed mid-job fails that job with a RunFailure payload
  but leaves the server serving; the pool is rebuilt lazily.
* A raising ``store.put`` surfaces the executor's ``store-fail`` tag as
  a protocol event without losing the simulated result, and every job
  awaiting the cell counts it once, as ``store-fail``.
* 1000 sequential streamed jobs leave the server-wide EventBus observer
  lists empty — the subscription-lifecycle regression test.
"""

import asyncio
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime import RunSpec, RunStore
from repro.serve import JobServer, ServeClient

from .serveutil import (SMALL_SPEC, SMALL_SPECS, fast_worker,
                        make_slow_worker, serve_tmp, wait_terminal)

N_CLIENTS = 8


def test_concurrent_clients_simulate_each_cell_exactly_once():
    with serve_tmp(workers=4) as (server, sock):
        barrier_results = []

        def one_client(idx: int) -> dict:
            with ServeClient(sock) as client:
                job = client.submit(SMALL_SPECS, wait=True)
                assert job["state"] == "done"
                outcomes = client.outcomes(job["id"])
                return {spec.spec_hash(): result.to_dict()
                        for spec, result in outcomes.items()}

        with ThreadPoolExecutor(N_CLIENTS) as pool:
            barrier_results = list(pool.map(one_client, range(N_CLIENTS)))

        # Exactly-once per unique spec hash, server-wide: one store
        # write and one simulation per cell, no matter how many clients
        # raced.  Everyone else hit the store or attached in flight.
        assert server.store.writes == len(SMALL_SPECS)
        assert server.stats["simulated"] == len(SMALL_SPECS)
        claims = N_CLIENTS * len(SMALL_SPECS)
        assert (server.stats["hits"] + server.stats["attached"]
                == claims - len(SMALL_SPECS))

    assert len(barrier_results) == N_CLIENTS
    first = barrier_results[0]
    assert set(first) == {s.spec_hash() for s in SMALL_SPECS}
    for other in barrier_results[1:]:
        assert other == first


def test_killed_pool_worker_fails_job_not_server():
    spec = RunSpec("fft", "ASCOMA", 0.7, 0.3)  # long enough to catch
    with serve_tmp(backend="process", workers=1) as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit(spec)  # detached

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pool = server._pool
                if pool is not None and pool._processes:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker pool never spawned")
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)

            failed = wait_terminal(client, job["id"])
            assert failed["state"] == "failed"
            assert failed["failed"] == 1
            (entry,) = client.result(job["id"])["results"]
            assert "BrokenProcessPool" in entry["failure"]["error"]
            assert entry["failure"]["traceback"]

            # The broken pool was discarded; the next submit rebuilds a
            # fresh one and succeeds on the same connection.
            job2 = client.submit(SMALL_SPEC, wait=True)
            assert job2["state"] == "done"
            assert job2["counts"].get("run") == 1
        assert server.stats["simulated"] == 1


class _FailingStore(RunStore):
    """A store whose write-back always fails (read side untouched)."""

    def put(self, spec, result):
        raise OSError("disk full (injected)")


def test_store_put_failure_surfaces_tag_and_keeps_result(tmp_path):
    events = []
    with serve_tmp(store=_FailingStore(tmp_path / "bad-store")) as (
            server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC, stream=True,
                                on_event=events.append)
            # The write-back failed, the simulation did not: the job is
            # done and the result is served from the job table.
            assert job["state"] == "done"
            assert job["counts"] == {"store-fail": 1}
            outcomes = client.outcomes(job["id"])
            assert outcomes[SMALL_SPEC].execution_time() > 0
        assert server.stats["store_failures"] == 1
        assert server.stats["simulated"] == 1

    tags = [e for e in events if e["ev"] == "cell"
            and e["name"] == "store-fail"]
    assert len(tags) == 1
    assert tags[0]["spec_hash"] == SMALL_SPEC.spec_hash()
    assert "disk full (injected)" in tags[0]["error"]


def test_store_fail_counted_once_in_every_awaiting_job(tmp_path):
    """A cell whose write-back fails is one ``store-fail`` -- never also
    a ``run`` -- in the job that started it and in a job attached to it;
    the server counts the failure once."""
    with serve_tmp(store=_FailingStore(tmp_path / "bad-store"),
                   worker_fn=make_slow_worker(0.5)) as (server, sock):
        with ServeClient(sock) as client:
            first = client.submit(SMALL_SPEC)
            second = client.submit(SMALL_SPEC)
            first = wait_terminal(client, first["id"])
            second = wait_terminal(client, second["id"])
        assert server.stats["attached"] == 1
        assert server.stats["simulated"] == 1
        assert server.stats["store_failures"] == 1
    assert first["counts"] == {"store-fail": 1}
    assert second["counts"] == {"attach": 1, "store-fail": 1}


def test_event_bus_observers_do_not_grow_across_jobs():
    """1000 sequential streamed jobs: observer lists stay empty.

    Drives the protocol layer directly (no sockets) so each iteration
    exercises exactly the subscribe -> pump -> unsubscribe path a
    streaming client takes, at in-memory speed.
    """

    async def scenario():
        server = JobServer("unused.sock", store=None, backend="inline",
                           workers=4, max_queued=8, keep_jobs=8,
                           worker_fn=fast_worker)
        frames = []

        async def send(frame):
            frames.append(frame)

        submit = {"op": "submit", "specs": [SMALL_SPEC.to_dict()],
                  "stream": True}
        for i in range(1000):
            subscriptions = []
            keep_open = await server._handle_frame(dict(submit), send,
                                                   subscriptions)
            assert keep_open
            # The invariant under test: nothing this job subscribed
            # outlives it on the bus.
            assert not subscriptions
            assert not server.bus.kind_observers

        await server.drain()
        assert not server._inflight
        assert not server._refs
        assert server.stats["submitted"] == 1000
        assert len(server.jobs) <= 8
        done = [f for f in frames
                if f.get("ok") and f.get("job", {}).get("state") == "done"]
        assert len(done) == 1000

    asyncio.run(scenario())
