"""Protocol and server behaviour tests for ``repro.serve``.

Three layers:

* pure protocol functions (golden frames, malformed-frame rejection) —
  no sockets, no server;
* one server on a Unix socket driven through :class:`ServeClient` and
  through raw sockets (submit/status/result/cancel/watch/jobs/ping,
  cancellation mid-cell, disconnect-during-stream, backpressure);
* store parity — a server-routed run writes the byte-identical
  artifact an in-process :func:`repro.runtime.execute` writes.
"""

import json
import os
import socket
import time

import pytest

from repro.runtime import RunSpec, RunStore, execute
from repro.serve import (MAX_FRAME_BYTES, PROTOCOL_VERSION, ProtocolError,
                         ServeClient, ServeError, decode_frame, encode_frame,
                         error_frame)
from repro.serve.protocol import parse_request, parse_specs

from .serveutil import (SMALL_SPEC, SMALL_SPECS, make_slow_worker, serve_tmp,
                        wait_terminal)


# ---------------------------------------------------------------------------
# protocol layer (no server)
# ---------------------------------------------------------------------------

def test_frame_encoding_golden():
    # The framing is pinned: compact JSON, one object per newline line.
    assert encode_frame({"op": "ping"}) == b'{"op":"ping"}\n'
    frame = {"op": "status", "job": "j000001", "id": "abc"}
    assert decode_frame(encode_frame(frame)) == frame
    assert error_frame("unknown-op", "nope") == {
        "ok": False, "code": "unknown-op", "error": "nope"}
    assert error_frame("bad-frame", "x", id="7") == {
        "ok": False, "code": "bad-frame", "error": "x", "id": "7"}


def test_decode_frame_rejects_garbage():
    for bad in (b"\xff\xfe\x00", b"not json\n", b"[1,2,3]\n", b'"str"\n',
                b"42\n"):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bad)
        assert excinfo.value.code == "bad-frame"


def test_parse_request_validation():
    assert parse_request({"op": "ping"}) == "ping"
    cases = [
        ({"op": "frobnicate"}, "unknown-op"),
        ({}, "unknown-op"),
        ({"op": 3}, "unknown-op"),
        ({"op": "status"}, "bad-request"),          # missing job id
        ({"op": "cancel", "job": ""}, "bad-request"),
        ({"op": "result", "job": 7}, "bad-request"),
        ({"op": "submit"}, "bad-request"),          # missing specs
        ({"op": "submit", "specs": []}, "bad-request"),
        ({"op": "submit", "specs": "fft"}, "bad-request"),
        ({"op": "submit", "specs": [{}], "wait": "yes"}, "bad-request"),
        ({"op": "submit", "specs": [{}], "retries": -1}, "bad-request"),
    ]
    for frame, code in cases:
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(frame)
        assert excinfo.value.code == code, frame


def test_parse_specs():
    specs = parse_specs([SMALL_SPEC.to_dict()])
    assert specs == [SMALL_SPEC]
    for bad in ([42], [{"app": "fft"}]):  # not a dict / missing fields
        with pytest.raises(ProtocolError) as excinfo:
            parse_specs(bad)
        assert excinfo.value.code == "bad-spec"


# ---------------------------------------------------------------------------
# request/response over a live server
# ---------------------------------------------------------------------------

def test_ping_reports_server_shape():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            info = client.ping()
    assert info["protocol"] == PROTOCOL_VERSION
    assert info["backend"] == "inline"
    assert info["pid"] == os.getpid()
    assert set(info["stats"]) == {"submitted", "simulated", "hits",
                                  "attached", "rejected", "store_failures"}


def test_request_id_is_echoed():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            response = client.request({"op": "ping", "id": "corr-42"})
            assert response["id"] == "corr-42"
            # ... including on error responses.
            try:
                client.request({"op": "status", "job": "zzz", "id": "corr-43"})
            except ServeError as exc:
                assert exc.code == "unknown-job"


def test_submit_wait_result_roundtrip():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC, wait=True)
            assert job["state"] == "done"
            assert job["cells"] == 1 and job["completed"] == 1
            assert job["failed"] == 0
            assert job["counts"].get("run") == 1
            assert "wall_s" in job

            response = client.result(job["id"])
            (entry,) = response["results"]
            assert entry["spec_hash"] == SMALL_SPEC.spec_hash()
            assert RunSpec.from_dict(entry["spec"]) == SMALL_SPEC
            assert entry["result"]["architecture"] == "ASCOMA"

            outcomes = client.outcomes(job["id"])
            assert outcomes[SMALL_SPEC].execution_time() > 0

            # Second submit of the same cell is served from the store.
            job2 = client.submit(SMALL_SPEC, wait=True)
            assert job2["counts"].get("hit") == 1
        assert server.stats["simulated"] == 1
        assert server.stats["hits"] == 1
        assert server.store.writes == 1


def test_duplicate_specs_collapse_in_one_submission():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit([SMALL_SPEC, SMALL_SPEC, SMALL_SPEC],
                                wait=True)
    assert job["cells"] == 1
    assert job["state"] == "done"


def test_submit_stream_emits_progress_events():
    events = []
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPECS, stream=True,
                                on_event=events.append)
    assert job["state"] == "done"
    assert all(e["job"] == job["id"] for e in events)
    states = [e["state"] for e in events if e["ev"] == "job"]
    assert states[0] == "queued"
    assert "running" in states
    assert states[-1] == "done"
    cell_names = [e["name"] for e in events if e["ev"] == "cell"]
    assert cell_names.count("run") == len(SMALL_SPECS)
    hashes = {e["spec_hash"] for e in events if e["ev"] == "cell"}
    assert hashes == {s.spec_hash() for s in SMALL_SPECS}


def test_jobs_listing():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            first = client.submit(SMALL_SPEC, wait=True)
            second = client.submit(SMALL_SPECS, wait=True)
            listed = {j["id"]: j for j in client.jobs()}
    assert set(listed) == {first["id"], second["id"]}
    assert listed[second["id"]]["cells"] == len(SMALL_SPECS)


def test_watch_live_and_terminal_job():
    events = []
    with serve_tmp(worker_fn=make_slow_worker(0.3), store=None) as (
            server, sock):
        with ServeClient(sock) as submitter, ServeClient(sock) as watcher:
            job = submitter.submit(SMALL_SPEC)  # detached
            watched = watcher.watch(job["id"], on_event=events.append)
            assert watched["state"] == "done"
            # Watching an already-terminal job answers immediately.
            again = watcher.watch(job["id"])
            assert again["state"] == "done"
    assert any(e["ev"] == "job" and e["state"] == "done" for e in events)


def test_result_before_terminal_is_not_done():
    with serve_tmp(worker_fn=make_slow_worker(0.5), store=None) as (
            server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC)
            with pytest.raises(ServeError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.code == "not-done"
            client.cancel(job["id"])


def test_unknown_job_code():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            for op in ("status", "result", "cancel", "watch"):
                with pytest.raises(ServeError) as excinfo:
                    client.request({"op": op, "job": "j999999"})
                assert excinfo.value.code == "unknown-job"


def test_cancel_mid_cell_keeps_server_alive():
    with serve_tmp(worker_fn=make_slow_worker(2.0), store=None) as (
            server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC)
            # Wait until the cell is actually in flight.
            deadline = time.monotonic() + 5.0
            while not server._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._inflight, "cell never started"
            t0 = time.monotonic()
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            # Cancellation must not wait out the 2s simulation.
            assert time.monotonic() - t0 < 1.0
            assert client.status(job["id"])["state"] == "cancelled"
            # The server keeps serving afterwards: same connection and a
            # fresh submit both work.
            assert client.ping()["live_jobs"] == 0
            job2 = client.submit(SMALL_SPEC)
            assert client.status(job2["id"])["state"] in ("queued", "running")
            client.cancel(job2["id"])


def test_cancel_terminal_job_is_idempotent():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC, wait=True)
            assert client.cancel(job["id"])["state"] == "done"


def test_backpressure_bounds_live_jobs():
    with serve_tmp(worker_fn=make_slow_worker(1.0), store=None,
                   max_queued=2) as (server, sock):
        with ServeClient(sock) as client:
            jobs = [client.submit(s) for s in SMALL_SPECS[:2]]
            with pytest.raises(ServeError) as excinfo:
                client.submit(SMALL_SPECS[2])
            assert excinfo.value.code == "backpressure"
            for job in jobs:
                client.cancel(job["id"])
            # Capacity frees up once jobs leave the live set.
            job = client.submit(SMALL_SPECS[3])
            assert job["id"]
            client.cancel(job["id"])
    assert server.stats["rejected"] == 1


def test_malformed_json_answers_then_closes():
    with serve_tmp() as (server, sock):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(5.0)
        raw.connect(sock)
        raw.sendall(b"this is not json\n")
        reply = json.loads(raw.makefile("rb").readline())
        assert reply["ok"] is False and reply["code"] == "bad-frame"
        # The stream is no longer trusted: the server hangs up ...
        assert raw.makefile("rb").readline() == b""
        raw.close()
        # ... but keeps accepting fresh connections.
        with ServeClient(sock) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION


def test_bad_request_keeps_connection_open():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request({"op": "frobnicate"})
            assert excinfo.value.code == "unknown-op"
            with pytest.raises(ServeError):
                client.request({"op": "submit", "specs": []})
            # Same connection still answers valid requests.
            assert client.ping()["protocol"] == PROTOCOL_VERSION


def test_client_disconnect_during_stream_keeps_server_and_job():
    with serve_tmp(worker_fn=make_slow_worker(0.4), store=None) as (
            server, sock):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(5.0)
        raw.connect(sock)
        raw.sendall(encode_frame({
            "op": "submit", "specs": [SMALL_SPEC.to_dict()], "stream": True}))
        # Read the first event so the stream is definitely established,
        # then vanish without saying goodbye.
        first = json.loads(raw.makefile("rb").readline())
        assert first.get("ev") == "job"
        job_id = first["job"]
        raw.close()

        with ServeClient(sock) as client:
            # Server is alive and the orphaned job ran to completion.
            job = wait_terminal(client, job_id)
            assert job["state"] == "done"
            # The dead client's stream subscription was cleaned up.
            deadline = time.monotonic() + 5.0
            while server.bus.kind_observers and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server.bus.kind_observers


def test_oversized_frame_is_rejected():
    with serve_tmp() as (server, sock):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10.0)
        raw.connect(sock)
        filler = b'{"op":"ping","pad":"' + b"x" * (MAX_FRAME_BYTES + 64)
        raw.sendall(filler + b'"}\n')
        reply = json.loads(raw.makefile("rb").readline())
        assert reply["ok"] is False and reply["code"] == "bad-frame"
        raw.close()
        with ServeClient(sock) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION


def test_shutdown_op_stops_server():
    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            assert client.shutdown() is True
        deadline = time.monotonic() + 5.0
        while os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not os.path.exists(sock)


def test_terminal_job_eviction_is_bounded():
    with serve_tmp(keep_jobs=3) as (server, sock):
        with ServeClient(sock) as client:
            for spec in SMALL_SPECS:
                client.submit(spec, wait=True)
            client.submit(SMALL_SPEC, wait=True)
            listed = client.jobs()
    assert len(listed) == 3
    assert all(j["state"] == "done" for j in listed)


# ---------------------------------------------------------------------------
# store parity with the in-process executor
# ---------------------------------------------------------------------------

def test_server_store_artifact_is_byte_identical(tmp_path):
    local_store = RunStore(tmp_path / "local")
    outcomes = execute([SMALL_SPEC], store=local_store, max_workers=1)
    assert SMALL_SPEC in outcomes

    with serve_tmp() as (server, sock):
        with ServeClient(sock) as client:
            job = client.submit(SMALL_SPEC, wait=True)
            assert job["state"] == "done"
        server_artifact = server.store.path_for(SMALL_SPEC).read_bytes()

    local_artifact = local_store.path_for(SMALL_SPEC).read_bytes()
    assert server_artifact == local_artifact
