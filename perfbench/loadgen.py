"""Open-loop load generator for `aved serve`.

One process, one thread, at most `conns` Unix-socket connections.  It
reads a schedule written by run.py (every request with the time it is
due, relative to the start, and the connection it goes out on), sends
each request when it is due whatever the daemon is doing, pipelines
freely, and matches responses to requests by the envelope `id`.

Latency is timed from the *scheduled* send time, so a daemon stall is
charged to every request that should have gone out during it
(coordinated-omission safe).  The generator's own lateness — the time
between a request falling due and the generator handing it to its
connection — is recorded separately; run.py marks a run invalid when
that lateness is large, instead of reporting it as a slowdown.

Usage: python3 loadgen.py PLAN.json RESULT.json
"""

import gc
import json
import selectors
import socket
import sys
import time

V2_ERROR_CODES = {"bad_request", "check_error", "overloaded", "deadline", "internal"}


def check_envelope(env, kind):
    """Return None if `env` is a valid v2 envelope for a `kind` request,
    else a one-line reason."""
    if not isinstance(env, dict):
        return "envelope is not an object"
    if env.get("schema_version") != 2:
        return "schema_version is not 2"
    if not isinstance(env.get("trace_id"), str):
        return "missing trace_id"
    ok = env.get("ok")
    if ok is True:
        if not isinstance(env.get("coalesced"), bool):
            return "v2 success without a boolean coalesced"
        result = env.get("result")
        if not isinstance(result, dict) or result.get("schema_version") != 2:
            return "result is not a v2 object"
        if kind == "health" and result.get("status") != "ok":
            return "health status is not ok"
        if env.get("coalesced") and kind == "health":
            return "health reply marked coalesced"
        return None
    if ok is False:
        err = env.get("error")
        if not isinstance(err, dict) or err.get("code") not in V2_ERROR_CODES:
            return "error without a v2 code"
        if not isinstance(err.get("message"), str):
            return "error without a message"
        return None
    return "ok is not a boolean"


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()


def main(plan_path, result_path):
    with open(plan_path) as f:
        plan = json.load(f)
    requests = plan["requests"]  # [t_due, conn, id, phase, kind, line]
    keep = set(plan.get("keep_ids", []))
    drain_s = plan.get("drain_s", 15.0)

    conns = [Conn(plan["socket"]) for _ in range(plan["conns"])]
    sel = selectors.DefaultSelector()
    for i, c in enumerate(conns):
        sel.register(c.sock, selectors.EVENT_READ, i)

    lines = [(r[0], r[1], r[2], (r[5] + "\n").encode()) for r in requests]
    kind_of = {r[2]: r[4] for r in requests}
    pending = {}  # id -> (t_due, t_enqueued)
    received = {}  # id -> (lag_s, latency_s, raw line)
    problems = []

    def on_line(raw, t_recv):
        # Only the id is read while the schedule runs; the envelope is
        # validated after the last response, off the timed path.
        try:
            head = raw[:64]
            start = head.index(b'"id":') + 5
            rid = int(head[start:head.index(b",", start)])
        except ValueError:
            problems.append("response line without a leading integer id")
            return
        if rid not in pending:
            problems.append("response id %r matches no outstanding request" % (rid,))
            return
        t_due, t_enq = pending.pop(rid)
        received[rid] = (t_enq - t_due, t_recv - t_due, raw)

    def pump(timeout):
        for key, _ in sel.select(timeout):
            c = conns[key.data]
            try:
                chunk = c.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            t_recv = time.perf_counter() - t0
            if not chunk:
                sel.unregister(c.sock)
                problems.append("daemon closed a connection")
                continue
            c.inbuf += chunk
            while True:
                nl = c.inbuf.find(b"\n")
                if nl < 0:
                    break
                on_line(bytes(c.inbuf[:nl]), t_recv)
                del c.inbuf[: nl + 1]

    def flush():
        for c in conns:
            if c.out:
                try:
                    n = c.sock.send(c.out)
                    del c.out[:n]
                except BlockingIOError:
                    pass

    # No collector pauses on the timed path; the run is short and its
    # garbage is bounded by the schedule.
    gc.disable()
    t0 = time.perf_counter()
    i = 0
    n = len(lines)
    while i < n:
        now = time.perf_counter() - t0
        while i < n and lines[i][0] <= now:
            t_due, ci, rid, data = lines[i]
            conns[ci].out += data
            pending[rid] = (t_due, now)
            i += 1
        flush()
        # select() waits in whole milliseconds, so it sleeps until the
        # last millisecond and time.sleep() covers the rest.  No
        # busy-waiting: a spinning generator would take cycles from the
        # daemon on hosts whose cores share execution units.
        wait = lines[i][0] - (time.perf_counter() - t0) if i < n else 0.0
        if wait > 0.002:
            pump(wait - 0.0015)
        else:
            pump(0)
            wait = lines[i][0] - (time.perf_counter() - t0) if i < n else 0.0
            if wait > 0:
                time.sleep(wait)
    deadline = time.perf_counter() + drain_s
    while pending and time.perf_counter() < deadline:
        flush()
        pump(0.05)
    for c in conns:
        c.sock.close()

    done = {}  # id -> [lag_s, latency_s, status, coalesced, trace_id]
    kept = {}
    for rid, (lag, latency, raw) in received.items():
        try:
            env = json.loads(raw)
        except ValueError:
            env = None
        reason = check_envelope(env, kind_of[rid])
        if reason is None and env["id"] != rid:
            reason = "id changed in the envelope"
        if reason is not None:
            status = "invalid: " + reason
        elif env["ok"]:
            status = "ok"
        else:
            status = env["error"]["code"]
        coalesced = bool(env.get("coalesced")) if isinstance(env, dict) else False
        trace_id = env.get("trace_id") if isinstance(env, dict) else None
        done[rid] = [lag, latency, status, coalesced, trace_id]
        if rid in keep:
            kept[rid] = raw.decode()
    for rid, (t_due, t_enq) in pending.items():
        done[rid] = [t_enq - t_due, None, "lost", False, None]
    with open(result_path, "w") as f:
        json.dump(
            {"records": {str(k): v for k, v in done.items()}, "kept": kept,
             "problems": problems},
            f,
        )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
