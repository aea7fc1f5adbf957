"""Scale-out probe: one process with 2 workers against 2 shards x 1 worker.

Two closed-loop HTTP clients, each a user whose home shard differs from
the other's (no cross-shard reads), each querying a 6,000-row table it
uploaded: executor-bound group-bys, then point reads.  Every statement
text is new, so the result cache never hits.  Each server runs in its own
subprocess; modes alternate.  Queries are polled over HTTP (1 ms sleep,
one connection per request), so point-read rates carry that overhead.

    PYTHONPATH=src python3 benchmarks/scaleout.py [seconds] [repetitions]
"""
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

from repro.cluster.router import shard_for_user

ROWS = 6000
SECONDS = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
REPS = int(sys.argv[2]) if len(sys.argv) > 2 else 2


def users():
    picked = {}
    for index in range(100):
        name = "user%d" % index
        picked.setdefault(shard_for_user(name, 2), name)
        if len(picked) == 2:
            return [picked[0], picked[1]]


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def call(base, user, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method,
                                     headers={"X-SQLShare-User": user,
                                              "Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def query(base, user, sql):
    status, payload = call(base, user, "POST", "/api/v1/query", {"sql": sql})
    assert status == 202, (status, payload)
    while True:
        status, payload = call(base, user, "GET", "/api/v1/query/%s/results" % payload["id"])
        if status != 202:
            assert status == 200, (status, payload)
            return payload
        time.sleep(0.001)


def start(mode, port):
    env = dict(os.environ)
    if mode == "single":
        code = ("from repro.server.rest import serve; from repro.runtime import RuntimeConfig; "
                "serve(port=%d, runtime_config=RuntimeConfig(max_workers=2, monitor_enabled=False))"
                ".serve_forever()" % port)
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", str(port), "--shards", "2",
               "--shard-workers", "1", "--ephemeral", "--no-monitor"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    base = "http://127.0.0.1:%d" % port
    for _ in range(600):
        try:
            if call(base, "probe", "GET", "/api/v1/health")[0] in (200, 503):
                return proc, base
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server did not start")


def csv(seed):
    rng = random.Random(seed)
    lines = ["id,grp,v,note"]
    for index in range(1, ROWS + 1):
        lines.append("%d,g%02d,%.3f,n%d" % (index, rng.randint(1, 40), rng.uniform(0, 100), index))
    return "\n".join(lines) + "\n"


def sql_for(kind, table, index):
    if kind == "groupby":
        return ("SELECT grp, COUNT(*) AS n, AVG(v) AS m, MAX(note) AS x FROM [%s] "
                "WHERE v >= %.3f GROUP BY grp" % (table, (index % 5000) * 0.001 + index // 5000))
    return "SELECT * FROM [%s] WHERE id = %d" % (table, 1 + index % ROWS)


def run(mode, kind):
    proc, base = start(mode, free_port())
    try:
        names = users()
        for slot, user in enumerate(names):
            status, payload = call(base, user, "POST", "/api/v1/upload",
                                   {"name": "t_%s" % user, "data": csv(slot)})
            assert status in (200, 201, 202), (status, payload)
        counts = [0, 0]
        stop = time.monotonic() + SECONDS

        def client(slot):
            user = names[slot]
            index = slot * 100000
            while time.monotonic() < stop:
                query(base, user, sql_for(kind, "t_%s" % user, index))
                index += 1
                counts[slot] += 1

        started = time.monotonic()
        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(counts) / (time.monotonic() - started)
    finally:
        proc.terminate()
        proc.wait(timeout=30)


if __name__ == "__main__":
    for rep in range(REPS):
        for kind in ("groupby", "point"):
            for mode in (("single", "cluster") if rep % 2 == 0 else ("cluster", "single")):
                print("%s rep %d %-7s %6.1f ops/s" % (kind, rep, mode, run(mode, kind)), flush=True)
