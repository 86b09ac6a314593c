"""HTTP load generator for serve_sharded, run as its own process.

Started by ``program.py`` with the server URL and the answer size; it
reads one JSON command per line on stdin and answers each with one JSON
line on stdout:

* ``{"cmd": "load", "requests": [[query, preset], ...]}`` — the request
  stream (position ``i`` sends ``requests[i % len]``);
* ``{"cmd": "closed", "start": i, "count": n}`` — a closed loop of
  ``n`` requests on one keep-alive connection (the reply adds
  ``elapsed``, to the end of its last request);
* ``{"cmd": "open", "start": i, "count": n, "rate": r}`` — an open
  loop of ``n`` requests on a fixed schedule over :data:`CONNECTIONS` connections, each
  request timed from when it was due;
* ``{"cmd": "quit"}``.

Every request yields a record ``[position, latency_s, ok, answer]``:
``ok`` is ``True`` or the reason the reply is unusable (HTTP status,
degraded, failed shards) and ``answer`` is ``[[doc_id, score], ...]``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from urllib.parse import urlencode, urlsplit

CONNECTIONS = 2


class Client:
    def __init__(self, url: str, top_k: int) -> None:
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.top_k = top_k
        self.connection = http.client.HTTPConnection(self.host, self.port, timeout=60)

    def search(self, query: str, preset: str):
        path = "/search?" + urlencode({"q": query, "top_k": self.top_k, "scoring": preset})
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        body = response.read()
        if response.status != 200:
            return f"http {response.status}", []
        payload = json.loads(body)
        answer = [[row["doc_id"], row["score"]] for row in payload["results"]]
        if payload.get("degraded"):
            return "degraded", answer
        if payload.get("shards", {}).get("failed", 0):
            return "shards failed", answer
        return True, answer

    def close(self) -> None:
        self.connection.close()


def closed(client: Client, requests, start: int, count: int) -> dict:
    records = []
    begin = end = time.perf_counter()
    for position in range(start, start + count):
        query, preset = requests[position % len(requests)]
        ok, answer = client.search(query, preset)
        now = time.perf_counter()
        records.append([position, now - end, ok, answer])
        end = now
    return {"records": records, "elapsed": end - begin}


def open_loop(clients, requests, start: int, total: int, rate: float) -> dict:
    records = [None] * total
    late = [0.0] * total
    counter = iter(range(total))
    lock = threading.Lock()
    begin = time.perf_counter() + 0.01

    def worker(client: Client) -> None:
        while True:
            with lock:
                k = next(counter, None)
            if k is None:
                return
            due = begin + k / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            late[k] = (time.perf_counter() - due) * 1e3
            query, preset = requests[(start + k) % len(requests)]
            ok, answer = client.search(query, preset)
            records[k] = [start + k, time.perf_counter() - due, ok, answer]

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "late_ms": late}


def main(argv) -> int:
    url, top_k = argv[0], int(argv[1])
    clients = [Client(url, top_k) for _ in range(CONNECTIONS)]
    requests = []
    try:
        for line in sys.stdin:
            command = json.loads(line)
            kind = command["cmd"]
            if kind == "quit":
                reply = {}
            elif kind == "load":
                requests = command["requests"]
                reply = {}
            elif kind == "closed":
                reply = closed(clients[0], requests, command["start"], command["count"])
            elif kind == "open":
                reply = open_loop(
                    clients, requests, command["start"], command["count"], command["rate"]
                )
            else:
                raise ValueError(f"unknown command {kind!r}")
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
            if kind == "quit":
                break
    finally:
        for client in clients:
            client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
