"""Closed-loop read load against a running sweep query service.

Two clients run as threads of the benchmark process, each sending its
next request only after the previous response arrived:

* the *dashboard* polls ``/v1/status`` then ``/v1/table``, over and
  over, until the point client is done (at least one poll);
* the *point* client fetches ``/v1/cell/{key}`` exactly
  :data:`POINT_QUERIES` times, keys in an order drawn from the seed.

The service answers one request per connection and closes it, so each
request opens its own connection.  A fixed point-query count keeps the
tail percentile (see :func:`metrics.tail`) the same on every phase.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple
from urllib.parse import urlsplit

#: Point lookups per phase; the tail is then the 97.5th percentile.
POINT_QUERIES = 400

#: Per-request socket timeout (seconds).
REQUEST_TIMEOUT_S = 20.0

#: No request starts after this many seconds of one phase; point
#: queries left unsent count as failed.
PHASE_LIMIT_S = 60.0


@dataclass
class Response:
    path: str
    status: int  # 0 when the request itself failed
    body: bytes
    latency_s: float


@dataclass
class Phase:
    wall_s: float
    responses: List[Response] = field(default_factory=list)

    def latencies(self, prefix: str) -> List[float]:
        return [r.latency_s for r in self.responses if r.path.startswith(prefix)]


def _get(host: str, port: int, path: str) -> Response:
    start = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        reply = conn.getresponse()
        body = reply.read()
        status = reply.status
    except (OSError, http.client.HTTPException):
        body, status = b"", 0
    finally:
        conn.close()
    return Response(path, status, body, time.perf_counter() - start)


def point_order(keys: Sequence[str], seed: int, count: int) -> List[str]:
    """``count`` keys: the key list reshuffled by the seed on each pass."""
    rng = random.Random(seed)
    order: List[str] = []
    while len(order) < count:
        cycle = list(keys)
        rng.shuffle(cycle)
        order.extend(cycle)
    return order[:count]


def drive(url: str, keys: Sequence[str], seed: int) -> Phase:
    """Run both clients against ``url`` until the point client is done."""
    split = urlsplit(url)
    host, port = split.hostname, split.port
    order = point_order(keys, seed, POINT_QUERIES)
    limit = time.perf_counter() + PHASE_LIMIT_S
    done = threading.Event()
    dashboard: List[Response] = []
    points: List[Response] = []

    def poll() -> None:
        while True:
            dashboard.append(_get(host, port, "/v1/status"))
            dashboard.append(_get(host, port, "/v1/table"))
            if done.is_set() or time.perf_counter() > limit:
                return

    def lookup() -> None:
        try:
            for key in order:
                if time.perf_counter() > limit:
                    return
                points.append(_get(host, port, f"/v1/cell/{key}"))
        finally:
            done.set()

    threads: Tuple[threading.Thread, ...] = (
        threading.Thread(target=poll, name="dashboard"),
        threading.Thread(target=lookup, name="points"),
    )
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(PHASE_LIMIT_S + 2 * REQUEST_TIMEOUT_S)
    return Phase(time.perf_counter() - start, dashboard + points)
