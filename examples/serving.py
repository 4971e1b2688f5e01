"""Serving walkthrough — the batch solver as an always-on service.

Five acts against an embedded server (``serve_in_thread``):

1. *Submit and solve*: upload points, then solve by ``instance_id`` in
   one long-polled request (``POST /solve?wait=``) that answers with the
   result. Instances are content-addressed — uploading the same payload
   twice yields the same id.
2. *The result cache*: an identical request is answered immediately
   (``cached: true``), without touching the queue.
3. *Coalescing*: concurrent identical requests share one solve — every
   client reads the same job.
4. *Byte-identical crash recovery over HTTP*: a server with an injected
   worker crash returns exactly the solution a clean server returns.
5. *Load*: the loadgen drives concurrent clients and reports
   throughput, failure rate, and p50/p99 latency.

Run:  python examples/serving.py          (~15 seconds)
"""

import json
import threading

import numpy as np

from repro.faults import FaultPlan
from repro.serve import ServeClient, ServerConfig, serve_in_thread
from repro.serve.loadgen import run_loadgen

SEED = 3
rng = np.random.default_rng(SEED)
POINTS = rng.normal(size=(400, 2)) + rng.integers(0, 4, size=(400, 1)) * 5.0
PARAMS = dict(k=4, shards=3, coreset_size=96, seed=SEED)


def act_1_submit_and_solve(client):
    print("— act 1: submit, then solve in one round trip —")
    first = client.submit_points(POINTS)
    again = client.submit_points(POINTS.copy())
    assert first["instance_id"] == again["instance_id"] and again["cached"]
    print(f"  instance {first['instance_id']} ({first['n']} points); "
          "re-upload deduped by content hash")
    before = client.metrics()["counters"]["serve.requests_total"]
    job = client.solve_and_wait(instance_id=first["instance_id"], **PARAMS)
    # the first /metrics GET is counted after its own snapshot
    requests = client.metrics()["counters"]["serve.requests_total"] - before - 1
    result = job["result"]
    print(f"  solved: {len(result['centers'])} centers, "
          f"true cost {result['true_cost']:.1f}, {result['solve_s'] * 1e3:.0f}ms, "
          f"{requests} HTTP request(s) — the server held the answer until done")
    return first["instance_id"], result


def act_2_result_cache(client, instance_id, result):
    print("\n— act 2: an identical request is served from the cache —")
    job = client.solve(instance_id=instance_id, **PARAMS)
    assert job["status"] == "done" and job["cached"]
    assert job["result"] == result
    hits = client.metrics()["counters"]["serve.result_cache_hits"]
    print(f"  answered immediately (cached=true, {hits} cache hit(s)) — "
          "same bits, no queue")


def act_3_coalescing(client, handle, instance_id):
    print("\n— act 3: concurrent identical requests share one solve —")
    params = dict(PARAMS, seed=SEED + 1)  # a key the cache has not seen
    before = client.metrics()["counters"]
    results = []

    def one():
        c = ServeClient(handle.host, handle.port)
        results.append(
            c.solve_and_wait(instance_id=instance_id, **params)["result"]
        )

    threads = [threading.Thread(target=one) for _ in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    counters = client.metrics()["counters"]
    shared = sum(
        counters.get(key, 0) - before.get(key, 0)
        for key in ("serve.coalesced", "serve.result_cache_hits")
    )
    print(f"  5 clients, identical request: every response equal; "
          f"{shared} request(s) rode an existing solve or the cache")


def _served_solution(config):
    with serve_in_thread(config) as handle:
        job = ServeClient(handle.host, handle.port).solve_and_wait(
            points=POINTS, **PARAMS
        )
    result = dict(job["result"])
    result.pop("solve_s")  # wall clock sits outside the identity claim
    return result


def act_4_crash_identity():
    print("\n— act 4: a crashed worker is invisible, byte for byte —")
    clean = _served_solution(ServerConfig(backend="process", workers=1))
    crashed = _served_solution(
        ServerConfig(
            backend="process",
            workers=1,
            fault_plan=FaultPlan.single("crash", 1),  # shard 1, attempt 1
        )
    )
    assert json.dumps(clean, sort_keys=True) == json.dumps(crashed, sort_keys=True)
    print("  injected crash mid-request; supervised retry replayed the shard "
          "seed — the HTTP response is bit-for-bit the clean one")


def act_5_load(handle):
    print("\n— act 5: the load generator —")
    report = run_loadgen(
        handle.host, handle.port, clients=4, requests=24, n=240, k=4, seed=50,
    )
    assert report["failed"] == 0
    lat = report["latency_s"]
    print(f"  {report['completed']}/{report['requests_sent']} solves over "
          f"{report['clients']} clients: {report['throughput_rps']:.0f} req/s, "
          f"p50 {lat['p50'] * 1e3:.0f}ms, p99 {lat['p99'] * 1e3:.0f}ms")


def main():
    config = ServerConfig(backend="process", backend_workers=2, workers=2)
    with serve_in_thread(config) as handle:
        client = ServeClient(handle.host, handle.port)
        instance_id, result = act_1_submit_and_solve(client)
        act_2_result_cache(client, instance_id, result)
        act_3_coalescing(client, handle, instance_id)
        act_5_handle = handle  # reuse the live server for the load act
        act_4_crash_identity()
        act_5_load(act_5_handle)
    print("\nall acts passed")


if __name__ == "__main__":
    main()
