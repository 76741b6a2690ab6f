"""The ``serve-warm-recommend`` workload: warm ``GET /recommend`` load.

Set-up starts a :class:`~repro.serve.harness.DaemonHandle` in this
process (default ``DaemonConfig`` apart from the port and the cache and
state directories), warms its cache with a cold study of the milan
medium grid on the pool backend, run directly, and sends one request
per app.  The load is a closed loop of two client threads, each walking its
own seed-shuffled rotation of the apps: recommend callers wait for
their answer before asking again.  Every 200 body must equal
``best_variable_values`` computed directly from the warm-up's records
for that app (see :func:`common.per_app_recommendations`); anything
else counts as a failed request.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from pathlib import Path

import common

ARCH = "milan"
CLIENTS = 2
#: The p90 is reported only with at least ten samples above it.
MIN_REQUESTS = 110
#: Upper bound on a load phase stretched to reach ``MIN_REQUESTS``.
MAX_PHASE_S = 60.0


class Server:
    """The daemon under load plus what a correct answer looks like."""

    def __init__(self, workdir: Path, seed: int):
        started = time.perf_counter()
        import repro.cli  # noqa: F401  (same import cost as the CLI)
        self.import_s = time.perf_counter() - started
        from repro.arch.machines import get_machine
        from repro.core.cache import SweepCache
        from repro.core.envspace import EnvSpace
        from repro.core.sweep import SweepPlan, plan_batches
        from repro.serve.app import DaemonConfig
        from repro.serve.harness import DaemonHandle

        self.seed = seed
        self.handle = DaemonHandle(DaemonConfig(
            cache_dir=str(workdir / "serve-cache"),
            state_dir=str(workdir / "serve-state"),
        ))
        try:
            plan = SweepPlan(ARCH, scale=common.SCALE,
                             repetitions=common.REPETITIONS, seed=seed)
            space = EnvSpace()
            study = common.run_study(
                plan, space, SweepCache(workdir / "serve-cache"), "pool"
            )
            warm = study["result"]
            self.study_s = study["study_s"]
            self.samples_per_s = warm.n_samples / study["sweep_s"]
            self.n_batches = len(plan_batches(plan))
            self.n_quarantined = warm.n_quarantined_batches
            self.samples_ok = warm.n_samples == self.n_batches * len(
                space.grid(get_machine(ARCH), plan.scale, seed=seed))
            self.digest = common.record_digest(warm.records)
            answers = common.per_app_recommendations(warm.records)
            self.expected = {app: rows for app, (rows, _) in answers.items()}
            self.apps = sorted(self.expected)
            # A daemon holds no study of its own: drop the warm-up's
            # records so the collector does not scan them under load.
            del study, warm, answers
            gc.collect()
            self.first_pass_failed = sum(
                not self.request(app)[1] for app in self.apps
            )
        except BaseException:
            self.handle.drain()
            raise
        self.setup_s = time.perf_counter() - started

    def url(self, app: str) -> str:
        return (f"/recommend?arch={ARCH}&workload={app}"
                f"&scale={common.SCALE}&repetitions={common.REPETITIONS}"
                f"&seed={self.seed}")

    def request(self, app: str) -> tuple[float, bool]:
        """One round trip: latency in seconds and whether it was right."""
        t = time.perf_counter()
        status, body = self.handle.request("GET", self.url(app), timeout=60)
        latency = time.perf_counter() - t
        ok = (status == 200
              and body.get("recommendations") == self.expected[app])
        return latency, ok

    def load(self, seconds: float, phase: int) -> dict:
        """Closed-loop load for ``seconds`` (stretched to MIN_REQUESTS)."""
        latencies: list[float] = []
        failed = [0]
        lock = threading.Lock()
        start = time.perf_counter()

        def client(index: int) -> None:
            rotation = list(self.apps)
            random.Random(f"{self.seed}/{phase}/{index}").shuffle(rotation)
            i = 0
            while True:
                elapsed = time.perf_counter() - start
                with lock:
                    n = len(latencies)
                if elapsed >= MAX_PHASE_S or (
                        elapsed >= seconds and n >= MIN_REQUESTS):
                    return
                latency, ok = self.request(rotation[i % len(rotation)])
                i += 1
                with lock:
                    latencies.append(latency)
                    failed[0] += not ok

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - start
        return {"latencies": latencies, "failed": failed[0], "wall_s": wall}

    def cache_counts(self) -> tuple[int, int]:
        cache = self.handle.daemon.cache
        return cache.hits, cache.misses

    def close(self) -> None:
        self.handle.drain()
