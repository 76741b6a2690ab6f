"""The repository benchmark: cold paper studies and warm served advice.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-serial --seed 0 \\
        --seconds 15 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``study-serial``
    cold study of milan at medium scale on the serial backend;
``study-pool``
    the same study of a64fx on the pool backend with two processes;
``study-nodes``
    the identical a64fx plan on the nodes backend with two shards;
``serve-warm-recommend``
    a closed loop of two clients on ``GET /recommend``, all cache hits.

Each study runs in a fresh process (``study.py``), as a CLI user's
does.  With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it runs the workload once untraced and once traced and
prints every per-layer metric (``perfbench/layers.json`` says which
end-to-end metric each should move).  Every line before the last is a
human-readable report; the last line is the JSON result.  The run exits
non-zero, printing no result, when the program or a study cannot run.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
STUDIES = {
    "study-serial": ("milan", "serial"),
    "study-pool": ("a64fx", "pool"),
    "study-nodes": ("a64fx", "nodes"),
}
SERVE = "serve-warm-recommend"
#: Set-up-only processes per study run, besides each study's own set-up.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0


class Checks:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what} failed")

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def spawn_study(workdir: Path, arch: str, backend: str, seed: int,
                setup_only: bool = False, trace: bool = False) -> dict:
    """Run ``study.py`` in a fresh process group; its JSON result."""
    workdir.mkdir(parents=True)
    tmp = workdir / "tmp"
    tmp.mkdir()
    cmd = [sys.executable, str(HERE / "study.py"), "--arch", arch,
           "--backend", backend, "--seed", str(seed),
           "--workdir", str(workdir)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=common.child_env(tmp), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # Workers the study leaves behind share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"study process exited {proc.returncode}: {err[-2000:]}"
        )
    return json.loads(out.splitlines()[-1])


def check_studies(checks: Checks, studies: list[dict], plan_key: str) -> None:
    for s in studies:
        checks.count(s["n_batches"], s["n_quarantined"], "batches")
        checks.expect(
            s["n_samples"] == s["expected_samples"],
            f"{s['n_samples']} samples, expected {s['expected_samples']}",
        )
        checks.expect(s["spot_check_ok"],
                      "backend records differ from the serial backend")
        print(f"record digest {plan_key}: {s['digest']}")
    digests = {s["digest"] for s in studies}
    checks.expect(len(digests) == 1, "studies of one plan differ")
    checks.expect(common.check_digest(plan_key, studies[0]["digest"]),
                  f"records of {plan_key} differ from an earlier run")


def advice_metrics(studies: list[dict]) -> dict:
    """The recommend metrics of a study workload: per app, the time from
    the start of a cold study until its advice is ready; the rate is
    apps advised per second of study."""
    ms = [1000.0 * t for s in studies for t in s["advice_s"]]
    return {
        "recommend_p50_ms": statistics.median(ms),
        "recommend_p90_ms": common.p90(ms),
        "recommend_rps": (sum(len(s["advice_s"]) for s in studies)
                          / sum(s["study_s"] for s in studies)),
    }


def layer_metrics(trace: dict, layers: list[dict]) -> dict:
    """Per-layer timings and counts from a tracer snapshot; every
    ``<layer>_s``/``<layer>_n`` pair not set otherwise defaults to 0."""
    out = {}
    for spec in layers:
        name = spec["name"]
        layer, _, kind = name.rpartition("_")
        if kind == "s":
            out[name] = trace["seconds"].get(layer, 0.0)
        elif kind == "n":
            out[name] = trace["calls"].get(layer, 0)
        else:
            out[name] = 0
    out["model.first_execute_s"] = trace["first_call_s"].get(
        "model.execute", 0.0)
    out["model.slowest_execute_s"] = trace["max_call_s"].get(
        "model.execute", 0.0)
    return out


def study_workload(name: str, seed: int, seconds: float, trace: bool,
                   workdir: Path, spec: dict) -> tuple[dict, Checks]:
    arch, backend = STUDIES[name]
    dirs = (workdir / f"p{i}" for i in itertools.count())
    checks = Checks()
    plan_key = common.plan_key(arch, seed)

    def child(**kwargs) -> dict:
        return spawn_study(next(dirs), arch, backend, seed, **kwargs)

    if trace:
        plain = child()
        traced = child(trace=True)
        check_studies(checks, [plain, traced], plan_key)
        t = traced["trace"]
        metrics = layer_metrics(t, spec["per_layer"])
        metrics.update({
            "startup.import_s": traced["import_s"],
            "icv.classes_n": traced["n_simulated_configs"],
            "icv.pruned_ratio": (traced["n_pruned_configs"]
                                 / traced["n_samples"]),
            "backend.steals_n": traced["steals"],
            "backend.reassign_n": traced["reassignments"],
            "backend.respawns_n": traced["respawns"],
            "cache.hit_ratio": (traced["cache_hits"]
                                / (traced["cache_hits"]
                                   + traced["cache_misses"])),
            "cache.bytes": traced["cache_bytes"],
            "trace.overhead_ratio": traced["study_s"] / plain["study_s"] - 1,
            "unattributed_s": traced["study_s"] - t["study_top_level_s"],
        })
    else:
        setups = [child(setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        studies = []
        start = time.monotonic()
        while not studies or time.monotonic() - start < seconds:
            studies.append(child())
        check_studies(checks, studies, plan_key)
        metrics = {
            "setup_s": statistics.median(
                setups + [s["setup_s"] for s in studies]),
            "study_s": statistics.median([s["study_s"] for s in studies]),
            "samples_per_s": statistics.median(
                [s["n_samples"] / s["sweep_s"] for s in studies]),
            **advice_metrics(studies),
            # This process plus its largest child; the pool and nodes
            # workers are the study's children, not this process's.
            "peak_rss_mb": (common.own_peak_rss_mb()
                            + max(s["rss_mb"] for s in studies)),
        }
        print(f"{len(studies)} cold studies, {len(setups) + len(studies)} "
              "set-ups")
    return metrics, checks


def serve_workload(seed: int, seconds: float, trace: bool, workdir: Path,
                   spec: dict) -> tuple[dict, Checks]:
    import serve_load

    checks = Checks()
    server = serve_load.Server(workdir, seed)
    try:
        checks.count(server.n_batches, server.n_quarantined,
                     "warm-up batches")
        checks.expect(server.samples_ok,
                      "warm-up sample count is not batches x grid size")
        key = common.plan_key(serve_load.ARCH, seed)
        print(f"record digest {key}: {server.digest}")
        checks.expect(common.check_digest(key, server.digest),
                      f"records of {key} differ from an earlier run")
        checks.count(len(server.apps), server.first_pass_failed,
                     "first-pass requests")
        rss_before = common.current_rss_kb()
        plain = server.load(seconds, phase=0)
        checks.count(len(plain["latencies"]), plain["failed"], "requests")
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            hits, misses = server.cache_counts()
            traced = server.load(seconds, phase=1)
            checks.count(len(traced["latencies"]), traced["failed"],
                         "traced requests")
            hits2, misses2 = server.cache_counts()
        n_requests = len(plain["latencies"]) + (
            len(traced["latencies"]) if trace else 0)
        rss_growth = common.current_rss_kb() - rss_before
    finally:
        server.close()

    if trace:
        t = tracer.snapshot()
        n = len(traced["latencies"])
        latency_s = sum(traced["latencies"])
        mean_plain = sum(plain["latencies"]) / len(plain["latencies"])
        metrics = layer_metrics(t, spec["per_layer"])
        metrics.update({
            "startup.import_s": server.import_s,
            "cache.hit_ratio": (hits2 - hits) / max(
                1, hits2 - hits + misses2 - misses),
            "cache.bytes": sum(
                p.stat().st_size
                for p in (workdir / "serve-cache").glob("*.json")),
            "serve.run_sweep_ms": 1000.0 * t["seconds"].get(
                "serve.run_sweep", 0.0) / n,
            "serve.recommendations_ms": 1000.0 * t["seconds"].get(
                "serve.recommendations", 0.0) / n,
            "serve.overhead_ms": 1000.0 * (latency_s - t["top_level_s"]) / n,
            "serve.requests_n": n,
            "serve.rss_growth_kb_per_req": rss_growth / n_requests,
            "trace.overhead_ratio": (latency_s / n) / mean_plain - 1,
            "unattributed_s": latency_s - t["top_level_s"],
        })
    else:
        lat_ms = [1000.0 * s for s in plain["latencies"]]
        metrics = {
            "setup_s": server.setup_s,
            "study_s": server.study_s,
            "samples_per_s": server.samples_per_s,
            "recommend_p50_ms": statistics.median(lat_ms),
            "recommend_p90_ms": common.p90(lat_ms),
            "recommend_rps": len(lat_ms) / plain["wall_s"],
            # The daemon lives in this process; the warm-up's pool
            # workers are its children.
            "peak_rss_mb": (common.own_peak_rss_mb()
                            + common.children_peak_rss_mb()),
        }
    print(f"{n_requests} warm requests by 2 closed-loop clients; "
          f"rss grew {rss_growth / 1024.0:.1f} MiB")
    return metrics, checks


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_source()

    workdir = common.WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Keep every file the program makes (pool spool files too) inside
    # the checkout.
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    try:
        if args.workload == SERVE:
            metrics, checks = serve_workload(
                args.seed, args.seconds, bool(args.trace), workdir, spec)
        else:
            metrics, checks = study_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ratio = checks.failed / checks.attempted
    if args.trace:
        metrics["failed_ratio"] = failed_ratio
        wanted = spec["per_layer"]
    else:
        metrics["ok_ratio"] = 1.0 - failed_ratio
        wanted = spec["end_to_end"]
    result = {}
    for m in wanted:
        value = metrics.pop(m["name"])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:>22} {m['name']:<30} {value:>14.6g} "
              f"{m['unit']}")
    if metrics:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {metrics}")
    for problem in checks.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop every process started.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
