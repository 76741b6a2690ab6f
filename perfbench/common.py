"""Helpers shared by the benchmark driver and its study processes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; each run works in its own subdir.
WORK = ROOT / ".perfbench_work"
#: Record digests seen by earlier runs in this checkout, keyed by plan.
DIGESTS = WORK / "digests.json"

#: The studied plan: the paper's medium grid with three repetitions.
SCALE = "medium"
REPETITIONS = 3


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmp_dir: Path) -> dict:
    """Environment of a study process: the source tree and a private
    temporary directory (the pool backend spools results there)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    return env


def record_digest(records) -> str:
    """SHA-256 over every record field, runtimes bit-exact, in order."""
    h = hashlib.sha256()
    for r in records:
        config = tuple(
            getattr(r.config, f.name) for f in dataclasses.fields(r.config)
        )
        h.update(repr((
            r.arch, r.app, r.suite, r.input_size, r.num_threads, config,
            tuple(float(x).hex() for x in r.runtimes),
        )).encode("utf-8"))
    return h.hexdigest()


def plan_key(arch: str, seed: int) -> str:
    """Names the studied plan of ``arch`` at ``seed`` in ``DIGESTS``."""
    return f"{arch}/{SCALE}/r{REPETITIONS}/seed{seed}"


def check_digest(plan_key: str, digest: str) -> bool:
    """True unless an earlier run in this checkout saw another digest
    for the same plan; records the digest on first sight.

    The pool and nodes workloads share a plan key, as do the serial
    study and the serve warm-up, so whichever runs second is checked
    against the first, and every repeat of a seed against its first run.
    """
    seen = {}
    if DIGESTS.is_file():
        seen = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if plan_key in seen:
        return seen[plan_key] == digest
    seen[plan_key] = digest
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    tmp = DIGESTS.with_name(f"digests.json.tmp{os.getpid()}")
    tmp.write_text(json.dumps(seen, sort_keys=True), encoding="utf-8")
    os.replace(tmp, DIGESTS)
    return True


def own_peak_rss_mb() -> float:
    """Peak RSS of this process since it was started.

    Read from ``VmHWM``, not ``ru_maxrss``: Linux carries ``ru_maxrss``
    across ``execve``, so it would include the peak of whatever process
    launched the benchmark.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for descendant of this process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def current_rss_kb() -> float:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def p90(values) -> float:
    """90th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_app_recommendations(records) -> dict[str, tuple[list[dict], float]]:
    """Per app: the recommendation rows ``GET /recommend`` should serve
    and the seconds this process took to compute them.

    Mirrors what the daemon does after its sweep (records to table, run
    averaging, speedup enrichment, best values) through the public
    dataset and recommend functions, never the daemon's own code, so it
    is an independent reference for the served bodies.  Rows go through
    JSON, as served bodies do.
    """
    import importlib
    import time

    dataset = importlib.import_module("repro.core.dataset")
    recommend = importlib.import_module("repro.core.recommend")
    by_app: dict[str, list] = {}
    for r in records:
        by_app.setdefault(r.app, []).append(r)
    out = {}
    for app, recs in by_app.items():
        t = time.perf_counter()
        table = dataset.enrich_with_speedup(
            dataset.aggregate_runs(dataset.records_to_table(recs))
        )
        rows = [
            {"app": rec.app, "arch": rec.arch, "variable": rec.variable,
             "values": list(rec.values), "lift": rec.lift,
             "best_speedup": rec.best_speedup}
            for rec in recommend.best_variable_values(table)
        ]
        out[app] = (json.loads(json.dumps(rows)), time.perf_counter() - t)
    return out


def run_study(plan, space, cache, backend: str) -> dict:
    """A cold study: ``run_sweep`` into ``cache``, then the paper's
    analysis (labels, the three influence fits, best values).

    Returns the sweep result with the study and sweep wall times and,
    per app, when its last batch landed (seconds into the study, from
    ``run_sweep``'s progress callback).  The analysis functions are
    looked up on their modules at call time, so a tracer installed
    before the call sees them.
    """
    import importlib
    import time

    from repro.core.sweep import run_sweep

    dataset = importlib.import_module("repro.core.dataset")
    labeling = importlib.import_module("repro.core.labeling")
    influence = importlib.import_module("repro.core.influence")
    recommend = importlib.import_module("repro.core.recommend")

    landed_s: dict[str, float] = {}

    def progress(done, total, app, input_size, nthreads) -> None:
        landed_s[app] = time.perf_counter() - t

    t = time.perf_counter()
    result = run_sweep(
        plan, space,
        progress=progress,
        n_processes=2 if backend == "pool" else 1,
        cache=cache,
        fail_policy="degrade",
        backend=backend,
        n_shards=2 if backend == "nodes" else 1,
    )
    sweep_s = time.perf_counter() - t
    table = labeling.label_optimal(dataset.enrich_with_speedup(
        dataset.aggregate_runs(dataset.records_to_table(result.records))
    ))
    matrices = [
        influence.influence_by_application(table),
        influence.influence_by_architecture(table),
        influence.influence_by_arch_application(table),
    ]
    recs = recommend.best_variable_values(table)
    study_s = time.perf_counter() - t
    if not all(m.rows for m in matrices) or not recs:
        raise RuntimeError("study produced no influence rows or advice")
    return {"result": result, "study_s": study_s, "sweep_s": sweep_s,
            "landed_s": landed_s}
