"""One cold paper study in a fresh process (the study workloads' unit).

Started by ``run.py``; prints one JSON object on stdout.  Set-up is
process start to ready: interpreter start, ``import repro.cli``, the
plan and the configuration grid.  The study is a cold ``run_sweep``
into an empty cache followed by the paper's analysis, so it includes
the lazy ``scipy.stats`` import that every CLI run pays.  With
``--setup-only`` the process exits once ready.

After the timed study the process computes each app's advice, and
reports what ``run.py`` checks: the sample count against batches x grid
size, the quarantined batches, the record digest, and a spot check that
recomputes two seed-chosen batches on the serial backend and compares
them with the study's records bit for bit.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402


def _cache_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.glob("*.json"))


def _spot_check(plan, result, seed: int) -> bool:
    """Recompute the first batch of two seed-chosen apps serially and
    compare it with the same batch of the study's records."""
    from repro.core.sweep import SweepPlan, run_sweep

    apps = sorted({r.app for r in result.records})
    for app in random.Random(seed).sample(apps, 2):
        ref = run_sweep(
            SweepPlan(plan.arch, workload_names=(app,), scale=plan.scale,
                      repetitions=plan.repetitions, inputs_limit=1,
                      seed=plan.seed),
            backend="serial",
        ).records
        head = ref[0]
        got = [r for r in result.records
               if (r.app, r.input_size, r.num_threads)
               == (head.app, head.input_size, head.num_threads)]
        if common.record_digest(got) != common.record_digest(ref):
            return False
    return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arch", required=True)
    parser.add_argument("--backend", required=True,
                        choices=("serial", "pool", "nodes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, default=STARTED,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    common.require_source()
    t = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI's import cost is set-up)
    import_s = time.perf_counter() - t

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from repro.arch.machines import get_machine
    from repro.core.envspace import EnvSpace
    from repro.core.sweep import SweepPlan, plan_batches

    plan = SweepPlan(args.arch, scale=common.SCALE,
                     repetitions=common.REPETITIONS, seed=args.seed)
    space = EnvSpace()
    grid = space.grid(get_machine(args.arch), plan.scale, seed=plan.seed)
    batches = plan_batches(plan)
    out = {
        "setup_s": time.monotonic() - args.spawned_at,
        "import_s": import_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return

    from repro.core.cache import SweepCache

    cache_dir = args.workdir / "cache"
    cache = SweepCache(cache_dir)
    top_before = tracer.top_level_s if tracer else 0.0
    study = common.run_study(plan, space, cache, args.backend)
    result = study["result"]
    if tracer is not None:
        trace = tracer.snapshot()
        trace["study_top_level_s"] = tracer.top_level_s - top_before
    answers = common.per_app_recommendations(result.records)

    expected = len(batches) * len(grid)
    shard = result.shard_report
    report = result.failure_report
    out.update({
        "study_s": study["study_s"],
        "sweep_s": study["sweep_s"],
        # Per app: seconds from the study's start until its advice is
        # ready, were it computed as soon as the app's last batch lands.
        "advice_s": [study["landed_s"][app] + seconds
                     for app, (_, seconds) in answers.items()],
        "n_samples": result.n_samples,
        "n_batches": len(batches),
        "expected_samples": expected,
        "n_quarantined": result.n_quarantined_batches,
        "digest": common.record_digest(result.records),
        "n_simulated_configs": result.n_simulated_configs,
        "n_pruned_configs": result.n_pruned_configs,
        "steals": shard.n_steals if shard else 0,
        "reassignments": shard.n_reassignments if shard else 0,
        "respawns": report.worker_respawns if report else 0,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_bytes": _cache_bytes(cache_dir),
    })
    if tracer is not None:
        out["trace"] = trace
    # Before the check, whose serial batches may import scipy.stats.
    out["rss_mb"] = common.own_peak_rss_mb()
    # Correctness, untimed and untraced.
    out["spot_check_ok"] = _spot_check(plan, result, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
