"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload learn-deep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs `src/automode`). The
instances are generated here, in this process; the package runs in a
fresh worker process (`worker.py`) that only reads the generated files,
so set-up time and peak memory exclude the generator. A second short
worker replays the first instance under another PYTHONHASHSEED to check
that learned definitions do not depend on it. All output checks run here
with the bench's own code (`checks.py`).

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones from a traced pass over a fixed instance set. The last
stdout line is the result object; the line before it records the run's
environment and details.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from workloads import END_TO_END, NEG_RATIO, PER_LAYER, WORKLOADS, Workload
from worker import IND_ALPHA, REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT = 150  # seconds; a run must end within 180


def hash_seeds(seed: int) -> tuple[int, int]:
    """PYTHONHASHSEED of the main and the replay worker of run `seed`."""
    return seed % 4294967296, (seed + 1) % 4294967296


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout or for a ref only in packed-refs."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[len("ref: "):]
    return path.read_text(encoding="utf-8").strip() if path.is_file() else None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def start_worker(job: dict, work: Path, hash_seed: int) -> dict:
    job_path = work / f"job-{job['mode']}.json"
    job["out"] = str(work / f"out-{job['mode']}.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        env=env, check=True, timeout=WORKER_TIMEOUT, stdout=subprocess.DEVNULL,
    )
    return json.loads(Path(job["out"]).read_text(encoding="utf-8"))


def check_results(results: list[dict], instances: list[dict]) -> list[list[str]]:
    """Mismatch messages per result; an error or any mismatch fails it."""
    out, loaded = [], {}
    for res in results:
        if "error" in res:
            out.append([res["error"].strip().splitlines()[-1]])
            continue
        index = res["instance"]
        if index not in loaded:
            inst = instances[index]
            loaded[index] = checks.Instance(Path(inst["dir"]), inst["target"])
        instance = loaded[index]
        errors = checks.check_negatives(res["negatives"], instance, NEG_RATIO)
        if not res["bias_roundtrip"]:
            errors.append("bias: read_bias(write_bias(b)) != b")
        for sample in res.get("samples", ()):
            errors += checks.check_coverage(sample, instance)
        if "inds" in res:
            errors += checks.check_inds(res["inds"], instance, IND_ALPHA)
        out.append(errors)
    return out


def mean(values):
    return sum(values) / len(values) if values else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


STAGES = ("setup_s", "bias_s", "negatives_s", "stage_s")


def at_reference_speed(times: dict, r: int) -> dict:
    """Round `r`'s stage times of one instance, each scaled by REF_S over
    the mean of the reference timings around it, and their total: seconds
    on a host where `reference` takes REF_S."""
    refs = times["reference_s"][r]
    out = {
        k: times[k][r] * 2 * REF_S / (refs[i] + refs[i + 1]) for i, k in enumerate(STAGES)
    }
    out["total_s"] = sum(out.values())
    return out


def summarize(results: list[dict], scaled: bool = True) -> dict:
    """Times and quality over a pass.

    Each instance's time for a stage is the median over its rounds. With
    `scaled`, every timing is first brought to reference speed: the shared
    host runs up to twice as slow in phases lasting from seconds to many
    minutes, which moves the package and `reference` alike. The cheap
    stages take about as long on every instance and report the median
    instance; stage and total times, whose cost varies from one random
    database to the next, report the mean over instances."""
    ok = [r for r in results if "times" in r and "error" not in r]
    per_instance = []
    for res in ok:
        times = res["times"]
        rounds = range(len(times["stage_s"]))
        if scaled:
            samples = [at_reference_speed(times, r) for r in rounds]
        else:
            samples = [
                {**{k: times[k][r] for k in STAGES}, "total_s": sum(times[k][r] for k in STAGES)}
                for r in rounds
            ]
        per_instance.append({k: median([s[k] for s in samples]) for k in samples[0]})
    out = {
        k: median([t[k] for t in per_instance]) for k in ("setup_s", "bias_s", "negatives_s")
    }
    out["stage_s"] = mean([t["stage_s"] for t in per_instance])
    out["total_s"] = mean([t["total_s"] for t in per_instance])
    keys = sorted({k for r in ok for k in r["quality"]})
    out["quality"] = {k: mean([r["quality"][k] for r in ok if k in r["quality"]]) for k in keys}
    return out


def run(spec: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Generate, measure, check; returns (result object, details)."""
    work = ROOT / ".bench_work" / f"{spec.name}-{seed}-{os.getpid()}"
    main_hash, replay_hash = hash_seeds(seed)
    try:
        instances = []
        for k in range(spec.instances):
            out = work / f"i{k}"
            target = spec.generate(out, seed * 1000 + k)
            instances.append({"dir": str(out), "target": target, "seed": seed * 1000 + k})
        job = {
            "spec": dataclasses.asdict(spec),
            "src": str(ROOT / "src"),
            "instances": instances,
            "seconds": seconds,
            "mode": "trace" if trace else "timed",
        }
        main = start_worker(job, work, main_hash)
        results = main["results"]
        errors = check_results(results, instances)
        determinism = []
        if spec.stage != "profile":
            replay = start_worker({**job, "mode": "replay"}, work, replay_hash)
            if results[0].get("definitions") != replay["results"][0].get("definitions"):
                determinism.append(
                    f"definitions differ between PYTHONHASHSEED {main_hash} and {replay_hash}"
                )
        failed = sum(1 for e in errors if e)
        summary = summarize(results)
        unscaled = summarize(results, scaled=False)
        if trace:
            traced = summarize(main["traced"])
            metrics = dict(main["layers"])
            metrics["trace.overhead_ratio"] = (
                traced["total_s"] / summary["total_s"] if summary["total_s"] else 0.0
            )
            for k in ("train_precision", "train_recall", "holdout_precision",
                      "holdout_recall", "body_literals"):
                metrics[f"quality.{k}"] = summary["quality"].get(k, 0.0)
            failed += sum(1 for r in main["traced"] if "error" in r)
            attempted = len(results) + len(main["traced"])
            chosen = PER_LAYER
        else:
            metrics = {k: summary[k] for k in ("setup_s", "bias_s", "negatives_s", "total_s")}
            metrics["peak_rss_mb"] = main["peak_rss_mb"]
            attempted = len(results)
            chosen = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0 and not determinism,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": chosen[k][0]} for k in chosen},
    }
    details = {
        "workload": spec.name,
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
        "pythonhashseed": {"main": main_hash, "replay": replay_hash},
        "instances_run": len(results),
        "rounds": main.get("rounds", 1),
        "stage_s": summary["stage_s"],
        "unscaled_s": {k: v for k, v in unscaled.items() if k != "quality"},
        "reference_s": median([
            t for r in results if "times" in r for refs in r["times"]["reference_s"] for t in refs
        ]),
        "quality": summary["quality"],
        "errors": sorted({m for e in errors for m in e} | set(determinism)),
        "absent": main.get("absent", []),
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload (last stdout line: its result object), or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "automode" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, details = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(f"{name}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(details, sort_keys=True))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
