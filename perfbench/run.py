"""Federation benchmark: steady-state rounds, set-up, teardown, per-layer attribution.

    python3 perfbench/run.py --workload sim-hetero --seed 1 --seconds 20 --trace 0

Runs whole federations ("episodes") of one workload until ``--seconds``
have passed and at least three episodes ran, checks their outputs, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a separate traced run (``--trace 1``).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
when an output check fails.  Workloads, metrics and bounds are listed in
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread in this process and, through the inherited environment,
# in every worker it launches: otherwise the figures measure
# oversubscription of the cores rather than the program
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402

from federation import WORKLOADS, Episode, run_episode  # noqa: E402
from layers import (  # noqa: E402
    KernelCapture,
    install_sim_probes,
    phase_accounting,
    sim_layer_metrics,
    tcp_layer_metrics,
)
from spans import Tracer  # noqa: E402

MIN_EPISODES = 3
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return ordered[0], 0.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(episodes: list[Episode], warmup: int) -> tuple[dict, dict]:
    timed = [r for ep in episodes for r in ep.timed(warmup)]
    walls = [r.train_s for r in timed]
    tail_value, tail_pct = tail(walls)
    attempted = sum(ep.attempted for ep in episodes)
    admitted = sum(ep.admitted for ep in episodes)
    metrics = {
        "setup_s": statistics.median(ep.setup_s(warmup) for ep in episodes),
        "rounds_per_s": len(walls) / sum(walls),
        "round_s_p50": statistics.median(walls),
        "round_s_tail": tail_value,
        "eval_s": statistics.median(r.eval_s for r in timed),
        "run_wall_s": statistics.median(ep.wall_s for ep in episodes),
        "bytes_per_client_round": sum(r.bytes for r in timed) / sum(r.participants for r in timed),
        "peak_rss_mb": statistics.median(ep.peak_rss_mb for ep in episodes),
        "updates_admitted_share": admitted / attempted,
    }
    info = {
        "final_acc": episodes[0].final_acc,
        "timed_rounds": len(walls),
        "episodes": len(episodes),
        "round_s_tail_percentile": tail_pct,
        "failed_updates_share": (attempted - admitted) / attempted,
        "updates": {
            "attempted": attempted,
            "admitted": admitted,
            "timed_out": sum(ep.timed_out for ep in episodes),
            "lost": sum(ep.lost for ep in episodes),
            "rejected": sum(ep.rejected for ep in episodes),
            "retries": sum(ep.retries for ep in episodes),
            "rejoins": sum(ep.rejoins for ep in episodes),
        },
    }
    return metrics, info


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def output_checks(episodes: list[Episode], reference: Episode | None) -> list[tuple[str, bool, str]]:
    checks = []
    codes = [c for ep in episodes for c in ep.exit_codes]
    checks.append(("workers exit 0", all(c == 0 for c in codes), f"exit codes {codes}"))
    losses = [x for ep in episodes for x in ep.losses]
    checks.append((
        "losses finite",
        bool(losses) and all(math.isfinite(x) for x in losses),
        f"{len(losses)} client losses",
    ))
    attempted = sum(ep.attempted for ep in episodes)
    admitted = sum(ep.admitted for ep in episodes)
    checks.append(("every sampled update admitted", admitted == attempted, f"{admitted}/{attempted}"))
    digests = {ep.digest for ep in episodes}
    checks.append((
        "final classifier identical across episodes",
        len(digests) == 1,
        f"{len(episodes)} episodes, {len(digests)} distinct digest(s)",
    ))
    accs = {ep.final_acc for ep in episodes}
    checks.append(("final accuracy identical across episodes", len(accs) == 1, f"{sorted(accs)}"))
    tcp = [ep for ep in episodes if ep.transport == "tcp"]
    sim = [ep for ep in episodes if ep.transport == "sim"] + ([reference] if reference else [])
    if tcp and sim:
        checks.append((
            "tcp final classifier == sim final classifier",
            tcp[0].digest == sim[0].digest,
            f"tcp {tcp[0].digest[:16]} sim {sim[0].digest[:16]}",
        ))
    return checks


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------
def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(workload: str, seed: int, workers: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "workers": workers,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def untraced_run(args, workers: int) -> tuple[dict, dict, list, list[Episode]]:
    w = WORKLOADS[args.workload]
    episodes: list[Episode] = []
    t0 = time.perf_counter()
    while len(episodes) < MIN_EPISODES or time.perf_counter() - t0 < args.seconds:
        episodes.append(run_episode(w, args.seed, Tracer(), workers))
    reference = None
    if w.transport == "tcp":
        # the sim path of the same spec, outside the measured episodes
        reference = run_episode(w.twin("sim"), args.seed, Tracer(), workers)
    metrics, info = end_to_end(episodes, w.warmup_rounds)
    return metrics, info, output_checks(episodes, reference), episodes


def traced_run(args, workers: int) -> tuple[dict, dict, list, list[Episode]]:
    w = WORKLOADS[args.workload]
    warmup = w.warmup_rounds
    untraced = run_episode(w, args.seed, Tracer(), workers)

    capture = KernelCapture()
    probes = lambda stack, tracer: install_sim_probes(stack, tracer, capture, warmup)  # noqa: E731
    traced = {}
    # the workload's own transport right after the untraced episode, so the
    # overhead ratio compares neighbouring episodes
    for transport in (w.transport, "tcp" if w.transport == "sim" else "sim"):
        traced[transport] = run_episode(
            w.twin(transport), args.seed, Tracer(), workers,
            probes=probes if transport == "sim" else None,
        )
    sim_ep, tcp_ep, own = traced["sim"], traced["tcp"], traced[w.transport]

    metrics, mismatches = sim_layer_metrics(sim_ep, capture, w.spec(args.seed), warmup)
    metrics.update(tcp_layer_metrics(tcp_ep, warmup, workers))
    rate = lambda ep: end_to_end([ep], warmup)[0]["rounds_per_s"]  # noqa: E731
    overhead = rate(own) / rate(untraced)
    metrics["telemetry.trace_overhead"] = overhead

    episodes = [untraced, sim_ep, tcp_ep]
    checks = output_checks(episodes, None)
    checks.append((
        "replayed kernels bit-identical to the workload's",
        not mismatches,
        f"{len(capture.samples)} signatures, {len(mismatches)} mismatched",
    ))
    ok, accounting = phase_accounting(own, overhead)
    checks.append((
        "round phases account for the round wall",
        ok,
        f"unattributed {accounting['unattributed_share']:.3f} <= {accounting['allowed']:.3f}",
    ))
    attempted = sum(ep.attempted for ep in episodes)
    admitted = sum(ep.admitted for ep in episodes)
    info = {
        "accounting": accounting,
        "self_s": {role: ep.tracer.self_times() for role, ep in zip(("untraced", "sim", "tcp"), episodes)},
        "kernel_signatures": len(capture.samples),
        "updates": {"attempted": attempted, "admitted": admitted},
    }
    return metrics, info, checks, episodes


def write_results(args, env, metrics, info, checks, episodes) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    doc = {
        "env": env,
        "metrics": metrics,
        "info": info,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    if args.trace:
        doc["spans"] = {f"{i}:{ep.transport}": ep.tracer.to_json() for i, ep in enumerate(episodes)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    return path


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"error: repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workers = min(2, os.cpu_count() or 1)
    env = environment(args.workload, args.seed, workers)
    print("env " + json.dumps(env, sort_keys=True))
    run = traced_run if args.trace else untraced_run
    metrics, info, checks, episodes = run(args, workers)

    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    if args.trace:
        own = info["self_s"][WORKLOADS[args.workload].transport]
        print("self time by span, traced episode on the workload's transport:")
        for name, sec in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {sec:.4f} s")
    else:
        print(
            f"round_s_tail is p{info['round_s_tail_percentile']:.1f} of {info['timed_rounds']} "
            f"timed rounds over {info['episodes']} episodes"
        )
        print(f"final_acc {info['final_acc']:.6g} share (printed, not gated: it varies with the seed)")
        print(f"failed_updates_share {info['failed_updates_share']:.6g} share  updates {info['updates']}")
    print("results written to " + os.path.relpath(write_results(args, env, metrics, info, checks, episodes), ROOT))

    correct = all(ok for _n, ok, _d in checks)
    attempted = info["updates"]["attempted"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - info["updates"]["admitted"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
