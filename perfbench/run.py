"""End-to-end run benchmark: one workload, closed loop, fresh process per run.

    python3 perfbench/run.py --workload fedhisyn_city --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one report

Each invocation runs the workload once traced (exact counters, per-layer
spans, a Chrome trace under ``perfbench/out/``), then untraced runs one
after another for ``--seconds`` (at least ``MIN_RUNS``; a run starts only
if it should end inside the window): one client, the next run starts when
the previous one ends.  Every run is a fresh child process
with one BLAS thread (``BLAS_THREADS``), so peak RSS is per run.  The report
goes to stdout; its last line is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every run's outputs are checked: finite final weights, sample
conservation, the same results as the traced run, and on the reference
seed the values in ``perfbench/references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import PER_LAYER  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

#: An invocation stops starting runs this long after it began.
TIME_LIMIT_S = 170.0
#: Untraced runs per invocation, at least, so each metric is a median.
MIN_RUNS = 2
#: BLAS threads per run.  On a 2-vCPU host shared with other tenants, two
#: threads made table1_cifar100's fit both slower and less steady (6.6-11.6
#: s over four runs, against 6.8-8.4 s with one thread).
BLAS_THREADS = 1
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Run facts that must repeat exactly, that must agree to ``TOLERANCE``
#: (the batched-vs-sequential training contract), and that only a traced
#: run counts.
EXACT = ("method", "clock", "transfers", "events")
CLOSE = ("accuracy", "loss")
COUNTED = ("engine.units", "device.train_samples")
TOLERANCE = 1e-12


def git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()[:12]
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_child(
    workload: str, seed: int, trace: bool, timeout: float
) -> tuple[dict | None, str | None]:
    """One run in a fresh process: ``(result, None)`` or ``(None, error)``."""
    threads = str(BLAS_THREADS)
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"{workload}.trace.json")]
    if timeout <= 0:
        return None, "no time left in the invocation"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def compare_facts(
    got: list[dict], want: list[dict], keys: tuple[str, ...]
) -> list[str]:
    """Differences between two runs' per-spec facts over ``keys``."""
    if len(got) != len(want):
        return [f"{len(got)} specs ran, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        for key in keys:
            if key not in g or key not in w:
                continue
            a, b = g[key], w[key]
            if key in CLOSE:
                same = abs(a - b) <= TOLERANCE * max(1.0, abs(b))
            else:
                same = a == b
            if not same:
                problems.append(f"{w['method']}: {key} {a!r} != {b!r}")
    return problems


def load_references() -> dict:
    try:
        with open(REFERENCES) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_problems(out: dict, traced: dict | None, ref: dict | None) -> list[str]:
    """Every failed output check of one run."""
    problems = list(out["problems"])
    if traced is not None and out is not traced:
        problems += compare_facts(out["runs"], traced["runs"], EXACT + CLOSE)
    if ref is not None:
        problems += compare_facts(out["runs"], ref["runs"], EXACT + CLOSE + COUNTED)
    return problems


def tally(
    attempts: list[tuple[str, dict | None, str | None]],
    traced: dict | None,
    ref: dict | None,
) -> tuple[list[dict], list[str]]:
    """Split ``(kind, result, error)`` attempts into the untraced results
    that passed every check and one failure line per failed run."""
    good: list[dict] = []
    failures: list[str] = []
    for kind, out, error in attempts:
        problems = [error] if out is None else run_problems(out, traced, ref)
        if problems:
            failures.append(f"{kind} run: " + "; ".join(problems))
        elif kind == "untraced":
            good.append(out)
    return good, failures


def measure(name: str, seed: int, seconds: float, check_references: bool = True) -> dict:
    """Run ``name`` traced once, then untraced for ``seconds``; check all."""
    deadline = time.monotonic() + TIME_LIMIT_S
    references = load_references().get(name) if check_references else None
    ref = references if references and references["seed"] == seed else None

    traced, error = run_child(name, seed, True, deadline - time.monotonic())
    attempts = [("traced", traced, error)]
    loop_start = time.monotonic()
    while True:
        out, error = run_child(name, seed, False, deadline - time.monotonic())
        attempts.append(("untraced", out, error))
        # Start another run only if it should end inside the window.
        now = time.monotonic()
        per_run = (now - loop_start) / (len(attempts) - 1)
        if len(attempts) - 1 >= MIN_RUNS and now + per_run - loop_start > seconds:
            break
        if now + 1.5 * per_run > deadline:
            break

    good, failures = tally(attempts, traced, ref)
    return {
        "name": name,
        "seed": seed,
        "traced": traced,
        "untraced": good,
        "attempted": len(attempts),
        "failures": failures,
        "reference_checked": ref is not None,
    }


def end_to_end(m: dict) -> dict[str, list[float]]:
    """Per-run values of every end-to-end metric over the good untraced runs."""
    runs = m["untraced"]
    samples = m["traced"]["layers"]["device.train_samples"]
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "fit_s": [r["fit_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "samples_per_s": [samples / r["fit_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(m: dict) -> dict[str, float]:
    layers = dict(m["traced"]["layers"])
    untraced_wall = statistics.median(r["wall_s"] for r in m["untraced"])
    layers["trace.overhead"] = m["traced"]["wall_s"] / untraced_wall - 1.0
    return layers


#: Span totals the report shows as shares of each spec's fit.
_FIT_SHARES = ("engine.ring_round_s", "device.train_s", "device.batched_s", "server.eval_s")


def report(m: dict, values: dict[str, list[float]], layers: dict[str, float]) -> None:
    """Human-readable report of one measured workload (stdout)."""
    wl = WORKLOADS[m["name"]]
    traced = m["traced"]
    failed = len(m["failures"])
    p = print
    p(f"== {m['name']}  seed {m['seed']} ==")
    p(f"why: {wl.why}")
    p(
        "environment: "
        + " ".join(f"{k}={v}" for k, v in traced["env"].items())
        + f" commit={git_commit(ROOT)}"
    )
    p(
        f"closed loop, 1 client, fresh process per run: 1 traced + "
        f"{m['attempted'] - 1} untraced runs, {failed} failed"
    )
    p("end-to-end (median over the untraced runs; n runs, no p-high below 100 runs):")
    for name, unit in END_TO_END.items():
        vs = values[name]
        p(
            f"  {name:<16} {statistics.median(vs):>14.6g} {unit:<6} "
            f"n={len(vs)}  min {min(vs):.6g}  max {max(vs):.6g}"
        )
    p(f"  {'error_rate':<16} {failed / m['attempted']:>14.6g} ratio  "
      f"({failed} of {m['attempted']} runs)")
    for line in m["failures"]:
        p(f"  FAILED {line}")
    p(
        "outputs"
        + (" (checked against perfbench/references.json):" if m["reference_checked"] else ":")
    )
    for fact in traced["runs"]:
        p(
            f"  {fact['method']:<9} accuracy {fact['accuracy']:.4f}  loss "
            f"{fact['loss']:.6g} (peak {fact['loss_peak']:.4g})  vclock {fact['clock']:.6g}  transfers "
            f"{fact['transfers']:.6g}  events {fact['events']}"
        )
    if wl.note:
        p(f"note: {wl.note}")
    p(f"per-layer (traced run, wall {traced['wall_s']:.4g} s):")
    for name, unit in PER_LAYER.items():
        value = layers[name]
        shown = f"{value:>14d}" if unit == "count" else f"{value:>14.6g}"
        p(f"  {name:<32} {shown} {unit}")
    p("per call (span name: n, total, median, p-high):")
    for name, st in sorted(traced["calls"].items()):
        high = (
            f"p{st['p_high']:g} {st['p_high_s'] * 1e3:.4g} ms"
            if st["p_high"] is not None else "p-high n/a"
        )
        p(
            f"  {name:<20} n={st['n']:<7} total {st['total_s']:.4g} s  "
            f"median {st['median_s'] * 1e3:.4g} ms  {high}"
        )
    p("breakdown per spec (traced): span totals as shares of setup and fit; "
      "the largest spans of fit by self time")
    for fact, b in zip(traced["runs"], traced["breakdown"]):
        lay = b["layers"]
        fit_shares = ", ".join(
            f"{k[:-2]} {lay[k] / b['fit_s']:.0%}" for k in _FIT_SHARES
        )
        tops = ", ".join(f"{n} {s / b['fit_s']:.0%}" for n, s in b["fit_self_top"])
        p(
            f"  {fact['method']:<9} setup {b['setup_s']:.4g} s: datasets.partition "
            f"{lay['datasets.partition_s'] / b['setup_s']:.0%} | fit {b['fit_s']:.4g} s: "
            f"{fit_shares} | self: {tops}"
        )
    p(f"chrome trace: perfbench/out/{m['name']}.trace.json")


def result_line(results: list[tuple[dict, dict]], prefix: bool) -> dict:
    """The final JSON object over one or more measured workloads."""
    metrics = {}
    attempted = failed = 0
    for m, chosen in results:
        attempted += m["attempted"]
        failed += len(m["failures"])
        for name, (value, unit) in chosen.items():
            key = f"{m['name']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_references(m: dict) -> None:
    refs = load_references()
    keep = EXACT + CLOSE + COUNTED
    refs[m["name"]] = {
        "seed": m["seed"],
        "runs": [{k: f[k] for k in keep} for f in m["traced"]["runs"]],
    }
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references", action="store_true",
        help="store this seed's traced outputs as the references (only when "
        "the program's results change on purpose)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        m = measure(name, args.seed, args.seconds, not args.record_references)
        if m["traced"] is None or not m["untraced"]:
            for line in m["failures"]:
                print(f"FAILED {line}", file=sys.stderr)
            print(f"error: {name}: no measurement survived", file=sys.stderr)
            return 1
        values = end_to_end(m)
        layers = per_layer(m)
        report(m, values, layers)
        if args.record_references:
            record_references(m)
        if args.trace:
            chosen = {k: (layers[k], u) for k, u in PER_LAYER.items()}
        else:
            chosen = {k: (statistics.median(values[k]), u) for k, u in END_TO_END.items()}
        results.append((m, chosen))
    print(json.dumps(result_line(results, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
