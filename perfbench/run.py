"""Time-to-certificate benchmark for psdbounds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  Workloads (see workloads.py):

* ``support-search``: ``gen ... | bounds --budget 200000`` on S_6, S_8,
  S_9, S_12 and slack(cutpoly 4/5/6), S_10 at budget 20000, and
  library-level feasible covers of H(6,2) and H(7,2) at budget 400000;
* ``sign-enum``: ``order3-exclude`` on S_6, S_12, S_16, S_24 and
  slack(cutpoly 5), ``sqrt-bound --no-sign-fix`` on three S_12 blocks;
* ``certify-chain``: seeded nonnegative rational matrices of known rank
  through ``rank``, ``embed from-rank``, ``psd from-embedding``,
  ``verify psd`` and ``reduce-rank``, plus ``rank`` of dense matrices.

Every op runs in fresh interpreters, one op at a time (a closed loop with
one client, default ``--threads``), under a 10 s wall-clock limit that
kills the op's whole process group.  Each output is checked against an
independent reference (reference.json, oracle.py).  A run repeats whole
passes over the workload while the next pass should end within
``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time
of interpreter start plus ``import psdbounds.cli``, over at least 11
launches spread through the run), ``wall_s`` (one pass: the sum over ops
of each op's median time), ``verdict_s_p50`` (each op's median time over
the passes, then the median over the ops; a failed op counts as the
limit), ``decided_frac``, ``answered_frac`` (1 - failed share) and
``peak_rss_mb`` (largest max-RSS of an op that was not killed; a killed
op's memory only shows how far it got).  Each time in them is scaled to a
reference host speed by a probe launched before and after each op and
set-up launch (hostspeed.py); an op killed at the limit counts as the
limit, unscaled.  ``--trace 1`` replays the same ops through the public
functions (replay.py), traced and untraced, and prints per-layer metrics,
the tracing overhead and the ``outcome.*`` figures (failed share,
proven-interval gap, psd lower bounds).  The line before the result holds
the raw wall times, the per-op detail, sample counts and the environment.

The seed only changes the certify-chain matrices.  Seeds below 1000 were
used while writing the benchmark; 7919 is kept back for confirming later
claims on data not used before.  Exit status: 0 if every answer agreed
with its reference, 1 if one did not, 2 if the checkout has no program to
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from pipeline import run_pipeline  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 10.0
SETUP_SAMPLES = 11
IMPORT_PROBE = ["-c", "import psdbounds.cli"]


class Runner:
    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.python = sys.executable
        self.last_probe: float | None = None

    def between_probes(self, run):
        """``run()`` between two host-speed probes: (its result, the factor
        that scales its wall time to the reference speed).  Consecutive
        calls share a probe."""
        before = self.last_probe if self.last_probe is not None else self.host_probe()
        value = run()
        self.last_probe = self.host_probe()
        return value, hostspeed.scale(before, self.last_probe)

    def host_probe(self) -> float:
        """Wall time of one hostspeed.py launch."""
        return self.launch([[str(HERE / "hostspeed.py")]], "hostspeed").wall

    def launch(self, stages: list[list[str]], tag: str, out: Path | None = None):
        """Run interpreter stages as one pipeline; stdout to ``out`` or TAG.out."""
        return run_pipeline([[self.python, *a] for a in stages],
                            str(out or self.work / f"{tag}.out"), str(self.work / f"{tag}.err"),
                            self.env, LIMIT_S, str(ROOT))

    def execute(self, op: Op, idx: int, replay: bool, spans: Path | None = None) -> dict:
        """One op; returns its timing, classification and (traced) spans."""
        out = Path(op.spec.get("out", self.work / f"op{idx}.out"))
        if op.prepare is not None and not op.prepare():
            return {"op": op, "res": None, "wall": 0.0, "scale": 1.0, "spans": [],
                    "outcome": checks.Outcome(checks.FAILED, "input missing",
                                              gap=op.ref.get("trivial_gap", 0))}
        if replay or not op.cli:
            spec = self.work / f"op{idx}.spec.json"
            spec.write_text(json.dumps({"op": op.name, "kind": op.kind, **op.spec}))
            stages = [[str(HERE / "replay.py"), str(spec), *([str(spans)] if spans else [])]]
        else:
            stages = [["-m", "psdbounds.cli", *a] for a in op.cli]
        res, scale = self.between_probes(lambda: self.launch(stages, f"op{idx}", out))
        text = out.read_text(errors="replace")
        outcome = checks.classify(op.kind, res.code, res.timed_out, text, op.ref)
        span_list = []
        if spans is not None:
            with open(spans, encoding="utf-8", errors="replace") as fh:
                span_list = tracing.load_spans(fh, res.kill_time)
        return {"op": op, "res": res, "wall": res.wall, "scale": scale, "outcome": outcome,
                "spans": span_list}

    def run_pass(self, ops: list[Op], replay: bool, traced: bool = False, skip=(),
                 after_op=None) -> list[dict]:
        results = []
        for i, op in enumerate(ops):
            if i in skip:
                continue
            spans = self.work / f"op{i}.spans" if traced else None
            if spans is not None:
                spans.unlink(missing_ok=True)  # no stale events from the last pass
            results.append(self.execute(op, i, replay, spans))
            if after_op is not None:
                after_op(i)
        return results

    def probe(self, argv: list[str], n: int, warm: bool = True) -> list[tuple[float, float, str]]:
        """``n`` timed launches of one interpreter: (wall, scale, stderr) each."""
        if warm:
            self.launch([argv], "probe")  # bytecode compiled once, as for any user
        samples = []
        for _ in range(n):
            res, scale = self.between_probes(lambda: self.launch([argv], "probe"))
            samples.append((res.wall, scale, (self.work / "probe.err").read_text()))
        return samples


def outcome_summary(results: list[dict]) -> dict:
    n = len(results)
    statuses = [r["outcome"].status for r in results]
    return {
        "attempted": n,
        "failed": statuses.count(checks.FAILED),
        "decided_frac": statuses.count(checks.DECIDED) / n,
        "answered_frac": 1 - statuses.count(checks.FAILED) / n,
        "correct": not any(r["outcome"].wrong for r in results),
    }


def op_rows(passes: list[list[dict]]) -> list[dict]:
    """Per op: first pass's status and reason, its time in every pass."""
    rows = []
    for i, r in enumerate(passes[0]):
        row = {"op": r["op"].name, "status": r["outcome"].status,
               "wall_s": [round(p[i]["wall"], 4) for p in passes]}
        if r["outcome"].reason:
            row["reason"] = r["outcome"].reason
        layer = tracing.open_layer(r["spans"])
        if layer:
            row["open_layer"] = layer
        rows.append(row)
    return rows


def pass_outcomes(results: list[dict]) -> dict:
    """The answer-quality figures of one pass."""
    return {
        "failed_frac": sum(r["outcome"].status == checks.FAILED for r in results) / len(results),
        "bound_gap": sum(r["outcome"].gap for r in results),
        "psd_lb_sum": sum(r["outcome"].psd_lb for r in results),
    }


def scaled_wall(r: dict) -> float:
    """An op's wall time at the reference host speed.  An op killed at the
    limit counts as the wall-clock time it was given."""
    if r["res"] is not None and r["res"].timed_out:
        return r["wall"]
    return r["wall"] * r["scale"]


def end_to_end_metrics(setup_walls: list[float], passes: list[list[dict]]) -> tuple[dict, dict]:
    """(summary, metrics) of an untraced run: scaled setup launch times and
    passes of op results, each with ``wall``, ``scale``, ``outcome`` and
    ``res``."""
    results = [r for p in passes for r in p]
    summary = outcome_summary(results)

    def verdict(r: dict) -> float:
        wall = scaled_wall(r)
        return max(wall, LIMIT_S) if r["outcome"].status == checks.FAILED else wall

    # each op's median over the passes, then the median over the ops: a
    # slow spell in one pass moves every op a little, not the middle order
    # statistic of the pooled samples a lot
    op_verdicts = [tracing.median(verdict(p[i]) for p in passes) for i in range(len(passes[0]))]
    rss = [r["res"].peak_rss_mb for r in results if r["res"] and not r["res"].timed_out]
    metrics = {
        "setup_s": tracing.median(setup_walls),
        "wall_s": sum(tracing.median(scaled_wall(p[i]) for p in passes)
                      for i in range(len(passes[0]))),
        "verdict_s_p50": tracing.median(op_verdicts),
        "decided_frac": summary["decided_frac"],
        "answered_frac": summary["answered_frac"],
        "peak_rss_mb": max(rss, default=0.0),
    }
    summary["samples"] = {"setup_s": len(setup_walls), "wall_s": len(passes),
                          "verdict_s_p50": len(results)}
    return summary, metrics


def repeat_passes(run_one, seconds: float) -> list:
    """Whole passes while the next one should end within ``seconds`` (at
    least one)."""
    passes, t0 = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_one())
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return passes


def untraced_run(runner: Runner, ops: list[Op], seconds: float) -> tuple[dict, dict]:
    # set-up launches are spread through the run (about four per pass), so
    # a slow spell of a shared machine does not decide the median
    setup = [(w, k) for w, k, _ in runner.probe(IMPORT_PROBE, 3)]
    step = max(1, len(ops) // 4)

    def probe_between(i: int) -> None:
        if (i + 1) % step == 0:
            setup.extend((w, k) for w, k, _ in runner.probe(IMPORT_PROBE, 1, warm=False))

    passes = repeat_passes(lambda: runner.run_pass(ops, replay=False, after_op=probe_between),
                           seconds)
    if len(setup) < SETUP_SAMPLES:
        setup += [(w, k) for w, k, _ in
                  runner.probe(IMPORT_PROBE, SETUP_SAMPLES - len(setup), False)]
    summary, metrics = end_to_end_metrics([w * k for w, k in setup], passes)
    report = {
        # raw wall times; the metrics scale them by ``host_scale``
        "host_scale": round(tracing.median(r["scale"] for p in passes for r in p), 4),
        "pass_wall_s": [round(sum(r["wall"] for r in p), 4) for p in passes],
        "setup_wall_s": [round(w, 4) for w, _ in setup],
        "samples": {**summary["samples"],
                    "note": "under 20 ops per pass: no percentile above the median has 10 "
                            "samples beyond it"},
        "outcomes": pass_outcomes(passes[0]),
        "ops": op_rows(passes),
    }
    return _result(summary, metrics), report


def traced_run(runner: Runner, ops: list[Op], seconds: float) -> tuple[dict, dict]:
    imports = [tracing.parse_importtime(err)
               for _, _, err in runner.probe(["-X", "importtime", *IMPORT_PROBE], 5)]
    traced, untraced = [], []

    def pair():
        traced.append(runner.run_pass(ops, replay=True, traced=True))
        cut = {i for i, r in enumerate(traced[-1]) if r["res"] and r["res"].timed_out}
        # a cut op takes the limit either way; replaying it untraced adds nothing
        untraced.append(runner.run_pass(ops, replay=True, skip=cut))

    repeat_passes(pair, seconds)
    overheads, fractions = [], []
    for tp, up in zip(traced, untraced):
        names = {r["op"].name for r in up}
        t_wall = sum(scaled_wall(r) for r in tp if r["op"].name in names)
        u_wall = sum(scaled_wall(r) for r in up)
        overheads.append(t_wall - u_wall)
        fractions.append((t_wall - u_wall) / u_wall if u_wall else 0.0)
    per_pass = []
    for tp in traced:
        m = tracing.layer_metrics([r["spans"] for r in tp])
        m.update({f"outcome.{k}": v for k, v in pass_outcomes(tp).items()})
        per_pass.append(m)
    metrics = {name: tracing.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = tracing.median(i[0] for i in imports)
    metrics["cli.import_numpy_s"] = tracing.median(i[1] for i in imports)
    metrics["trace.overhead_s"] = tracing.median(overheads)
    metrics["trace.overhead_frac"] = tracing.median(fractions)
    summary = outcome_summary([r for p in traced + untraced for r in p])
    report = {
        "passes": len(traced),
        "samples": {"import": len(imports), "traced_passes": len(traced)},
        "ops": op_rows(traced),
    }
    return _result(summary, metrics), report


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _result(summary: dict, metrics: dict) -> dict:
    """The result line; units come from BENCHMARK.json."""
    units = metric_units()
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }


def environment(seed: int, workload: str, trace_on: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"workload": workload, "seed": seed, "trace": trace_on, "limit_s": LIMIT_S,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSDBOUNDS_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "psdbounds" / "cli.py").is_file():
        print(f"error: no psdbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still kills its op's process group and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(work, child_env())
        ops = WORKLOADS[args.workload](work, args.seed)
        run = traced_run if args.trace else untraced_run
        result, report = run(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["env"] = environment(args.seed, args.workload, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
