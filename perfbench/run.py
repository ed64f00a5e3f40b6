"""knotcert benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; knotcert is imported from ./src.
The inputs of one pass are generated once from the seed (workloads.py).  Each
pass then runs in a fresh interpreter (child.py), which calls
`knotcert.cli.main([...])` in-process for every op, so the library's
Diagram-keyed caches only ever see distinct diagrams.  Every output is checked
against values the benchmark derives itself.

--trace 0 runs passes until S seconds are used (at least MIN_PASSES).  Times
are in reference seconds: on a shared host other tenants change the speed of
a vCPU from one moment to the next and from one hour to the next (on a
2-vCPU cloud VM a fixed pure-Python loop took 1.8-3.1 ms, 5th to 95th
percentile, and a whole pass 5.9-8.6 s; CPU time slowed with wall time).  So
each pass child times a fixed chunk of Fraction arithmetic (child.spin) every
10 ms of wall time while the ops run, and an op's seconds, less the chunks
inside it, are multiplied by SPIN_REF_S over the mean chunk duration inside
it.  A change to knotcert moves the op and not the chunks; a slower host moves
both.  Each op's time is its mean over the passes.  It reports
  setup_s        median, over pass children and set-up-only children, of child
                 start until knotcert is imported and the ops file is read,
                 scaled by the chunks of the whole run
  wall_s         the timed phase summed op by op: every op, report writing
                 included
  verdict_p50_s  median over diagrams of the time to a complete report; on
                 corpus-batch, where one op is a whole batch, its time per entry
  refusal_p50_s  median over-cap analyze op, which must exit 3
  peak_rss_mb    median ru_maxrss of a pass child

--trace 1 runs one untraced and one traced pass, without chunks, and reports
self time in plain seconds and call counts per wrapped function (tracer.py),
summed per layer, plus the tracing overhead and the harness residual.  Spans
are written to .perfbench-work/spans/.

The last stdout line is the JSON result; the lines before it give the
provenance, the sample counts and any failed checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
MIN_PASSES = 3
SETUP_PROBES = 2  # set-up-only children after each pass
MIN_OP_CHUNKS = 4
DEADLINE_S = 170.0
# Duration of one child.spin() chunk on an idle core of a 2-vCPU Xeon cloud VM
# (fastest of 3000, Python 3.11); the unit of reference seconds.
SPIN_REF_S = 0.00036


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def provenance() -> dict:
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "knotcert").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Runner:
    """Starts pass children for one workload and checks what they return."""

    def __init__(self, plan: dict, work: Path):
        self.plan = plan
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + DEADLINE_S
        self.corpus = work / "corpus.csv"
        rows = [r for op in plan["ops"] for r in op.get("rows", [])]
        if rows:
            with self.corpus.open("w", newline="") as fh:
                w = csv.DictWriter(fh, ["name", "pd", "sigma", "det", "alexander", "genus"],
                                   extrasaction="ignore")
                w.writeheader()
                w.writerows(rows)
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def child(self, extra: list[str], setup_only: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        out = self.work / f"out{tag}"
        ops = [[a.replace("{corpus}", str(self.corpus)).replace("{out}", str(out))
                for a in op["argv"]] for op in self.plan["ops"]]
        ops_path = self.work / f"ops{tag}.json"
        result_path = self.work / f"result{tag}.json"
        ops_path.write_text(json.dumps(ops))
        flags = (["--setup-only"] if setup_only else []) + extra
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), str(ops_path), str(result_path), repr(t0)]
        proc = subprocess.Popen(cmd + flags, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("a pass did not finish before the deadline")
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"pass child exited {proc.returncode}: {err[-2000:]}")
        result = json.loads(result_path.read_text("utf-8"))
        if not setup_only:
            result["diagrams"] = self.check(result["ops"], out)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, results: list[dict], out: Path) -> int:
        """Check every op of a pass; returns the number of diagrams attempted."""
        import workloads

        diagrams = 0
        for op, res in zip(self.plan["ops"], results):
            if op["kind"] == "batch":
                verdicts = workloads.check_batch(op, res["rc"], res["stdout"], out)
            else:
                verdicts = [(op["label"], workloads.check_analyze(op, res["rc"], res["stdout"]))]
            for label, bad in verdicts:
                diagrams += 1
                if bad:
                    self.failures.append(f"{label}: {'; '.join(bad)} {res['stderr'][-300:]}".strip())
            res["diagrams"] = len(verdicts)
        self.attempted += diagrams
        return diagrams


def scaled_op_seconds(p: dict, i: int) -> float:
    """Op i of pass p in reference seconds: scaled by the spin chunks run inside it."""
    op = p["ops"][i]
    a, b = op["chunks"]
    chunks = p["chunks"][a:b] if b - a >= MIN_OP_CHUNKS else p["chunks"]
    return op["seconds"] * SPIN_REF_S / statistics.fmean(chunks)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.child([], setup_only=True)  # compiles bytecode; not measured
    passes, setups, durations = [], [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(durations) < seconds
    ):
        t = time.monotonic()
        passes.append(runner.child(["--sample"]))
        setups += [runner.child([], setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        durations.append(time.monotonic() - t)
    setups += [p["setup_s"] for p in passes]
    n_ops = len(runner.plan["ops"])
    op_s = [statistics.fmean(scaled_op_seconds(p, i) for p in passes) for i in range(n_ops)]
    # Set-up runs no chunks of its own; it takes the speed of the whole run.
    run_scale = SPIN_REF_S / statistics.fmean(c for p in passes for c in p["chunks"])
    verdict, refusal = [], []
    for op, op_seconds, res in zip(runner.plan["ops"], op_s, passes[0]["ops"]):
        if op["kind"] == "refusal":
            refusal.append(op_seconds)
        else:
            verdict.append(op_seconds / res["diagrams"])
    metrics = {
        "setup_s": (statistics.median(setups) * run_scale, "s"),
        "wall_s": (sum(op_s), "s"),
        "verdict_p50_s": (statistics.median(verdict), "s"),
        "refusal_p50_s": (statistics.median(refusal), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }
    samples = {"passes": len(passes), "setup_s": len(setups), "verdict_p50_s": len(verdict),
               "refusal_p50_s": len(refusal),
               "spin_chunks": sum(len(p["chunks"]) for p in passes),
               "host_speed": round(run_scale, 4),
               "raw_setup_s": round(statistics.median(setups), 4),
               "raw_pass_wall_s": [round(p["wall_s"], 4) for p in passes],
               "op_seconds": {op["label"]: [round(scaled_op_seconds(p, i), 4) for p in passes]
                              for i, op in enumerate(runner.plan["ops"])}}
    return metrics, samples


def traced(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    runner.child([], setup_only=True)  # compiles bytecode; not measured
    plain = runner.child([])
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}.json"
    tr = runner.child(["--trace", str(spans_path)])
    t = tr["trace"]
    funcs = t["functions"]
    diagrams = tr["diagrams"]
    values: dict[str, tuple[float, str]] = {}
    for name, (self_s, calls) in funcs.items():
        values[f"{name}.self_s"] = (self_s, "s")
        values[f"{name}.calls"] = (calls, "count")
        if not name.startswith("harness."):
            layer = "layer." + name.split(".")[0] + ".self_s"
            values[layer] = (values.get(layer, (0.0, "s"))[0] + self_s, "s")
    if "lattice.short_vectors" in funcs:
        values["lattice.short_vectors.vectors"] = (t["short_vectors"], "count")
    if "invariants.invariant_bundle" in funcs:
        # per diagram that ends in a report; refusals are left out
        done = [(op, res) for op, res in zip(runner.plan["ops"], tr["ops"]) if op["kind"] != "refusal"]
        bundles = sum(res["calls"].get("invariants.invariant_bundle", 0) for _, res in done)
        values["invariants.invariant_bundle.calls_per_op"] = (
            bundles / sum(res["diagrams"] for _, res in done), "ratio")
    values["trace.wall_s"] = (tr["wall_s"], "s")
    values["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    values["trace.overhead_s"] = (tr["wall_s"] - plain["wall_s"], "s")
    values["trace.residual_s"] = (tr["wall_s"] - t["op_spans_s"], "s")
    ranking = sorted(((v[0], k) for k, v in values.items() if k.startswith("layer.")), reverse=True)
    print("layers by self time: " + ", ".join(f"{k[6:-7]} {v:.3f}s" for v, k in ranking))
    print(f"spans: {t['spans']} written to {spans_path.relative_to(ROOT)}")
    spec = ROOT / "BENCHMARK.json"
    wanted = ([m["name"] for m in json.loads(spec.read_text("utf-8"))["per_layer"]]
              if spec.is_file() else sorted(values))
    absent = [n for n in wanted if n not in values]
    if absent:
        print("absent (function not found in this version): " + ", ".join(absent))
    metrics = {n: values[n] for n in wanted if n in values}
    return metrics, {"diagrams_traced": diagrams}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "knotcert" / "__init__.py").is_file():
        return fail(f"no knotcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import knotcert
    import workloads

    if Path(knotcert.__file__).resolve().parent != SRC / "knotcert":
        return fail(f"knotcert imported from {knotcert.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    prov = provenance()
    plan = workloads.build(args.workload, args.seed, SRC / "knotcert" / "data" / "corpus.csv")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(plan, work)
        if args.trace:
            metrics, samples = traced(runner, args.workload, args.seed)
        else:
            metrics, samples = end_to_end(runner, args.seconds)
    except RuntimeError as ex:
        return fail(str(ex))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance: " + json.dumps(dict(prov, workload=args.workload, seed=args.seed,
                                           rank_cap=plan["rank_cap"], params=plan["params"])))
    print("samples: " + json.dumps(samples))
    for line in runner.failures[:20]:
        print("FAILED " + line)
    failed = len(runner.failures)
    print(f"failed_frac: {failed / runner.attempted:.6f} ({failed}/{runner.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
