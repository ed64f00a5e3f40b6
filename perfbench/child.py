"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py OPS_JSON RESULT_JSON T0 [--setup-only] [--sample]
                               [--trace SPANS_JSON]

T0 is the parent's `time.monotonic()` just before it started this process, so
set-up time covers interpreter start, `import knotcert` and reading the ops
file.  Every op is `knotcert.cli.main(argv)`, called in-process with stdout
captured; its exit status, output and duration go to RESULT_JSON.

With --sample, a wall-clock timer interrupts the ops every SAMPLE_INTERVAL_S
and times one fixed chunk of Fraction arithmetic (`spin`) in the signal handler,
so the chunks see the same host speed as the ops around them.  An op's
`seconds` excludes the chunks that ran inside it.  The chunk durations, and
for each op the index range of its own chunks, go to RESULT_JSON; the parent
scales op times by them (run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

SAMPLE_INTERVAL_S = 0.010
# Exact rational arithmetic, the kind of work knotcert spends its time on, so
# that a busy host slows a chunk about as much as the ops around it.  On a
# 2-vCPU cloud VM a pure integer loop slowed less than the ops and a random
# walk over a 64k-entry list much more; scaled op times then spread 1.5x and
# 6x as much over passes as with these Fractions.
SPIN_TERMS = tuple(Fraction(i + 1, 2 * i + 3) for i in range(12))


def spin() -> Fraction:
    """A fixed chunk of Fraction arithmetic; what it allocates is freed on return."""
    s = Fraction(0)
    for a in SPIN_TERMS:
        for b in SPIN_TERMS:
            s += a * b
    return s


class Sampler:
    """Times `spin` from a SIGALRM handler while the ops run."""

    def __init__(self):
        self.chunks: list[float] = []
        self.total = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        spin()
        d = time.perf_counter() - t
        self.chunks.append(d)
        self.total += d

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    ops_path, result_path, t0 = Path(argv[0]), Path(argv[1]), float(argv[2])
    import knotcert.cli

    ops = json.loads(ops_path.read_text("utf-8"))
    setup_s = time.monotonic() - t0
    result: dict = {"setup_s": setup_s}
    if "--setup-only" in argv:
        result_path.write_text(json.dumps(result))
        return 0

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def run_op(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = knotcert.cli.main(args)
            except SystemExit as ex:
                rc = ex.code
            except Exception:
                rc = "uncaught exception"
                err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    sampler = Sampler() if "--sample" in argv else None
    results = []
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    for args in ops:
        spun = sampler.total if sampler is not None else 0.0
        first = len(sampler.chunks) if sampler is not None else 0
        t = time.perf_counter()
        if tracer is None:
            rc, out, err = run_op(args)
        else:
            before = tracer.calls[:]
            rc, out, err = tracer.call(tracer.op_id, run_op, (args,), {})
        seconds = time.perf_counter() - t
        if sampler is not None:
            seconds -= sampler.total - spun
        res = {"rc": rc, "seconds": seconds, "stdout": out, "stderr": err[-2000:]}
        if sampler is not None:
            res["chunks"] = [first, len(sampler.chunks)]
        if tracer is not None:
            res["calls"] = {tracer.names[i]: c - before[i]
                            for i, c in enumerate(tracer.calls) if c != before[i]}
        results.append(res)
    if sampler is not None:
        sampler.stop()
    result["wall_s"] = time.perf_counter() - start
    if sampler is not None:
        result["wall_s"] -= sampler.total
        result["chunks"] = sampler.chunks
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = results
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(Path(argv[argv.index("--trace") + 1]))
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
