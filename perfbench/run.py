"""solvstrat benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client issues one operation at a time and checks each output
outside the timed region.  ``--trace 0`` runs once through a corpus of as
many rounds as fit S seconds at the round times in ``ROUND_SECONDS`` and
reports the end-to-end metrics; ``--trace 1`` runs each operation of a fixed
corpus prefix untraced and traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object.  See README.md.
"""

import os

# One BLAS thread, before numpy is imported: on a small machine the numbers
# should measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_SAMPLES = 3
TAIL_BEYOND = 10
# Seconds of operation time one corpus round took on a 2-core x86-64 host
# when the benchmark was defined (exact-label: its structured algebras, which
# come once, take STRUCTURED_SECONDS more).  An end-to-end run goes once through
# a corpus of as many rounds as fit S seconds: the seed and S fix the work, so
# the attempted and failed counts repeat exactly.
ROUND_SECONDS = {"exact-label": 2.6, "flow-stratum": 0.29, "einstein-audit": 0.85,
                 "minnorm-points": 1.75}
STRUCTURED_SECONDS = {"exact-label": 8.0}
# The speed of a shared host's CPU drifts by up to 50% within a second and
# by about 20% from one run to the next, and every timing drifts with it.  A
# fixed reference kernel, which calls no package code, runs before and after
# each set-up and each operation, outside the timed regions.  Each end-to-end
# timing is reported at the host speed where the kernel takes
# REFERENCE_SECONDS: scaled by REFERENCE_SECONDS over the mean of the kernel's
# two times around it.  The raw figures are printed on a comment line.
REFERENCE_SECONDS = 0.005
# Operations in the fixed corpus prefix of a traced run (each runs twice).
TRACE_OPS = {"exact-label": 24, "flow-stratum": 50, "einstein-audit": 120,
             "minnorm-points": 28}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import solvstrat.cli; "
                "print(time.perf_counter() - t)")


class Op:
    __slots__ = ("id", "run", "check")

    def __init__(self, op_id, run, check):
        self.id, self.run, self.check = op_id, run, check


def _label_op(spec):
    from solvstrat import bracket, strata

    mu = bracket.BracketTensor.make(
        spec["dim"], {(i, j, k): Fraction(c) for i, j, k, c in spec["coeffs"]})

    def run():
        beta = strata.beta_of(mu)
        chamber, order = strata.sort_to_weyl_chamber(beta)
        sigma = [0] * mu.dim
        for pos, i in enumerate(order):
            sigma[i] = pos + 1
        moved = bracket.permutation_act(sigma, mu)
        moved_beta = strata.beta_of(moved)
        cert = strata.certify_candidate(moved, chamber)
        return beta, chamber, sigma, moved_beta, cert

    def check(out):
        beta, chamber, sigma, moved_beta, cert = out
        return checks.check_label(spec["coeffs"], beta.entries, chamber.entries, sigma,
                                  moved_beta.entries, cert.checks, spec["structured"],
                                  spec["label"])

    return Op(spec["id"], run, check)


def _cli_op(spec, index, workdir):
    from solvstrat import cli

    path = workdir / f"{index:04d}.json"
    path.write_text(json.dumps(spec["file"]))
    argv = [str(path) if a == "{file}" else a for a in spec["argv"]]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(out):
        code, text = out
        return checks.check_cli(spec["argv"], spec["file"], spec["expect"], code, text)

    return Op(spec["id"], run, check)


def prepare(workload, seed, workdir, rounds=None):
    """Generate the corpus and turn it into runnable operations."""
    specs = corpus.generate(workload, seed, rounds)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if workload == "exact-label":
        ops = [_label_op(s) for s in specs]
    else:
        ops = [_cli_op(s, i, workdir) for i, s in enumerate(specs)]
    return corpus.corpus_bytes(specs), ops


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def record(self, op, out, error):
        self.attempted += 1
        if error is not None:
            verdict, msg = checks.FAILED, f"{type(error).__name__}: {error}"
        else:
            verdict, msg = op.check(out)
        if verdict != checks.OK:
            self.failed += 1
            self.wrong += verdict == checks.WRONG
            if len(self.messages) < 20:
                self.messages.append(f"{verdict}: {op.id}: {msg}")


def run_op(op):
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, error = None, exc
    return time.perf_counter() - t0, out, error


def reference_seconds():
    """Time one run of the reference kernel: exact rationals, small dense
    float matrices and JSON, the three kinds of work the workloads do.  The
    garbage collector is off meanwhile, so that collecting the program's
    garbage stays in the program's time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 800):
            acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        a = np.arange(36.0).reshape(6, 6) / 10
        for _ in range(150):
            a = np.tanh(a @ a.T / 36)
            np.linalg.eigh(a)
        json.loads(json.dumps([[str(x) for x in range(50)]] * 20))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds, before, after):
    return seconds * 2 * REFERENCE_SECONDS / (before + after)


def rounds_for(workload, seconds):
    spare = seconds - STRUCTURED_SECONDS.get(workload, 0.0)
    return max(1, round(spare / ROUND_SECONDS[workload]))


def measure(ops, tally):
    """Closed loop once through the corpus: the next operation starts only
    after the previous one returned.  Returns the latencies at the reference
    host speed, and the raw ones."""
    lat, raw = [], []
    before = reference_seconds()
    for op in ops:
        dt, out, error = run_op(op)
        after = reference_seconds()
        tally.record(op, out, error)
        lat.append(at_reference_speed(dt, before, after))
        raw.append(dt)
        before = after
    return lat, raw


def end_to_end(args, workdir, tally):
    samples, raw_setup, images = [], [], set()
    rounds = rounds_for(args.workload, args.seconds)
    reference_seconds()   # warm-up: numpy's first calls are slow
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        imp = import_seconds()
        t0 = time.perf_counter()
        image, ops = prepare(args.workload, args.seed, workdir, rounds)
        dt = imp + time.perf_counter() - t0
        after = reference_seconds()
        samples.append(at_reference_speed(dt, before, after))
        raw_setup.append(dt)
        images.add(image)
        before = after
    if len(images) != 1:
        raise RuntimeError("corpus generation is not deterministic")
    lat, raw = measure(ops, tally)
    # the highest percentile with at least TAIL_BEYOND samples beyond it
    beyond = min(TAIL_BEYOND, len(lat) - 1)

    def timings(lat, setup):
        lat = sorted(lat)
        return {"ops_per_s": (len(lat) / sum(lat), "1/s"),
                "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "latency_tail_ms": (1e3 * lat[-1 - beyond], "ms"),
                "setup_s": (statistics.median(setup), "s")}

    metrics = timings(lat, samples)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print("# raw timings: " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit)
                                        in timings(raw, raw_setup).items()))
    print(f"# latency_tail_ms is p{100 * (1 - beyond / len(lat)):.1f} of {len(lat)} "
          f"samples ({beyond} beyond it)")
    print(f"# fail_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    return metrics


def traced(args, workdir, tally):
    from tracing import DETERMINISTIC, Tracer, layer_metrics

    _, ops = prepare(args.workload, args.seed, workdir)
    ops = ops[:TRACE_OPS[args.workload]]
    tracer = Tracer()
    plain = with_trace = 0.0
    # Each operation runs untraced and traced back to back, in alternating
    # order, so drift in machine speed and warm-up cancel in the overhead.
    for idx, op in enumerate(ops):
        tracer.op = idx
        for traced_run in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
                try:
                    dt, out, error = run_op(op)
                finally:
                    tracer.uninstall()
                with_trace += dt
            else:
                dt, out, error = run_op(op)
                plain += dt
            tally.record(op, out, error)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv")
    metrics = layer_metrics(tracer.spans)
    metrics["trace_overhead_ratio"] = (with_trace / plain, "ratio")
    print(f"# traced {len(ops)} operations, {len(tracer.spans)} spans; deterministic "
          "counts: " + ", ".join(f"{k}={metrics[k][0]}" for k in DETERMINISTIC))
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "solvstrat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a solvstrat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(args, workdir, tally)
        else:
            metrics = end_to_end(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for msg in tally.messages:
        print(f"# {msg}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
