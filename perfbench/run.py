"""imtw benchmark: seeded exact-solve workloads through the documented CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each instance runs ``imtw.cli.main`` in-process, ``decompose`` then
``solve <problem>``, in a closed loop: one caller, no threads, the next
instance starts when the previous one returns. A run measures whole rounds
(see workloads.py) until ``--seconds`` of solving have passed and at least
MIN_INSTANCES instances were timed, then checks every answer against a
reference computed outside the timed region (reference.py).

Times are normalised for machine speed (calibration.py): while instances
run, a timer signal samples a fixed calibration loop on the one thread, and
each instance's wall time, less the sampling inside it, is scaled by the
speed the loop measured during it. Raw figures are printed alongside.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` ignores
``--seconds``: it solves round 0 once untraced and once with the span
recorder (tracing.py) installed, so every count repeats exactly for a seed,
and prints the per-layer metrics. The last line of output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from calibration import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, known_defect_probes, make_round, write_instance  # noqa: E402

MIN_INSTANCES = 200  # ten samples beyond the 90th percentile, twice over
SETUP_REPEATS = 4  # before the timed loop, and as many again after it
# setup_s is in seconds on a machine where the reference set-up (set-up
# without importing the program) takes SETUP_NOMINAL_S.
SETUP_NOMINAL_S = 0.2
SETUP_TIMEOUT_S = 120
# How the open generic-DP defect shows on the known-defect probes; any other
# outcome of a probe that disagrees with its reference is a failure.
KNOWN_DEFECT = "exit 3: invariant: reconstructed solution has a clique larger than"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_s(workload, seed, directory, *flags):
    """Wall time of one fresh set-up process (setup_probe.py)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(directory), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
    return time.perf_counter() - start


def measure_setup(workload, seed, directory):
    """(Scaled, raw) time of one fresh set-up.

    Process start and file writes swing with the machine in ways the
    calibration loop does not follow, so set-up is scaled instead by a
    reference set-up run right after it: the same work without importing
    the program.
    """
    raw = probe_s(workload, seed, directory / "setup")
    reference = probe_s(workload, seed, directory / "reference", "--reference")
    return raw / reference * SETUP_NOMINAL_S, raw


def prepare(instances, directory):
    """Write the files and compute references; never timed."""
    directory.mkdir(parents=True)
    for inst in instances:
        write_instance(inst, directory)
        inst.reference = reference.compute(inst)
    return instances


def run_cli(argv):
    import imtw.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = imtw.cli.main(argv)  # looked up per call, so a traced wrapper is seen
    return code, buf.getvalue()


def run_instances(instances, recorder=None):
    """Solve each instance under the speed sampler.

    Returns (raw seconds, normalised seconds, outputs), one entry per instance.
    """
    spans, outputs = [], []
    with SpeedSampler() as sampler:
        if recorder is not None:
            recorder.sampler = sampler
        for inst in instances:
            if recorder is not None:
                recorder.instance = inst.ident
            spent, start = sampler.spent, time.perf_counter()
            out = [] if inst.single_bag else [run_cli(inst.argv_decompose())]
            out.append(run_cli(inst.argv_solve()))
            spans.append((start, time.perf_counter(), sampler.spent - spent))
            outputs.append(out)
    raw = [end - start - spent for start, end, spent in spans]
    times = [t * sampler.factor(start, end) for t, (start, end, _) in zip(raw, spans)]
    return raw, times, outputs


def judge(inst, outputs):
    """None for a right answer, else the failure reason."""
    for code, text in outputs[:-1]:
        report = json.loads(text)
        if code != 0 or not report["verification"].get("valid"):
            return f"decompose exit {code}: {report.get('error')}"
    code, text = outputs[-1]
    return reference.check(inst, code, json.loads(text))


def failures_of(instances, results):
    out = []
    for inst, outputs in zip(instances, results):
        reason = judge(inst, outputs)
        if reason is not None:
            out.append((inst, reason))
    return out


def warm_up(workload, seed, work):
    """Solve the smallest instance of each problem once, untimed, so that
    first-call costs inside the interpreter do not land on the first timed
    instance. The instances come from their own stream and are not reused."""
    smallest = {}
    for inst in make_round(workload, seed, "warm-up"):
        if inst.problem not in smallest or inst.n < smallest[inst.problem].n:
            smallest[inst.problem] = inst
    run_instances(prepare(list(smallest.values()), work / "warm-up"))


def untraced(args, work):
    # Set-up is measured at both ends of the run, so that one slow stretch
    # of the machine cannot hold every sample.
    setup = [measure_setup(args.workload, args.seed, work / f"setup{i}") for i in range(SETUP_REPEATS)]
    warm_up(args.workload, args.seed, work)
    raw, times, failures, rnd = [], [], [], 0
    while sum(raw) < args.seconds or len(times) < MIN_INSTANCES:
        instances = prepare(make_round(args.workload, args.seed, rnd), work / f"r{rnd}")
        round_raw, round_times, outputs = run_instances(instances)
        raw += round_raw
        times += round_times
        failures += failures_of(instances, outputs)
        rnd += 1
    setup += [measure_setup(args.workload, args.seed, work / f"setup-end{i}") for i in range(SETUP_REPEATS)]
    setup_s, setup_raw = (statistics.median(col) for col in zip(*setup))
    failed_frac = f"failed_frac = {len(failures) / len(times):.4f} ({len(failures)} of {len(times)})"
    metrics = {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "throughput_ips": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    if args.workload == "solver-mix":  # outside the timed loop, the counts and peak_rss_mib
        probes = prepare(known_defect_probes(), work / "probes")
        failures += failures_of(probes, run_instances(probes)[2])
    notes = [
        f"{len(times)} instances in {rnd} rounds, {sum(raw):.2f} s raw solving",
        f"raw: solve_s.p50 {statistics.median(raw):.4g} s, solve_s.p90 "
        f"{statistics.quantiles(raw, n=10)[-1]:.4g} s, throughput_ips {len(raw) / sum(raw):.4g} 1/s, "
        f"setup_s {setup_raw:.4g} s; "
        f"machine speed factor {sum(raw) / sum(times):.3f}",
        failed_frac,
    ]
    return metrics, len(times), failures, notes


def traced(args, work):
    from tracing import Recorder

    warm_up(args.workload, args.seed, work)
    instances = make_round(args.workload, args.seed, 0)
    if args.workload == "solver-mix":
        instances += known_defect_probes()
    prepare(instances, work / "r0")
    _, untraced_times, outputs = run_instances(instances)
    recorder = Recorder()
    recorder.install()
    try:
        _, traced_times, traced_outputs = run_instances(instances, recorder)
    finally:
        recorder.restore()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(spans_path)
    values, errors = recorder.metrics(len(instances), sum(traced_times), sum(untraced_times))
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    failures = failures_of(instances, outputs) + failures_of(instances, traced_outputs)
    notes = [f"{len(instances)} instances, {len(recorder.spans)} spans; normalised solving "
             f"untraced {sum(untraced_times):.2f} s, traced {sum(traced_times):.2f} s",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    notes += [f"errors in layer {layer}: {count} x {cls}" for (layer, cls), count in sorted(errors.items())]
    return metrics, len(instances), failures, notes


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_instance"):
        return "calls"
    return "count"


def run_one(args):
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, attempted, failures, notes = (traced if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mode = "traced per-layer" if args.trace else "end-to-end"
    print(f"== {args.workload} seed {args.seed}: {mode} metrics")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    probes = {p.ident: p.label for p in known_defect_probes()} if args.workload == "solver-mix" else {}
    reasons = {inst.ident: (inst, reason) for inst, reason in failures}
    for ident, label in probes.items():
        if ident not in reasons:
            print(f"  known-defect probe {ident} {label}: solved, the defect no longer reproduces")
    failed = []
    for ident, (inst, reason) in reasons.items():
        known = ident in probes and reason.startswith(KNOWN_DEFECT)
        print(f"  {'known-defect probe' if known else 'FAILED'} {ident} {inst.label}: {reason}")
        if not known:
            failed.append(ident)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process; prints each report."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "imtw" / "cli.py").is_file():
        print(f"imtw sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
