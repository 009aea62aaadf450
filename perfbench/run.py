"""Benchmark of the ``lgt`` command line on four paper scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is a closed loop with one client: one fresh ``lgt``
process at a time, each with a fresh output directory, so the module-level
kernel caches of ``lgt.dynamics`` never carry over between runs. The
workloads are fixed scenarios (``lgt`` has no randomness), so ``--seed``
is recorded but selects nothing.

``--trace 0`` first launches processes that stop where set-up ends, for
``PROBE_SHARE`` of the window, then full runs while the next one would
end at most half a run past ``--seconds`` (at least one). It reports
medians of wall time, set-up time, CPU time and peak RSS. ``--trace 1`` alternates untraced and traced full runs and
reports the per-layer metrics of the traced ones (see README.md).

Every full run's outputs are checked against ``reference/<workload>``; a
run fails if it exits non-zero or its outputs deviate. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run's samples, quartiles and environment
are written to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from check import check_outputs, curve_trotter_error
from spans import aggregate, layer_self_times

HERE = Path(__file__).resolve().parent

# name -> (lgt command, config file under configs/). string_breaking is not
# in BENCHMARK.json (see README.md) but can still be run by name.
WORKLOADS = {
    "double_plaquette": ("run", "double_plaquette.json"),
    "vacuum_decay": ("run", "vacuum_decay.json"),
    "string_breaking": ("run", "string_breaking.json"),
    "assembly_5x5": ("resources", "assembly_5x5.json"),
}
# One BLAS/OpenMP thread: on a small shared machine a second thread mostly
# adds run-to-run spread, and the benchmark measures one process at a time.
BLAS_THREADS = 1
# Set-up probes take this share of the window (at least MIN_PROBES of them):
# set-up is short and noisy, so it gets many samples.
PROBE_SHARE = 0.1
MIN_PROBES = 3
DEADLINE_S = 170.0       # the whole run must end well within 180 s
LAYERS = ("cli", "hamiltonian", "pauli", "resources", "dynamics")


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


@dataclass
class Sample:
    kind: str                  # probe | full | traced
    ok: bool = False
    problems: list = field(default_factory=list)
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    trotter_err: float | None = None
    trotter_shared_points: int | None = None
    bytes_written: int | None = None
    layers: dict | None = None


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Launches one child at a time and turns it into a ``Sample``."""

    def __init__(self, root: Path, workload: str, work: Path, deadline: float):
        self.command, config = WORKLOADS[workload]
        self.config = HERE / "configs" / config
        self.reference = HERE / "reference" / workload
        self.root, self.work, self.deadline = root, work, deadline
        self.env = child_env(root / "src")
        self.log = work / "children.log"

    def launch(self, kind: str, keep: Path | None = None) -> Sample:
        sample = Sample(kind)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            sample.problems.append("no time left before the deadline")
            return sample
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        out, marker, spans = run_dir / "out", run_dir / "marker", run_dir / "spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(marker)]
        cmd += ["--probe"] if kind == "probe" else []
        cmd += ["--trace", str(spans)] if kind == "traced" else []
        cmd += ["--", self.command, str(self.config), "--out", str(out)]
        with open(self.log, "ab") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            except BaseException:
                proc.kill()     # interrupted or terminated: leave no child
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            self._record(sample, proc.returncode, t0, t1, usage, out, marker, spans)
            if keep is not None and out.is_dir():
                shutil.copytree(out, keep, dirs_exist_ok=True)
        finally:
            shutil.rmtree(run_dir)
        return sample

    def _record(self, sample, rc, t0, t1, usage, out, marker, spans):
        if rc != 0:
            sample.problems.append(f"exit code {rc}")
            return
        if not marker.is_file():
            sample.problems.append("set-up end was never reached")
            return
        sample.setup_s = float(marker.read_text()) - t0
        if sample.kind == "probe":
            sample.ok = True
            return
        sample.wall_s = t1 - t0
        sample.cpu_s = usage.ru_utime + usage.ru_stime
        sample.peak_rss_mb = usage.ru_maxrss / 1024.0
        sample.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        if self.reference.is_dir():
            sample.problems += check_outputs(self.reference, out)
        else:
            sample.problems.append(f"no reference outputs in {self.reference}")
        if self.command == "run":
            err = curve_trotter_error(out)
            if err is None:
                sample.problems.append("no exact and Trotter curves to compare")
            else:
                sample.trotter_err, sample.trotter_shared_points = err
        if sample.kind == "traced":
            trace = json.loads(spans.read_text())
            sample.layers = layer_metrics(trace, sample)
            accounted = sum(sample.layers[f"{layer}.self_s"] for layer in LAYERS)
            gap = abs(accounted - (sample.wall_s - sample.layers["trace.startup_s"]))
            if gap > 1e-6:
                sample.problems.append(f"layer self times miss {gap:.3g} s")
        sample.ok = not sample.problems


def layer_metrics(trace: dict, sample: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced process (0 where a layer is idle)."""
    agg = aggregate(trace["spans"])
    counts, rss = trace["counts"], trace["rss_after"]

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    step_s = total("dynamics.trotter_step")
    updates = counts.get("dynamics.trotter_amp_updates", 0)
    configs = counts.get("dynamics.gauss_configs", 0)
    kept = counts.get("dynamics.gauss_kept", 0)
    m = {
        "dynamics.trotter_step_s": step_s,
        "dynamics.trotter_steps": calls("dynamics.trotter_step"),
        "dynamics.trotter_amp_updates": updates,
        "dynamics.trotter_amp_updates_per_s": updates / step_s if step_s else 0.0,
        "dynamics.exact_evolve_s": total("dynamics.exact_evolve"),
        "dynamics.exact_evolve.self_s": own("dynamics.exact_evolve"),
        "dynamics.matvecs": calls("dynamics.matvec"),
        "dynamics.matvec_s": total("dynamics.matvec"),
        "dynamics.exact_setup_s": total("dynamics.exact_setup"),
        "dynamics.gauss_filter_s": total("dynamics.gauss_filter"),
        "dynamics.gauss_configs": configs,
        "dynamics.gauss_kept": kept,
        "dynamics.gauss_kept_ratio": kept / configs if configs else 0.0,
        "dynamics.readout_s": total("dynamics.readout"),
        "dynamics.readout_calls": calls("dynamics.readout"),
        "dynamics.labels": counts.get("dynamics.labels", 0),
        "dynamics.standard_observables_s": total("dynamics.standard_observables"),
        "dynamics.trotter_err": sample.trotter_err or 0.0,
        "hamiltonian.assemble_s": total("hamiltonian.assemble"),
        "hamiltonian.n_strings": counts.get("hamiltonian.n_strings", 0),
        "pauli.op_mul_s": total("pauli.op_mul"),
        "pauli.op_mul_calls": calls("pauli.op_mul"),
        "pauli.op_add_s": total("pauli.op_add"),
        "pauli.op_add_calls": calls("pauli.op_add"),
        "pauli.from_terms_s": total("pauli.from_terms"),
        "pauli.from_terms_calls": calls("pauli.from_terms"),
        "resources.scaling_table.self_s": own("resources.scaling_table"),
        "resources.cnot_per_trotter_step_s": total("resources.cnot_per_trotter_step"),
        "cli.config_s": total("cli.config"),
        "cli.run_scenario.self_s": own("cli.run_scenario"),
        "cli.run_resources.self_s": own("cli.run_resources"),
        "cli.main.self_s": own("cli.main"),
        "cli.bytes_written": sample.bytes_written,
        "trace.wall_s": sample.wall_s,
        "trace.startup_s": sample.wall_s - total("cli.main"),
    }
    for part in ("mass", "hopp_wilson", "electric", "plaquette", "gauss"):
        m[f"hamiltonian.build_{part}_s"] = total(f"hamiltonian.build_{part}")
    layer_self = layer_self_times(trace["spans"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for what, span in (("assemble", "hamiltonian.assemble"),
                       ("exact_setup", "dynamics.exact_setup"),
                       ("exact_evolve", "dynamics.exact_evolve"),
                       ("trotter", "dynamics.trotter_step"),
                       ("gauss_filter", "dynamics.gauss_filter")):
        m[f"mem.rss_mb_after_{what}"] = rss.get(span, 0.0)
    return m


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


ENV_PROBE = """\
import json, platform
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (KeyError, TypeError) as exc:
    blas = f"unknown ({exc!r})"
import lgt.cli
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def environment(root: Path, env: dict) -> dict:
    """Machine and library data stored with every result."""
    info = {"nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "cpu_model": None, "git_rev": None}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        if git.returncode == 0:
            info["git_rev"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=root, env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import lgt from {root / 'src'}:\n"
                           f"{probe.stderr.strip()}")
    info.update(json.loads(probe.stdout))
    return info


def timed_run(runner: Runner, seconds: float) -> tuple[list[Sample], dict]:
    start = time.monotonic()
    samples = []
    while all(s.ok for s in samples) and (
            len(samples) < MIN_PROBES
            or time.monotonic() - start < PROBE_SHARE * seconds):
        samples.append(runner.launch("probe"))
    walls = []
    while all(s.ok for s in samples):
        sample = runner.launch("full")
        samples.append(sample)
        if not sample.ok:
            break
        walls.append(sample.wall_s)
        # stop when the next run would end more than half a run late, so
        # the window is filled and overrun by at most half a run
        if time.monotonic() - start + statistics.median(walls) / 2 > seconds:
            break
    ok = [s for s in samples if s.ok]
    full = [s for s in ok if s.kind == "full"]
    stats = {"setup_s": summary([s.setup_s for s in ok])} if ok else {}
    if full:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            stats[name] = summary([getattr(s, name) for s in full])
        stats["trotter_err"] = full[0].trotter_err
        stats["trotter_shared_points"] = full[0].trotter_shared_points
    return samples, stats


def traced_run(runner: Runner, seconds: float) -> tuple[list[Sample], dict]:
    start = time.monotonic()
    samples = []
    while True:
        pair = [runner.launch("full"), runner.launch("traced")]
        samples += pair
        if not all(s.ok for s in pair):
            break
        per_pair = (time.monotonic() - start) / (len(samples) // 2)
        if time.monotonic() - start + per_pair > seconds:
            break
    traced = [s for s in samples if s.kind == "traced" and s.ok]
    plain = [s for s in samples if s.kind == "full" and s.ok]
    stats = {}
    if traced and plain:
        for name in traced[0].layers:
            stats[name] = summary([s.layers[name] for s in traced])
        overhead = (statistics.median(s.wall_s for s in traced)
                    - statistics.median(s.wall_s for s in plain))
        stats["trace.overhead_s"] = summary([overhead])
    return samples, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    end_to_end, per_layer = declared_metrics()

    root = Path.cwd()
    if not (root / "src" / "lgt" / "cli.py").is_file():
        print(f"error: no lgt source under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    try:
        env_info = environment(root, child_env(root / "src"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work_root = root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    runner = Runner(root, args.workload, work, deadline)
    run = traced_run if args.trace else timed_run
    try:
        samples, stats = run(runner, args.seconds)
    except BaseException:
        shutil.rmtree(work)
        raise

    failed = sum(not s.ok for s in samples)
    units = per_layer if args.trace else end_to_end
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in units.items() if name in stats}
    correct = failed == 0 and len(metrics) == len(units)

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env_info, "correct": correct,
              "attempted": len(samples), "failed": failed, "stats": stats,
              "samples": [asdict(s) for s in samples]}
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    if failed:
        shutil.copy(runner.log, out_path.with_suffix(".log"))
    shutil.rmtree(work)

    print(f"workload {args.workload}: {len(samples)} processes, {failed} failed, "
          f"BLAS threads {BLAS_THREADS}, results in {out_path.relative_to(root)}")
    for s in samples:
        for problem in s.problems:
            print(f"  {s.kind} run failed: {problem}")
    for name, unit in units.items():
        if name in stats:
            st = stats[name]
            print(f"  {name:40s} {st['median']:14.6g} {unit:6s} "
                  f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    if not args.trace and stats.get("trotter_err") is not None:
        print(f"  {'trotter_err':40s} {stats['trotter_err']:14.6g} {'1':6s} "
              f"({stats['trotter_shared_points']} shared sample times)")
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
