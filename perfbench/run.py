"""Benchmark of ldlgen: one workload per run, metrics as a JSON last line.

    python3 perfbench/run.py --workload {ladder,verify,dynamics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Operations with a CLI command are driven in-process through
``ldlgen.cli.run``, so each pays the cold-TMatrix cost a user pays.

A run sets up the workload, then repeats passes over its timed operations
until `--seconds` is used up (at least one pass), and checks every output.
With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics of one traced pass (set-up
included), measured after untraced passes that give the tracing overhead.
README.md describes the workloads, the metrics and which layer should move
which metric on which workload.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads: unravel_jump(threads=2)
# plus a multithreaded OpenBLAS would exceed the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = {name: ROOT / "models" / f"{name}.json" for name in ("tm_nr", "tm_rwa")}
TRACE_OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# Ladder models exist for this many model seeds (references.json);
# --seed picks one of them by residue.
LADDER_SEEDS = 8
CLI_THREADS = "2"
NOT_CALLED = {"calls": 0, "self_s": 0.0, "reuse_ratio": 0.0}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "ldlgen" / "__init__.py").is_file() or not all(p.is_file() for p in SHIPPED.values()):
    fail(f"no ldlgen checkout at {ROOT} (need src/ldlgen and models/)")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ldlgen  # noqa: E402
# Calls go through module attributes, so the tracer's wrappers are seen.
from ldlgen import cli, dynamics, tmatrix  # noqa: E402

import checks  # noqa: E402
import ladder  # noqa: E402
from calibration import Calibrator  # noqa: E402
from setup_probe import set_up  # noqa: E402
from tracing import Tracer  # noqa: E402

if Path(ldlgen.__file__).resolve().parent != SRC / "ldlgen":
    fail(f"ldlgen was imported from {ldlgen.__file__}, not from {SRC}")


class Gate:
    """Counts operations and the ones that raised, exited non-zero or
    failed their correctness check, and times each operation between two
    calibration samples."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.calibrator = Calibrator()

    def record(self, op, failures):
        self.attempted += 1
        if failures:
            self.failures.append(f"{op}: " + "; ".join(failures))

    def same_as_before(self, label, data):
        """Identical invocations must give byte-identical output."""
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(label, digest) != digest:
            return [f"{label}: output differs from an earlier identical invocation"]
        return []

    def run(self, op, fn):
        """Call fn() -> (timing, failures), timing being (wall seconds,
        reference seconds) from `calibrator.timed`; an exception fails
        the op."""
        try:
            timing, failures = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            timing, failures = (0.0, 0.0), [f"raised {type(exc).__name__}: {exc}"]
        self.record(op, failures)
        return timing


def total(*timings):
    """Sum (wall seconds, reference seconds) pairs."""
    return tuple(map(sum, zip(*timings)))


def cli_op(gate, tmp, label, argv, gates):
    """Run one CLI command in-process; time it, then check its JSON output."""
    out = tmp / (label.replace(" ", "_") + ".json")

    def op():
        timing, code = gate.calibrator.timed(
            lambda: cli.run(["--threads", CLI_THREADS, *argv, "--out", str(out)]))
        if code != 0:
            return timing, [f"exit code {code}"]
        data = out.read_bytes()
        doc = json.loads(data)
        failures = gate.same_as_before(label, data)
        for check in gates:
            failures += check(doc)
        return timing, failures

    return gate.run(label, op)


class Ladder:
    """Cold `generator`, then cold `drift`, on three seeded models."""

    def __init__(self, seed, tmp, gate):
        self.tmp, self.gate = tmp, gate
        model_seed = seed % LADDER_SEEDS
        self.models = ladder.write_ladder(model_seed, tmp)
        refs = checks.load_references()["models"]
        self.refs = {name: refs.get(f"{model_seed}/{name}") for name in self.models}
        self.probe_args = [str(p) for p in self.models.values()]

    def set_up(self):
        set_up(self.models.values())

    def _pair(self, name):
        path, ref = str(self.models[name]), self.refs[name]
        gen = cli_op(self.gate, self.tmp, f"generator {name}", ["generator", path], [
            checks.generator_gate,
            lambda doc: checks.against_reference("generator", doc, ref and ref["generator"])])
        drift = cli_op(self.gate, self.tmp, f"drift {name}", ["drift", path], [
            checks.drift_gate,
            lambda doc: checks.against_reference("drift", doc, ref and ref["drift"])])
        return gen, drift

    def run_pass(self):
        times = [self._pair(name) for name in self.models]
        return {"generator": total(*(t[0] for t in times)), "drift": total(*(t[1] for t in times))}

    def repeat(self):
        path = str(self.models["d2"])
        cli_op(self.gate, self.tmp, "generator d2", ["generator", path], [])

    def report(self, stages):
        return {"generator_s": (stages["generator"][0], "s"), "drift_s": (stages["drift"][0], "s")}


class Verify:
    """Cold `check --suite all` on the shipped models, then two Dyson-oracle
    cases from acceptance criterion 03, Richardson-extrapolated over eta."""

    etas = (4e-3, 2e-3, 1e-3)

    def __init__(self, seed, tmp, gate):
        self.tmp, self.gate = tmp, gate
        angle = np.random.default_rng(seed).uniform(0.2, 1.37)
        mix = np.array([np.cos(angle), np.sin(angle)])
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        self.cases = (("11", 2, mix, mix), ("01", 3, e1, e2))
        self.probe_args = [str(p) for p in SHIPPED.values()]

    def set_up(self):
        self.nr_spec = set_up([SHIPPED["tm_nr"]])[str(SHIPPED["tm_nr"])][0]

    def _check(self, name):
        return cli_op(self.gate, self.tmp, f"check {name}",
                      ["check", str(SHIPPED[name]), "--suite", "all"], [checks.check_gate])

    def _dyson(self, pair, n, u, v):
        tm = tmatrix.TMatrix(self.nr_spec)
        timed = self.gate.calibrator.timed

        def op():
            # Each eta is timed on its own, so calibration samples sit
            # between the three oracle runs.
            timings, vals = zip(*(
                timed(lambda eta=eta: tmatrix.dyson_oracle(tm, pair, n, u, v, eta,
                                                           t_max=400.0, dt=0.01))
                for eta in self.etas))
            extrapolated = tmatrix.richardson_extrapolate(list(vals), self.etas)
            ref_timing, reference = timed(lambda: tmatrix.dyson_reference(tm, pair, n, u, v))
            return total(*timings, ref_timing), checks.dyson_gate(extrapolated, reference)

        return self.gate.run(f"dyson {pair} n={n}", op)

    def run_pass(self):
        return {"check": total(*(self._check(name) for name in SHIPPED)),
                "dyson": total(*(self._dyson(*case) for case in self.cases))}

    def repeat(self):
        self._check("tm_rwa")

    def report(self, stages):
        return {"check_s": (stages["check"][0], "s"), "dyson_s": (stages["dyson"][0], "s")}


class Dynamics:
    """evolve_master over a long horizon, then unravel_jump at threads=1
    and threads=2, on the compressed tm_nr generator built in set-up."""

    evolve = {"t_max": 2000.0, "dt": 0.05}
    unravel = {"t_max": 20.0, "dt": 0.05, "trajectories": 20000}

    def __init__(self, seed, tmp, gate):
        self.seed, self.gate = seed, gate
        self.psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        self.rho0 = np.outer(self.psi0, self.psi0.conj())
        self.probe_args = ["--generator", str(SHIPPED["tm_nr"])]

    def set_up(self):
        self.gen = set_up([SHIPPED["tm_nr"]], generator=True)[str(SHIPPED["tm_nr"])][2]

    def _evolve(self):
        result = {}

        def op():
            timing, traj = self.gate.calibrator.timed(lambda: dynamics.evolve_master(
                self.gen, self.rho0, self.evolve["t_max"], self.evolve["dt"]))
            result["states"] = traj.states
            states = np.asarray(traj.states)
            return timing, (checks.trace_drift_gate(states)
                            + self.gate.same_as_before("evolve", states.tobytes()))

        return self.gate.run("evolve", op), result.get("states")

    def _unravel(self, threads):
        result = {}

        def op():
            timing, result["ens"] = self.gate.calibrator.timed(lambda: dynamics.unravel_jump(
                self.gen, self.psi0, self.unravel["t_max"], self.unravel["dt"],
                self.unravel["trajectories"], self.seed, threads=threads))
            return timing, []

        return self.gate.run(f"unravel threads={threads}", op), result.get("ens")

    def run_pass(self):
        evolve, states = self._evolve()
        t1, ens1 = self._unravel(1)
        t2, ens2 = self._unravel(2)
        if states is not None and ens1 is not None and ens2 is not None:
            self.gate.record("unravel vs master equation", checks.unravel_gate(ens1, ens2, states))
        return {"evolve": evolve, "unravel_t1": t1, "unravel_t2": t2}

    def repeat(self):
        self._evolve()

    def report(self, stages):
        steps = round(self.evolve["t_max"] / self.evolve["dt"])
        m = self.unravel["trajectories"]
        return {"evolve_steps_per_s": (steps / stages["evolve"][0], "1/s"),
                "unravel_traj_per_s": (m / stages["unravel_t1"][0], "1/s"),
                "unravel_traj_per_s_t2": (m / stages["unravel_t2"][0], "1/s")}


WORKLOADS = {"ladder": Ladder, "verify": Verify, "dynamics": Dynamics}


def timed_passes(workload, seconds):
    """Passes until `seconds` would be exceeded by another; at least one.
    Returns the stage timings, (wall seconds, reference seconds), of each
    pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def median_stages(passes):
    return {k: tuple(statistics.median(p[k][i] for p in passes) for i in (0, 1))
            for k in passes[0]}


def pass_median(passes, index):
    """Median over passes of the pass total in wall (0) or reference (1)
    seconds."""
    return statistics.median(sum(t[index] for t in p.values()) for p in passes)


def probe_seconds(proc):
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exit code {proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_seconds(workload):
    """Median set-up time, in reference seconds, over SETUP_PROBES fresh
    interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        def op():
            timing, _ = workload.gate.calibrator.timed(lambda: subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), *workload.probe_args],
                capture_output=True, text=True, timeout=120, check=False), probe_seconds)
            times.append(timing)
            return timing, []

        workload.gate.run("setup", op)
    if not times:
        fail("every set-up probe failed: " + "; ".join(workload.gate.failures))
    print(f"setup wall: {statistics.median(t[0] for t in times)!r} s")
    return statistics.median(t[1] for t in times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cli_threads": int(CLI_THREADS),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def end_to_end(workload, seconds):
    setup_s = setup_seconds(workload)
    workload.set_up()
    passes = timed_passes(workload, seconds)
    workload.repeat()
    stages = median_stages(passes)
    print(f"passes: {len(passes)}")
    print(f"pass wall: {pass_median(passes, 0)!r} s")
    for name, (value, unit) in workload.report(stages).items():
        print(f"{name}: {value!r} {unit}")
    for name, (_, ref) in stages.items():
        print(f"{name}_ref_s: {ref!r} s")
    return {
        "pass_ref_s": pass_median(passes, 1),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, seconds, name, seed):
    workload.set_up()
    passes = timed_passes(workload, seconds)
    untraced = pass_median(passes, 1)
    tracer = Tracer(
        variants={"dynamics.unravel_jump":
                  lambda args, kwargs: f".t{kwargs.get('threads', 1)}"},
        counters={"generator.build_generator": ("generator.kraus_entries", lambda g: len(g.kraus)),
                  "model.spectral_decompose": ("model.bohr_count", lambda sd: len(sd.bohr))},
    )
    tracer.install()
    try:
        workload.set_up()
        traced = sum(t[1] for t in workload.run_pass().values())
    finally:
        tracer.uninstall()
    TRACE_OUT.mkdir(exist_ok=True)
    spans_path = TRACE_OUT / f"spans_{name}_seed{seed}.csv.gz"
    tracer.write(spans_path)
    print(f"spans: {tracer.span_count} written to {spans_path}")
    summary = tracer.summary()
    values = dict(tracer.counts)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    for metric in declared("per_layer"):
        span, _, field = metric.rpartition(".")
        if metric not in values:
            values[metric] = summary.get(span, NOT_CALLED)[field]
    return values


def main():
    parser = argparse.ArgumentParser(description="ldlgen benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print("environment: " + json.dumps(environment(), sort_keys=True))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    gate = Gate()
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp, gate)
        if args.trace:
            values = per_layer(workload, args.seconds, args.workload, args.seed)
        else:
            values = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared(kind).items()}
    failed = len(gate.failures)
    for failure in gate.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed_frac: {failed / max(gate.attempted, 1)!r} frac")
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
