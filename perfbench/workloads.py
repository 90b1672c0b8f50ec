"""The seeded workloads and the sessions that time them.

Every workload starts from fedfocal's `smoke` preset, and the workload seed
sets `dataset.synth.seed`, `partition.seed` and `federation.seed`. A run
repeats `run_experiment` into a fresh directory; its timed operation is one
federated round. Sessions run in this process; only the import of fedfocal
is timed in child processes. Every timing of the untraced run is scaled by
the reference task next to it (see reference.py).

Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import reference
from percentiles import median, percentile, tail_level
from spans import Patches, Tracer, write_spans

from fedfocal import experiment as X
from fedfocal import federation as F
from fedfocal import models as M


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict


WORKLOADS = {w.name: w for w in (
    Workload("mlp-smoke", {}),
    Workload("dir20-threads", {"partition.mode": "dirichlet", "partition.beta": 0.5,
                               "partition.clients": 20, "federation.concurrent": True,
                               "federation.rounds": 100}),
)}

# rounds a run times at least, whatever --seconds says, so that ten lie below
# the p10 it reports
MIN_OPS = 100
# quality floors, well below every seed probed at the seed commit (lowest
# seen: macro-F1 0.52, macro AUC 0.875) and well above chance (0.2, 0.5)
F1_FLOOR = 0.3
AUC_FLOOR = 0.75

ARTIFACTS = ("metrics.csv", "rounds.jsonl", "final.ckpt")
MAX_FAILED = 3
# a run stops collecting operations after this long, so that it ends within
# three minutes even on a host much slower than the one the sizes came from
HARD_STOP_S = 120.0
IMPORT_RUNS = 21
# reference tasks run before and after each timed import
IMPORT_REFERENCES = 5
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\n"
                "import fedfocal.cli\n"
                "print(repr(time.perf_counter() - t))\n")


def config(workload: Workload, seed: int):
    return X.preset_config("smoke", seed=seed).with_overrides(
        {**workload.overrides, "dataset.synth.seed": seed})


def digest(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest()
            for n in names if (directory / n).exists()}


def manifest_counts(run_dir: Path) -> tuple[int, int]:
    """(training samples, test samples) from a run's partition.manifest."""
    train = test = 0
    for line in (run_dir / "partition.manifest").read_text().splitlines():
        where = line.partition("\t")[2]
        if where == "test":
            test += 1
        elif where.startswith("client-"):
            train += 1
    return train, test


class ImportClock:
    """Scaled wall time of `import fedfocal.cli` in fresh interpreters. The
    first import fills the bytecode cache and is not counted; the counted ones
    are spread over the run, between operations."""

    def __init__(self, src: Path, spacing: float):
        self.src, self.spacing = src, spacing
        self.times: list[float] = []
        self.last = time.perf_counter()
        self._once()

    def _once(self) -> float:
        before = [reference.task() for _ in range(IMPORT_REFERENCES)]
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(self.src)],
                              capture_output=True, text=True, timeout=120, check=True)
        after = [reference.task() for _ in range(IMPORT_REFERENCES)]
        self.last = time.perf_counter()
        return reference.scaled(float(done.stdout.strip().splitlines()[-1]), *before, *after)

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= self.spacing and len(self.times) < IMPORT_RUNS:
            self.times.append(self._once())

    def median(self) -> float:
        while len(self.times) < IMPORT_RUNS:
            self.times.append(self._once())
        return median(self.times)


class RoundClock:
    """While installed, times set-up, from the start of a repetition to the
    return of the model's init_params, and each round, from the end of set-up
    or of the previous round to the return of its eval_scores. At each of
    these returns it runs the reference task, which falls between two timings
    and in neither; each timing is scaled by the tasks on either side of it
    (set-up by the one after it)."""

    def __init__(self):
        self.start = None
        self.setup_end = None
        self.setup = None
        self.rounds: list[float] = []
        self.samples: list[float] = []
        self._patches = Patches()

    def reset(self, start: float):
        self.start, self.setup_end, self.setup = start, None, None
        self.rounds.clear()
        self.samples.clear()

    def _after(self, fn, ends_round: bool):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            sample = reference.task()
            if ends_round:
                self.rounds.append(reference.scaled(end - self.start, self.samples[-1], sample))
            else:
                self.setup_end = end
                self.setup = reference.scaled(end - self.start, sample)
            self.samples.append(sample)
            self.start = time.perf_counter()
            return out
        return wrapper

    def __enter__(self):
        self._patches.replace(F, "eval_scores", self._after(F.eval_scores, True),
                              package="fedfocal")
        for cls in (M.MlpClassifier, M.ViTClassifier):
            self._patches.replace(cls, "init_params",
                                  self._after(cls.__dict__["init_params"], False))
        return self

    def __exit__(self, *exc):
        wrong = self._patches.restore()
        if wrong:
            raise RuntimeError(f"not restored: {wrong}")


class Session:
    """Counts operations and failures. An operation fails if it raises or
    fails an output check; a failure is reported, not fatal."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 root: Path, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.root, self.work = root, work
        self.attempted = 0
        self.failed = 0
        self.started = time.perf_counter()

    def attempt(self, fn, *args):
        """fn returns (result, problems); the result of a failed operation
        is dropped."""
        self.attempted += 1
        try:
            result, problems = fn(*args)
        except Exception:  # keep measuring; the miss goes into failed
            traceback.print_exc()
            result, problems = None, [f"{fn.__name__} raised"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return None
        return result

    def go_on(self, ops: int, deadline: float) -> bool:
        """Whether to start another operation: until the deadline and the
        workload's minimum are both reached, unless too much failed."""
        now = time.perf_counter()
        return ((ops < MIN_OPS or now < deadline)
                and now < self.started + HARD_STOP_S and self.failed <= MAX_FAILED)


@dataclass
class TrainRep:
    wall: float
    setup: float
    # time after set-up, scaled by the median reference task of the repetition
    train: float
    # median reference task of the repetition
    task: float
    rounds: list[float]
    samples: int
    f1: float
    auc: float


class TrainRunner:
    def __init__(self, session: Session):
        self.s = session
        self.cfg = config(session.workload, session.seed)
        self.reference = None
        self.count = 0

    def rep(self, clock: RoundClock | None = None):
        out = self.s.work / f"train-{self.count}"
        self.count += 1
        start = time.perf_counter()
        if clock:
            clock.reset(start)
        run = X.run_experiment(self.cfg, out)
        wall = time.perf_counter() - start
        last = run.records[-1].metrics
        train, _ = manifest_counts(out)
        rep = TrainRep(wall=wall, setup=0.0, train=0.0, task=0.0, rounds=[], f1=last.macro_f1,
                       auc=last.macro_auc,
                       samples=train * self.cfg["federation.local_epochs"] * len(run.records))
        if clock:
            rep.setup, rep.rounds = clock.setup, list(clock.rounds)
            busy = start + wall - clock.setup_end - sum(clock.samples)
            rep.train = reference.scaled(busy, *clock.samples)
            rep.task = median(clock.samples)
        problems = self.check(rep, digest(out, ARTIFACTS), len(run.records))
        shutil.rmtree(out)
        return rep, problems

    def check(self, rep: TrainRep, artifacts: dict, rounds_done: int) -> list[str]:
        problems = []
        if self.reference is None:
            self.reference = artifacts
        if len(artifacts) != len(ARTIFACTS) or artifacts != self.reference:
            problems.append("artifacts differ from the first repetition")
        if rounds_done != self.cfg["federation.rounds"]:
            problems.append(f"{rounds_done} rounds, expected {self.cfg['federation.rounds']}")
        if not rep.f1 >= F1_FLOOR:
            problems.append(f"final macro-F1 {rep.f1!r} below floor {F1_FLOOR}")
        if rep.auc is None or not rep.auc >= AUC_FLOOR:
            problems.append(f"final macro AUC {rep.auc!r} below floor {AUC_FLOOR}")
        return problems


# ---------------------------------------------------------------------------
# measurement


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_lines(name: str, samples: list[float]) -> list[str]:
    """The median and the highest percentile with ten samples beyond it."""
    n, level = len(samples), tail_level(len(samples))
    return [f"{name}.p50 = {median(samples)!r} s ({n} samples)",
            f"{name}.p{level} = {percentile(samples, level)!r} s ({n} samples)"]


def measure(session: Session) -> tuple[dict, list[str]]:
    """Untraced run: the end-to-end metrics and the text report. Every
    timing is scaled by the reference tasks run next to it."""
    w = session.workload
    imports = ImportClock(session.root / "src", session.seconds / IMPORT_RUNS)
    lines = [f"workload {w.name}, seed {session.seed}"]
    runner = TrainRunner(session)
    reps: list[TrainRep] = []
    deadline = time.perf_counter() + session.seconds
    with RoundClock() as clock:
        while session.go_on(sum(len(r.rounds) for r in reps), deadline):
            rep = session.attempt(runner.rep, clock)
            if rep is not None:
                reps.append(rep)
            imports.between_ops()
    ops = [d for r in reps for d in r.rounds]
    if len(ops) < MIN_OPS:
        return {}, lines
    setup, auc = imports.median() + median([r.setup for r in reps]), reps[-1].auc
    throughput = median([r.samples / r.train for r in reps])
    lines += [f"reference task = {median([r.task for r in reps])!r} s (median of "
              f"{len(reps)} runs; timings below are scaled to {reference.REFERENCE_S} s)",
              f"setup_s = {setup!r} s (median import of {IMPORT_RUNS} fresh "
              f"interpreters + median set-up of {len(reps)} runs)",
              f"train_samples_per_s = {throughput!r} samples/s (median of "
              f"{len(reps)} runs)"]
    metrics = {"setup_s": setup, "round_s.p50": median(ops),
               "final_macro_auc": auc, "peak_rss_mb": peak_rss_mb()}
    lines += timing_lines("round_s", ops)
    lines += [f"round_s.p90 = {percentile(ops, 90)!r} s ({len(ops)} samples)",
              f"final_macro_f1 = {reps[-1].f1!r} ratio",
              f"final_macro_auc = {auc!r} ratio",
              f"peak_rss_mb = {metrics['peak_rss_mb']!r} MiB",
              f"fail_ratio = {session.failed}/{session.attempted} failed/attempted"]
    return metrics, lines


def trace(session: Session) -> tuple[dict, list[str]]:
    """Traced run: half the time untraced, half traced. Gives the per-layer
    metrics, the tracing overhead, and the on/off equivalence checks (the
    traced repetitions must reproduce the untraced artifacts, which the
    runner's checks compare against the first repetition)."""
    w = session.workload
    runner = TrainRunner(session)

    def repeat(tracer: Tracer | None) -> list[float]:
        walls = []
        deadline = time.perf_counter() + session.seconds / 2
        while session.go_on(MIN_OPS if walls else 0, deadline):
            if tracer:
                tracer.run_id = f"{w.name}-seed{session.seed}-rep{len(walls)}"
            rep = session.attempt(runner.rep)
            if rep is not None:
                walls.append(rep.wall)
        return walls

    plain = repeat(None)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        traced = repeat(tracer)
    finally:
        wrong = patches.restore()
    session.attempted += 1
    if wrong:
        session.failed += 1
        print(f"check failed: wrapped functions not restored: {wrong}", file=sys.stderr)
    if not plain or not traced:
        return {}, []
    metrics = layers.summarize(tracer.spans, tracer.counts(), len(traced))
    metrics["src_lines"] = sum(len(p.read_text().splitlines())
                               for p in (session.root / "src" / "fedfocal").glob("*.py"))
    # the fastest repetitions, as the host's speed swings between repetitions
    metrics["trace.overhead"] = min(traced) / min(plain) - 1.0
    spans_file = session.root / ".perfbench" / f"spans-{w.name}-seed{session.seed}.csv.gz"
    write_spans(spans_file, tracer.spans)
    lines = [f"workload {w.name}, seed {session.seed}: {len(plain)} untraced and "
             f"{len(traced)} traced repetitions, {len(tracer.spans)} spans -> {spans_file}"]
    for name, (unit, _, measures, moves, flat) in layers.METRICS.items():
        lines.append(f"{name} = {metrics[name]!r} {unit}  [{measures}; moves {moves}; "
                     f"flat on {flat}]")
    lines.append(f"fail_ratio = {session.failed}/{session.attempted} failed/attempted")
    return metrics, lines
