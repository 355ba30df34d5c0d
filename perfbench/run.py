#!/usr/bin/env python3
"""prunelora benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-module
metrics from a traced run. The last line of standard output is the JSON
result; see perfbench/README.md for how to read it.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported: the paper's single
# CPU core, and both faster and steadier here than a 2-thread pool.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

# One CPU for the whole run (and the import probes it starts): the host's
# speed differs between CPUs from moment to moment, and the probes that
# normalise each sample (calibrate.py) must run where the sample ran.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_s.full_finetune": "s",
    "epoch_s.lora": "s",
    "epoch_s.prune_lora": "s",
    "importance_s": "s",
    "eval_tokens_per_s": "tokens/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# The measured operations. They are interleaved one sample at a time, the
# next sample going to the operation with the fewest samples so far, so
# every operation is sampled across the whole run and as often as the
# others: the longest operations are as noisy per sample as the short ones
# and have the fewest samples to spare.
OPERATIONS = ("pipeline", "epoch.full_finetune", "epoch.lora",
              "epoch.prune_lora", "importance", "eval")

# what a fresh interpreter pays before its first call into the package
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import numpy, prunelora, prunelora.cli; "
                "print(time.perf_counter() - t0)")


class SetupError(RuntimeError):
    pass


class Abort(RuntimeError):
    """A failed operation that makes the rest of the run meaningless."""


def import_package():
    """Import prunelora from this checkout's src/, never an installed copy."""
    init = SRC / "prunelora" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import prunelora

    if Path(prunelora.__file__).resolve() != init.resolve():
        raise SetupError(f"imported prunelora from {prunelora.__file__}, "
                         f"expected {init}")
    return prunelora


# glibc's malloc raises its mmap threshold each time a run frees a large
# block, so whether an array of a few MB gets fresh, page-faulting memory or
# reused heap memory changes partway through a run, and large-array
# operations (checkpoint save/load, slicing, merging) switch speed with it.
# Fixing the threshold at glibc's own upper limit (32 MB) and the trim
# threshold at twice that, as that raising would end up, makes every run
# allocate the same way from its start.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20


def fix_malloc_thresholds() -> bool:
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False  # not glibc
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))


# sibling modules; numpy is imported here, after the thread pinning above
import calibrate  # noqa: E402
import checks  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    N_HIGH,
    RANK_HIGH,
    RANK_LOW,
    REGIMES,
    WORKLOADS,
    model_config,
    task_spec,
    to_tsv,
    train_config,
    write_cli_config,
)


class Ops:
    """Attempted and failed operations: stage calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        """Run one stage call; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - t0

    def check(self, name: str, outcome) -> bool:
        self.attempted += 1
        ok, detail = outcome[0], outcome[1]
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def require(self, name: str, outcome) -> None:
        if not self.check(name, outcome):
            raise Abort(self.failures[-1])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Set-up, then samples of every operation until the budget is spent.

    The operations are one CLI pipeline pass, one training epoch per
    regime, one importance estimate and one evaluation. Every sample works
    on a fresh copy of the same prepared weights, so each sample does the
    same work, and where its large arrays land in memory (which changes
    their speed) varies from sample to sample rather than once per run.

    With a tracer, odd set-up repeats and odd samples of each operation run
    traced and the others untraced, so both halves see the same machine
    conditions and their difference is the tracing overhead.
    """

    def __init__(self, w, seed, budget, workdir, ops, tracer=None):
        self.w, self.seed, self.budget = w, seed, budget
        self.dir, self.ops, self.tracer = workdir, ops, tracer
        # samples[traced][metric]
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.raw = {False: defaultdict(list), True: defaultdict(list)}
        self.speed = calibrate.Speed(workdir)
        self.traced = False
        self.info: dict = {}
        # samples taken of each operation, and how many of them traced
        self.counts = dict.fromkeys(OPERATIONS, 0)
        self.traced_counts = dict.fromkeys(OPERATIONS, 0)
        self.peak_rss_mb = None

    @contextlib.contextmanager
    def tracing(self, on: bool):
        on = on and self.tracer is not None
        if on:
            self.tracer.install()
        self.traced = on
        try:
            yield
        finally:
            self.traced = False
            if on:
                self.tracer.uninstall()

    def _run_label(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.set_run(label)

    def _sample(self, metric: str, seconds: float) -> None:
        """Record a sample that ended just now, normalised by the probes
        around it (see calibrate.py); the raw seconds are kept too."""
        self._record(metric, seconds, seconds * self.speed.factor())

    def _record(self, metric: str, raw: float, normalised: float) -> None:
        self.samples[self.traced][metric].append(normalised)
        self.raw[self.traced][metric].append(raw)

    # -- set-up -----------------------------------------------------------

    def import_seconds(self) -> None:
        """Time the package import in fresh interpreters (one process at a
        time, each waited for), so set-up can be repeated like the rest."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(self.w.setup_repeats):
            self.speed.begin()
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            self._sample("import_s", float(proc.stdout))

    def setup(self) -> None:
        from prunelora import data, model

        w, ops = self.w, self.ops
        cfg = model_config(w)
        train_tsv, eval_tsv = self.dir / "train.tsv", self.dir / "eval.tsv"
        for i in range(w.setup_repeats):
            self.base = None  # free the previous copy before building anew
            with self.tracing(i % 2 == 1):
                self._run_label("setup")
                self.speed.begin()
                t0 = time.perf_counter()
                (train_all, eval_data), _ = ops.call(
                    data.generate, task_spec(w, self.seed))
                train_tsv.write_text(to_tsv(train_all), encoding="utf-8")
                eval_tsv.write_text(to_tsv(eval_data), encoding="utf-8")
                (tsv_train, vocab), _ = ops.call(data.ingest_tsv, train_tsv)
                (tsv_eval, _), _ = ops.call(data.ingest_tsv, eval_tsv,
                                            vocab=vocab)
                self.base, _ = ops.call(model.init_weights, cfg,
                                        seed=self.seed)
                self._sample("setup_s", time.perf_counter() - t0)
        ops.require("tsv round trip (train)",
                    checks.tsv_round_trip(train_all, tsv_train))
        ops.require("tsv round trip (eval)",
                    checks.tsv_round_trip(eval_data, tsv_eval))
        self.train = train_all.slice(0, w.train_size)
        self.sample = train_all.slice(0, w.sample_size)
        self.eval_data = eval_data
        self.eval_one = eval_data.slice(0, 1)
        self.batch0 = train_all.slice(0, w.batch_size)
        self.tsv_batch0 = tsv_eval.slice(0, min(w.batch_size, tsv_eval.size))
        self.cli_config = write_cli_config(w, self.seed, self.dir,
                                           train_tsv, eval_tsv)

    def prepare(self) -> None:
        """Importance -> heads -> slice -> rank plan, as run_regime does."""
        from prunelora import importance, lora, pruning

        w, ops = self.w, self.ops
        self._run_label("prepare")
        self.imap0, _ = ops.call(importance.estimate_importance, self.base,
                                 self.sample, batch_size=w.batch_size)
        self.plan, _ = ops.call(pruning.select_heads, self.imap0, w.keep_count)
        self.sliced, _ = ops.call(pruning.apply_slice_prune, self.base,
                                  self.plan)
        self.rank_plan, _ = ops.call(
            lora.make_rank_plan, importance.block_importance(self.imap0),
            N_HIGH, RANK_HIGH, RANK_LOW)

    # -- operations -------------------------------------------------------

    def epoch(self, regime: str) -> None:
        from prunelora import lora, training

        w, ops = self.w, self.ops
        self._run_label(f"epoch.{regime}")
        weights = (self.sliced if regime == "prune_lora" else self.base).clone()
        adapters = None
        if regime != "full_finetune":
            adapters = lora.init_adapters(weights, self.rank_plan,
                                          seed=self.seed)
        training.freeze_policy(weights, adapters, regime)
        self.speed.begin()
        report, seconds = ops.call(
            training.train, weights, train_config(w, regime, 1, self.seed),
            self.train, self.eval_one, adapters, log=None)
        ops.require(f"{regime} losses finite",
                    checks.losses_finite(report.train_loss))
        self._sample(f"epoch_s.{regime}", seconds)
        self.info[f"trainable_params.{regime}"] = report.trainable_params

    def importance(self) -> None:
        from prunelora import importance

        self._run_label("importance")
        weights = self.base.clone()  # fresh memory, as the epochs get
        self.speed.begin()
        imap, seconds = self.ops.call(importance.estimate_importance,
                                      weights, self.sample,
                                      batch_size=self.w.batch_size)
        self.ops.require("importance in [0, 1], attains 0 and 1",
                         checks.importance_in_unit_range(imap.final))
        self._sample("importance_s", seconds)

    def evaluate(self) -> None:
        from prunelora import training

        self._run_label("eval")
        weights = self.base.clone()
        self.speed.begin()
        (acc, loss), seconds = self.ops.call(
            training.evaluate, weights, self.eval_data, None,
            self.w.batch_size)
        self.ops.require("eval accuracy and loss",
                         (0.0 <= acc <= 1.0 and math.isfinite(loss),
                          f"accuracy {acc}, loss {loss}"))
        self._sample("eval_s", seconds)

    def _cli(self, name: str, argv) -> tuple[float, float]:
        """One CLI command between two probes; returns its raw and its
        normalised seconds."""
        from prunelora import cli

        out, err = io.StringIO(), io.StringIO()
        self.speed.begin()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, seconds = self.ops.call(cli.main, [str(a) for a in argv])
        factor = self.speed.factor()
        self.ops.require(f"cli {name} exit code",
                         (rc == 0, f"exit {rc}: {err.getvalue()[-400:]}"))
        return seconds, seconds * factor

    def pipeline(self, k: int, warm_up: bool = False) -> None:
        """importance -> prune -> train (prune_lora) -> merge -> eval ->
        report, through `cli.main` in this process. Each command is
        normalised by the probes around it, so a pass of several seconds
        follows the host's speed changes within it. The warm-up pass is
        not recorded (a first pass runs on cold memory and files) and
        checks the CLI's merged checkpoint."""
        p, c = self.dir / f"pass{k}", self.cli_config
        merged = p / "merge" / "merged.ckpt"
        commands = [
            ["importance", "--config", c, "--out", p / "imp"],
            ["prune", "--config", c, "--checkpoint", p / "imp" / "model.ckpt",
             "--importance", p / "imp" / "importance.csv",
             "--out", p / "prune"],
            ["train", "--config", c, "--out", p / "train"],
            ["merge", "--base", p / "train" / "model.ckpt",
             "--adapters", p / "train" / "adapters.ckpt", "--out", p / "merge"],
            ["eval", "--config", c, "--checkpoint", merged, "--out", p / "eval"],
            ["report", "--config", c, "--out", p / "report",
             "--checkpoint", merged],
        ]
        self._run_label("pipeline")
        times = [self._cli(argv[0], argv) for argv in commands]
        if not warm_up:
            for argv, (raw, normalised) in zip(commands, times):
                self._record(f"cli.{argv[0]}_s", raw, normalised)
            self._record("pipeline_s", sum(t[0] for t in times),
                         sum(t[1] for t in times))
        evaluation = json.loads((p / "eval" / "eval.json").read_text())
        self.ops.require("cli eval accuracy in [0, 1]",
                         (0.0 <= evaluation["accuracy"] <= 1.0,
                          str(evaluation)))
        if warm_up:
            self._check_cli_merge(p)
        shutil.rmtree(p)

    def _check_cli_merge(self, p: Path) -> None:
        from prunelora import checkpoint, lora

        self._run_label("check")
        base, _ = checkpoint.load_model(p / "train" / "model.ckpt")
        adapters = lora.load_adapters(p / "train" / "adapters.ckpt",
                                      weights=base)
        merged, _ = checkpoint.load_model(p / "merge" / "merged.ckpt")
        batch = self.tsv_batch0
        self.ops.require("cli merged checkpoint matches adapter forward",
                         checks.merge_exact(
                             checks.logits(merged, batch),
                             checks.logits(base, batch, adapters=adapters)))

    # -- checks on the prepared state --------------------------------------

    def gate(self) -> None:
        from prunelora import lora

        ops, batch = self.ops, self.batch0
        self._run_label("check")
        ok, detail, macs = checks.check_macs(self.base, batch, None)
        ops.check("MACs reconcile (unpruned)", (ok, detail))
        ok, detail, macs_sliced = checks.check_macs(
            self.sliced, batch, self.plan.kept_per_block())
        ops.check("MACs reconcile (sliced)", (ok, detail))
        ops.check("masked and sliced logits agree",
                  checks.check_mask_slice(self.base, self.plan, batch))
        fresh_base = lora.init_adapters(self.base, self.rank_plan, seed=self.seed)
        fresh_sliced = lora.init_adapters(self.sliced, self.rank_plan,
                                          seed=self.seed)
        ops.check("zero-B adapters leave logits unchanged (unpruned)",
                  checks.check_zero_b(self.base, fresh_base, batch))
        ops.check("zero-B adapters leave logits unchanged (sliced)",
                  checks.check_zero_b(self.sliced, fresh_sliced, batch))
        ops.check("count_params equals tensor walk (unpruned)",
                  checks.check_param_count(self.base))
        ops.check("count_params equals tensor walk (sliced)",
                  checks.check_param_count(self.sliced))
        ops.check("count_params equals tensor walk (sliced + adapters)",
                  checks.check_param_count(self.sliced, fresh_sliced))
        ops.check("importance in [0, 1], attains 0 and 1",
                  checks.importance_in_unit_range(self.imap0.final))
        self.info.update({
            "forward_macs": macs,
            "forward_macs.sliced": macs_sliced,
            "params_removed": self.base.num_params() - self.sliced.num_params(),
            "adapter_params": fresh_sliced.num_params(),
        })

    def operation(self, name: str) -> None:
        if name == "pipeline":
            self.pipeline(self.counts[name])
        elif name.startswith("epoch."):
            self.epoch(name.split(".", 1)[1])
        elif name == "importance":
            self.importance()
        else:
            self.evaluate()

    def run(self) -> None:
        """Set up, prepare, then a warm-up pipeline pass and interleaved
        samples until the budget is spent (see OPERATIONS). Each operation
        gets one sample (two when traced) even if the budget is shorter.
        The checks on the prepared state run once, after the warm-up and
        outside the budget. Peak memory is read when the budget is spent,
        before the reference runs."""
        self.import_seconds()
        self.setup()
        self.prepare()
        min_count = 1 if self.tracer is None else 2
        durations = defaultdict(list)
        deadline = time.perf_counter() + self.budget
        self.pipeline("warm-up", warm_up=True)
        t1 = time.perf_counter()
        self.gate()
        deadline += time.perf_counter() - t1
        while True:
            short = [n for n in OPERATIONS if self.counts[n] < min_count]
            left = deadline - time.perf_counter()
            # start no sample the budget cannot hold
            fits = [n for n in OPERATIONS
                    if n not in short and statistics.median(durations[n]) < left]
            if short:
                name = short[0]
            elif fits:
                name = min(fits, key=self.counts.get)
            else:
                break
            traced = self.tracer is not None and self.counts[name] % 2 == 1
            gc.collect()  # outside the timed call, so no sample pays for it
            t0 = time.perf_counter()
            with self.tracing(traced):
                self.operation(name)
            durations[name].append(time.perf_counter() - t0)
            self.counts[name] += 1
            self.traced_counts[name] += traced
        self.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            with self.tracing(True):
                self._run_label("accounting")
                count_params_reference(self.ops)

    def medians(self, traced: bool = False) -> dict:
        return {k: statistics.median(v)
                for k, v in self.samples[traced].items()}


def reference_gate(w, ops) -> None:
    """Final train loss of each regime against the recorded reference, and
    an exact merge of the trained prune_lora adapters."""
    from reference import reference_run

    ref = checks.load_reference()
    for regime in REGIMES:
        (report, art, train), _ = ops.call(reference_run, w, regime)
        ops.check(f"reference run {regime}: losses finite",
                  checks.losses_finite(report.train_loss))
        ops.check(f"reference run {regime}: final loss",
                  checks.loss_matches_reference(
                      report.train_loss[-1],
                      ref["final_train_loss"][w.name][regime], ref["rtol"]))
        if regime == "prune_lora":
            ops.check("merged model matches adapter forward",
                      checks.check_merge(art.weights, art.adapters, train))


def end_to_end(phase: Phase) -> dict:
    m = phase.medians()
    out = {"setup_s": m["import_s"] + m["setup_s"]}
    for regime in REGIMES:
        out[f"epoch_s.{regime}"] = m[f"epoch_s.{regime}"]
    out["importance_s"] = m["importance_s"]
    out["eval_tokens_per_s"] = phase.eval_data.token_count / m["eval_s"]
    out["pipeline_s"] = m["pipeline_s"]
    out["peak_rss_mb"] = phase.peak_rss_mb
    return out


def trace_overhead(phase: Phase) -> dict:
    """Traced minus untraced median, in seconds, for every timed metric
    (evaluation as seconds per call; peak memory cannot be split)."""
    a, b = phase.medians(False), phase.medians(True)
    names = ["setup_s"] + [f"epoch_s.{r}" for r in REGIMES] + \
        ["importance_s", "pipeline_s"]
    out = {f"trace_overhead.{n}": (b[n] - a[n], "s") for n in names}
    out["trace_overhead.eval_tokens_per_s"] = (b["eval_s"] - a["eval_s"], "s")
    return out


def count_params_reference(ops, repeats: int = 50) -> None:
    """count_params at the bert-base geometry (the traced phase times it)."""
    from prunelora import ModelConfig, accounting

    cfg = ModelConfig.reference()
    for _ in range(repeats):
        ops.call(accounting.count_params, cfg)


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "prunelora").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_version() -> str | None:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, ValueError):
        return None


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": PINNED_THREADS,
        "cpus": sorted(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, ops, workdir, samples: dict) -> dict:
    """Run the workload; returns {metric: (value, unit)} and fills
    `samples` with the untraced per-operation samples."""
    w = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    phase = Phase(w, args.seed, args.seconds, workdir, ops, tracer)
    phase.run()
    if tracer is None:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(phase).items()}
    else:
        metrics = layer_metrics(tracer.spans, phase.traced_counts, phase.info)
        metrics.update(trace_overhead(phase))
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for name, values in phase.raw[False].items():
        print(f"raw {name} {statistics.median(values)!r} s")
    samples.update(phase.samples[False], counts=phase.counts,
                   raw=phase.raw[False], probe_s=phase.speed.probes)
    print("samples " + " ".join(f"{n}={c}" for n, c in phase.counts.items()),
          flush=True)
    del phase  # free the workload's models before the reference runs
    reference_gate(w, ops)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    malloc_fixed = fix_malloc_thresholds()
    try:
        import_package()
    except (SetupError, ImportError) as e:
        print(f"perfbench: cannot import the package: {e}", file=sys.stderr)
        return 2

    env = environment(args)
    env["malloc_thresholds_fixed"] = malloc_fixed
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    ops = Ops()
    metrics: dict = {}
    samples: dict = {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        metrics = measure(args, ops, workdir, samples)
    except Abort:
        pass  # already counted as a failed operation
    except Exception:
        ops.failures.append("exception: " + traceback.format_exc(limit=6))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(ops.failures)
    for failure in ops.failures:
        print(f"FAILED {failure}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"ops attempted={ops.attempted} failed={failed} "
          f"error_rate={failed / max(ops.attempted, 1)!r}")
    result = {
        "correct": failed == 0,
        "attempted": max(ops.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, "failures": ops.failures,
                              "samples": samples, **result},
                             indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
