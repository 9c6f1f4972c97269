"""groundnav benchmark: training and greedy-eval workloads, end to end and
layer by layer.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Runs one workload (or every workload, one process each, with ``all``) for
``--seconds`` of measurement, checks the program's outputs, and prints each
metric on its own line followed by one JSON result line. ``--trace 0``
reports the end-to-end metrics, measured untraced; ``--trace 1`` re-runs the
same work under the span wrappers in ``tracing.py`` and reports per-layer
metrics. See README.md in this directory for what each metric means.
"""

import time

_T0 = time.perf_counter()  # set-up time is counted from here

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import tracing

# One BLAS thread: a run uses at most the two cores for its own workers, and
# the result does not depend on the caller's environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CORPUS_SEED = 7
EVAL_PARAMS_SEED = 0  # eval_desk plays one fixed untrained policy
SETUP_RUNS = 11  # this process plus ten fresh ones; setup_s is their median
CHECK_JOB_FRAMES = 60
COUNT_FRAMES = 400  # tape nodes are counted over the first units covering this
# A step size a hundred times below TrainerConfig's default. The cost of a
# frame does not depend on it, and it keeps every job's policy near its
# initial one, so no job reaches the log(0) of a saturated softmax (ROADMAP
# 4(c)). At 1e-3 about half of the train_paper jobs and one train_desk_2w
# job in a few hundred raise FloatingPointError. A job that raises still
# counts as failed.
LEARNING_RATE = 1e-5
# seed-derivation tags, one per independent input stream
JOB, WARM_UP, EPISODES, CHECK = 1, 2, 3, 4

DESK = dict(d=16, l=64, embed_dim=16, hidden=64, render_h=48, render_w=64,
            conv_specs=((8, 4, 4), (12, 3, 2), (16, 2, 1)))
PAPER = dict(d=64, l=256, embed_dim=32, hidden=256, render_h=156, render_w=300,
             conv_specs=((32, 8, 4), (64, 4, 2), (64, 4, 2)))
ATTENTION = dict(attention_source="lstm_cellstate", application="conv1d",
                 fusion="attention", action_count=3,
                 forget_gate_sees_input=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    geometry: dict
    difficulty: str
    mode: str = ""  # "" for eval; "sync" or "async" for training
    workers: int = 1
    job_frames: int = 0  # frame budget of one a3c.train() call

    @property
    def trains(self) -> bool:
        return bool(self.mode)


WORKLOADS = {w.name: w for w in (
    Workload("train_desk",
             "desk geometry, 1 sync worker: interpreter- and tape-bound "
             "training, the single-worker baseline",
             DESK, "easy", "sync", 1, 400),
    Workload("train_desk_2w",
             "desk geometry, 2 async workers: the only workload that "
             "exercises the worker threads and the shared optimizer lock",
             DESK, "easy", "async", 2, 400),
    Workload("train_paper",
             "paper geometry, 1 sync worker: conv2d forward and its backward "
             "fold dominate, tape overhead does not",
             PAPER, "easy", "sync", 1, 100),
    Workload("eval_desk",
             "greedy play_episode on hard difficulty: forward only, with the "
             "largest share of gridnav reset and render",
             DESK, "hard"),
)}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

# Op kinds that run on every workload; "log" and "sum_all" run only in
# training (log-probability and entropy).
COMMON_OPS = ("conv2d", "bias_add_channels", "relu", "conv1d_channels",
              "reshape", "concat", "matvec", "add", "sigmoid", "tanh", "mul",
              "softmax", "pick", "row", "shift", "scale")
TRAIN_OPS = ("log", "sum_all")


def layer_unit(name: str) -> str:
    for suffix, unit in ((".us_p50", "us"), (".ms_p50", "ms"),
                         ("_us_per_frame", "us/frame"),
                         ("_per_frame", "count/frame"),
                         (".ms_per_update", "ms/update"),
                         ("_share", "share"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# Every layer metric, in the order of the result line. A layer that does not
# run on a workload reads 0 there (backward and the update path on eval_desk).
MEASURED_OPS = COMMON_OPS + TRAIN_OPS
PER_LAYER = (
    *(f"gridnav.{n}.{m}" for n in tracing.GRIDNAV_SPANS
      for m in ("us_p50", "calls")),
    *(f"nets.{n}.{m}" for n in tracing.NETS_SPANS for m in ("ms_p50", "calls")),
    "autodiff.tape_nodes_per_frame",
    *(f"autodiff.op.{k}.{m}" for k in MEASURED_OPS
      for m in ("fwd_us_per_frame", "bwd_us_per_frame", "calls_per_frame")),
    "autodiff.backward.ms_p50",
    "autodiff.backward.calls",
    "a3c.worker_update.ms_p50",
    "a3c.compute_losses.ms_p50",
    "a3c.updates",
    "a3c.lock_wait.ms_per_update",
    "a3c.skipped_updates",
    "a3c.unattributed_share",
    "trace.overhead_ratio",
)


# --------------------------------------------------------------------------
# Program, set-up and inputs
# --------------------------------------------------------------------------

@dataclass
class Program:
    np: object
    a3c: object
    autodiff: object
    gridnav: object
    nets: object


def load_program() -> Program:
    """Import groundnav from this checkout's ``src``; exit 2 without it."""
    if not (SRC / "groundnav" / "__init__.py").is_file():
        print(f"bench: no groundnav sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from groundnav import a3c, autodiff, gridnav, nets
    return Program(np, a3c, autodiff, gridnav, nets)


def derive(p: Program, seed: int, *tags: int) -> int:
    return int(p.np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


@dataclass
class Setup:
    corpus: object
    mconf: object
    tconf: object
    env: object
    params: object


def set_up(p: Program, wl: Workload, seed: int) -> Setup:
    """Corpus, vocabulary, configs and parameters, then one warm-up step."""
    corpus = p.gridnav.build_corpus(CORPUS_SEED)
    vocab = p.nets.build_vocab(corpus.train + corpus.test)
    mconf = p.nets.ModelConfig(vocab=vocab, **wl.geometry, **ATTENTION)
    tconf = None
    if wl.trains:
        tconf = p.a3c.TrainerConfig(
            gamma=0.99, n_steps=20, entropy_coef=0.01, value_coef=0.5,
            grad_clip_norm=40.0, learning_rate=LEARNING_RATE,
            workers=wl.workers, mode=wl.mode, rmsprop_alpha=0.99,
            rmsprop_eps=1e-8, max_frames=wl.job_frames, max_episodes=0,
            log_every_episodes=100, checkpoint_every_episodes=0,
            early_stop_accuracy=0.0)
    env = p.a3c.EnvSettings(difficulty=wl.difficulty, corpus_seed=CORPUS_SEED)
    params = p.nets.init_params(mconf, EVAL_PARAMS_SEED)

    ins = corpus.train[0]
    _, obs = p.gridnav.reset(derive(p, seed, WARM_UP), wl.difficulty, ins,
                             render_hw=(mconf.render_h, mconf.render_w))
    g = p.autodiff.Graph()
    x_l = p.nets.encode_instruction(g, params, mconf, ins.tokens)
    out = p.nets.model_step(g, params, mconf, x_l, obs.image,
                            p.nets.initial_attention_state(mconf))
    if wl.trains:
        g.backward(out.value)
        params.zero_grads()
    return Setup(corpus, mconf, tconf, env, params)


def setup_probe_seconds(wl: Workload, seed: int) -> float:
    """Set-up time of a fresh interpreter running this file."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class SetupProbes:
    """Set-up times: this process's own, then fresh interpreters started at
    even steps through the measurement. The machine's speed drifts over
    seconds, so set-ups spread over the run give a steadier median than
    set-ups made back to back."""

    def __init__(self, wl: Workload, seed: int, own_seconds: float):
        self.wl, self.seed = wl, seed
        self.samples = [own_seconds]

    def __call__(self, progress: float) -> None:
        """Make every probe due by ``progress``, the share of the run done."""
        probes = SETUP_RUNS - 1
        while (len(self.samples) < SETUP_RUNS
               and progress * probes >= len(self.samples) - 1):
            self.samples.append(setup_probe_seconds(self.wl, self.seed))


# --------------------------------------------------------------------------
# Units of work: one training job or one greedy episode
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    wall: float
    frames: int = 0
    error: str = ""
    skipped: int = 0  # non-finite updates worker_update dropped
    latencies_ms: list = field(default_factory=list)  # step intervals
    problems: list = field(default_factory=list)  # failed output checks


def check_trained(p: Program, s: Setup, params, job_seed: int) -> list:
    """Trained params are finite and differ from their initial values."""
    problems = []
    if not all(p.np.isfinite(t.data).all() for t in params.tensors()):
        problems.append(f"job {job_seed}: non-finite trained params")
    init = p.nets.init_params(s.mconf, job_seed)
    if all(p.np.array_equal(t.data, init[n].data) for n, t in params.items()):
        problems.append(f"job {job_seed}: params never changed")
    return problems


class StepClock:
    """Time-stamps every environment step, per thread, by wrapping
    ``gridnav.advance``: the one hook in an untraced run, one clock read per
    frame. A latency sample is the time from one step of a thread to its
    next (from the unit's start for its first step), so it covers the
    agent's forward pass and, once per rollout, the update."""

    def __init__(self, p: Program):
        self.p = p
        self.stamps: dict = {}

    def __enter__(self):
        advance = self._advance = self.p.gridnav.advance
        stamps = self.stamps

        def stamped(*args, **kwargs):
            out = advance(*args, **kwargs)
            stamps.setdefault(threading.get_ident(), []).append(
                time.perf_counter())
            return out

        self.p.gridnav.advance = stamped
        return self

    def __exit__(self, *exc):
        self.p.gridnav.advance = self._advance
        return False

    def take_ms(self, t0: float) -> list:
        """Step intervals since ``t0`` in ms; forgets the stamps."""
        out = []
        for stamps in self.stamps.values():
            prev = t0
            for t in stamps:
                out.append((t - prev) * 1e3)
                prev = t
        self.stamps.clear()
        return out


def run_job(p: Program, wl: Workload, s: Setup, job_seed: int,
            clock) -> Outcome:
    """One a3c.train() call. It fails if train() raises or a worker thread
    dies."""
    gc.collect()  # start from a clean heap, as a fresh process would
    thread_errors = []
    hook = threading.excepthook
    threading.excepthook = thread_errors.append
    result, error = None, ""
    t0 = time.perf_counter()
    try:
        result = p.a3c.train(s.tconf, s.mconf, s.env, job_seed)
    except Exception as exc:  # counted against error_rate, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        threading.excepthook = hook
    wall = time.perf_counter() - t0
    latencies = clock.take_ms(t0) if clock else []
    if thread_errors and not error:
        a = thread_errors[0]
        error = f"{a.exc_type.__name__} in worker thread: {a.exc_value}"
    if error:
        return Outcome(wall=wall, error=error)

    out = Outcome(wall=wall, frames=result.frames,
                  skipped=result.skipped_updates, latencies_ms=latencies)
    if result.frames < wl.job_frames:
        out.problems.append(f"job {job_seed}: {result.frames} frames "
                            f"< budget {wl.job_frames}")
    out.problems += check_trained(p, s, result.params, job_seed)
    return out


VALID_REWARDS = (1.0, -0.2, 0.0)


def run_episode(p: Program, wl: Workload, s: Setup, ins, env_seed: int,
                clock) -> Outcome:
    """One greedy play_episode."""
    t0 = time.perf_counter()
    try:
        r = p.a3c.play_episode(s.params, s.mconf, ins, env_seed,
                               wl.difficulty, greedy=True)
    except Exception as exc:  # counted against error_rate, not fatal
        error = f"{type(exc).__name__}: {exc}"
        r = None
    wall = time.perf_counter() - t0
    latencies = clock.take_ms(t0) if clock else []
    if r is None:
        return Outcome(wall=wall, error=error)
    out = Outcome(wall=wall, frames=r.steps, latencies_ms=latencies)
    max_steps = p.gridnav.MAX_STEPS
    if r.reward not in VALID_REWARDS:
        out.problems.append(f"episode {env_seed}: reward {r.reward}")
    if not 1 <= r.steps <= max_steps or len(r.trace) != r.steps:
        out.problems.append(f"episode {env_seed}: {r.steps} steps, "
                            f"{len(r.trace)} trace records")
    if r.success != (r.reward == p.gridnav.REWARD_CORRECT):
        out.problems.append(f"episode {env_seed}: success flag disagrees")
    return out


class Units:
    """The i-th unit of a workload is the same work on every call, so the
    traced run can repeat exactly what the untraced reference ran."""

    def __init__(self, p: Program, wl: Workload, s: Setup, seed: int):
        self.p, self.wl, self.s, self.seed = p, wl, s, seed
        self._episodes = []
        self._rng = p.np.random.default_rng(
            p.np.random.SeedSequence([seed, EPISODES]))

    def run(self, i: int, clock=None) -> Outcome:
        p, wl, s = self.p, self.wl, self.s
        if wl.trains:
            return run_job(p, wl, s, derive(p, self.seed, JOB, i), clock)
        split = s.corpus.train  # the multitask split
        while len(self._episodes) <= i:
            ins = split[int(self._rng.integers(len(split)))]
            self._episodes.append((ins, int(self._rng.integers(2 ** 31))))
        return run_episode(p, wl, s, *self._episodes[i], clock)


def run_for(units: Units, seconds: float, clock=None, between=None) -> list:
    """Run units 0, 1, ... until they have taken ``seconds`` (at least one).
    ``between(progress)``, if given, runs before each unit with the share of
    ``seconds`` used so far; its own time is not counted."""
    outcomes, busy = [], 0.0
    while True:
        if between:
            between(busy / seconds)
        t0 = time.perf_counter()
        outcomes.append(units.run(len(outcomes), clock))
        busy += time.perf_counter() - t0
        if busy >= seconds:
            return outcomes


# --------------------------------------------------------------------------
# Correctness checks beyond each unit's own
# --------------------------------------------------------------------------

def check_sync_reproducible(p: Program, seed: int) -> list:
    """A short seeded train_desk job run twice gives bit-identical,
    finite params that differ from their initial values."""
    wl = dataclasses.replace(WORKLOADS["train_desk"],
                             job_frames=CHECK_JOB_FRAMES)
    s = set_up(p, wl, seed)
    job_seed = derive(p, seed, CHECK)
    try:
        a, b = (p.a3c.train(s.tconf, s.mconf, s.env, job_seed).params
                for _ in range(2))
    except Exception as exc:
        return [f"sync job {job_seed} raised {type(exc).__name__}: {exc}"]
    problems = check_trained(p, s, a, job_seed)
    if any(a[n].data.tobytes() != b[n].data.tobytes() for n in a.names()):
        problems.append(f"sync job {job_seed} is not bit-for-bit reproducible")
    return problems


def check_observations(p: Program, wl: Workload, s: Setup, seed: int) -> list:
    """Observations along random walks have the configured shape, are
    finite and lie in [0, 1]."""
    np, gridnav = p.np, p.gridnav
    rng = np.random.default_rng(np.random.SeedSequence([seed, CHECK]))
    shape = (3, s.mconf.render_h, s.mconf.render_w)
    problems = []
    for k in range(8):
        ins = s.corpus.train[k]
        env_seed = int(rng.integers(2 ** 31))
        state, obs = gridnav.reset(env_seed, wl.difficulty, ins,
                                   render_hw=shape[1:])
        while True:
            img = obs.image.data
            if (img.shape != shape or not np.isfinite(img).all()
                    or img.min() < 0.0 or img.max() > 1.0):
                problems.append(f"bad observation in episode {env_seed}")
                break
            action = gridnav.ACTIONS[int(rng.integers(len(gridnav.ACTIONS)))]
            state, _, done = gridnav.advance(state, action)
            if done:
                break
            obs = gridnav.render(state)
    return problems


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def percentile(p: Program, values, q: float) -> float:
    return float(p.np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(p: Program, outcomes: list, setup_samples: list,
               rss_mb: float) -> dict:
    ok = [o for o in outcomes if not o.error]
    wall = sum(o.wall for o in ok)
    lat = [x for o in ok for x in o.latencies_ms]
    return {
        "setup_s": float(p.np.median(setup_samples)),
        "frames_per_s": sum(o.frames for o in ok) / wall if wall else 0.0,
        "frame_ms_p50": percentile(p, lat, 50),
        "frame_ms_p99": percentile(p, lat, 99),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(p: Program, stats: dict, counted: tuple, lock_wait_s: float,
                  skipped: int, overhead: float) -> dict:
    """Every per-layer metric; spans that never ran read 0."""
    def stat(name):
        return stats.get(name) or tracing.SpanStat(True)

    def p50(name, scale):
        return percentile(p, stat(name).durations, 50) * scale

    frames = max(1, stat("gridnav.advance").calls)
    m = {}
    for n in tracing.GRIDNAV_SPANS:
        m[f"gridnav.{n}.us_p50"] = p50(f"gridnav.{n}", 1e6)
        m[f"gridnav.{n}.calls"] = stat(f"gridnav.{n}").calls
    for n in tracing.NETS_SPANS:
        m[f"nets.{n}.ms_p50"] = p50(f"nets.{n}", 1e3)
        m[f"nets.{n}.calls"] = stat(f"nets.{n}").calls
    nodes, node_frames = counted
    m["autodiff.tape_nodes_per_frame"] = nodes / max(1, node_frames)
    # kinds outside MEASURED_OPS (matmul, mul_channels) are printed if they
    # ever run, but are not in the result line
    for kind in p.autodiff.OP_KINDS:
        fwd, bwd = (stat(f"autodiff.op.{kind}.{d}") for d in ("fwd", "bwd"))
        if fwd.calls == 0 and kind not in MEASURED_OPS:
            continue
        m[f"autodiff.op.{kind}.fwd_us_per_frame"] = fwd.self_time * 1e6 / frames
        m[f"autodiff.op.{kind}.bwd_us_per_frame"] = bwd.self_time * 1e6 / frames
        m[f"autodiff.op.{kind}.calls_per_frame"] = fwd.calls / frames
    m["autodiff.backward.ms_p50"] = p50("autodiff.backward", 1e3)
    m["autodiff.backward.calls"] = stat("autodiff.backward").calls
    updates = stat("a3c.worker_update").calls
    m["a3c.worker_update.ms_p50"] = p50("a3c.worker_update", 1e3)
    m["a3c.compute_losses.ms_p50"] = p50("a3c.compute_losses", 1e3)
    m["a3c.updates"] = updates
    m["a3c.lock_wait.ms_per_update"] = lock_wait_s * 1e3 / max(1, updates)
    m["a3c.skipped_updates"] = skipped
    root_total, root_self = tracing.root_time(stats)
    m["a3c.unattributed_share"] = root_self / root_total if root_total else 0.0
    m["trace.overhead_ratio"] = overhead
    return m


def measure_traced(p: Program, units: Units, seconds: float):
    """Untraced reference for half the time, then the same units traced.
    Returns the traced outcomes and every layer metric."""
    reference = run_for(units, seconds / 2)
    recorder = tracing.Recorder()
    traced, counted = [], None
    with tracing.instrument(recorder):
        for i in range(len(reference)):
            traced.append(units.run(i))
            calls = recorder.calls()
            frames = calls.get("gridnav.advance", 0)
            if counted is None and (frames >= COUNT_FRAMES
                                    or i == len(reference) - 1):
                counted = (sum(n for name, n in calls.items()
                               if name.startswith(tracing.OP_PREFIX)
                               and name.endswith(".fwd")), frames)
    # unit 0 of the reference also paid one-off costs, such as the first
    # touch of a paper-scale tape's memory, so it is left out when it can be
    skip = 1 if len(reference) > 1 else 0
    overhead = (sum(o.wall for o in traced[skip:])
                / max(1e-12, sum(o.wall for o in reference[skip:])))
    metrics = layer_metrics(p, recorder.stats(), counted, recorder.lock_wait_s,
                            sum(o.skipped for o in traced), overhead)
    return traced, metrics


# --------------------------------------------------------------------------
# Run context
# --------------------------------------------------------------------------

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_ms(p: Program) -> dict:
    """Fixed work timed the same way on every run, to show how fast the
    machine was. Recorded only; no metric is scaled by it."""
    a = p.np.random.default_rng(0).standard_normal((128, 128))
    py, mm = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        t1 = time.perf_counter()
        for _ in range(20):
            a @ a
        t2 = time.perf_counter()
        py.append((t1 - t0) * 1e3)
        mm.append((t2 - t1) * 1e3)
    return {"python_loop_ms": float(p.np.median(py)),
            "matmul_ms": float(p.np.median(mm))}


def run_context(p: Program, args) -> dict:
    try:
        blas = p.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.25
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": p.np.__version__,
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    p = load_program()
    wl = WORKLOADS[args.workload]
    s = set_up(p, wl, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - _T0)
        return 0
    setups = SetupProbes(wl, args.seed, time.perf_counter() - _T0)

    context = run_context(p, args)
    context["calibration_before"] = calibration_ms(p)
    units = Units(p, wl, s, args.seed)
    if args.trace:
        outcomes, layers = measure_traced(p, units, args.seconds)
    else:
        with StepClock(p) as clock:
            outcomes = run_for(units, args.seconds, clock, setups)
        rss_mb = peak_rss_mb()  # before the checks below train in-process
        setups(1.0)
    context["calibration_after"] = calibration_ms(p)

    problems = [x for o in outcomes for x in o.problems]
    problems += check_sync_reproducible(p, args.seed)
    problems += check_observations(p, wl, s, args.seed)
    failed = [o for o in outcomes if o.error]
    unit = "jobs" if wl.trains else "episodes"

    print("context " + json.dumps(context, sort_keys=True))
    print(f"error_rate = {len(failed) / len(outcomes)!r} "
          f"({len(failed)} of {len(outcomes)} {unit} failed)")
    by_kind: dict = {}
    for o in failed:
        by_kind.setdefault(o.error.split(":")[0], []).append(o.error)
    for kind, errors in sorted(by_kind.items()):
        print(f"  {len(errors)} x {kind}; first: {errors[0]}")
    if args.trace:
        for name, value in layers.items():
            print(f"layer {name} = {_fmt(value)} {layer_unit(name)}")
        metrics = {n: {"value": layers[n], "unit": layer_unit(n)}
                   for n in PER_LAYER}
    else:
        values = end_to_end(p, outcomes, setups.samples, rss_mb)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in END_TO_END.items()}
        samples = sum(len(o.latencies_ms) for o in outcomes if not o.error)
        print(f"samples: {samples} step latencies, {len(setups.samples)} "
              f"set-ups: " + " ".join(f"{x:.4f}" for x in setups.samples))
        for name, m in metrics.items():
            print(f"{name} = {_fmt(m['value'])} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
