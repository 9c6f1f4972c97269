"""Command-line harness: corpus generation, training, evaluation,
attention visualization, and the gradient-check suite.

Experiment configuration is a flat ``key = value`` text file. Each key
belongs to the dataclass that declares it (``ModelConfig``,
``TrainerConfig``, ``EnvSettings``, or ``ExperimentConfig`` itself), whose
checks reject bad values at parse time; unknown keys are rejected too. A
resolved copy is written into the output directory so every artifact is
reproducible from the config and seeds alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import gradcheck, gridnav, nets
from .a3c import LOG_COLUMNS, EnvSettings, TrainerConfig, play_episode, train
from .autodiff import OP_KINDS
from .gridnav import Corpus, Instruction
from .nets import ModelConfig, Params


# Fields of the component configs that the config file does not set: the
# vocabulary comes from the corpus, and the others keep their defaults.
_NOT_EXPOSED = ("vocab", "action_count", "rmsprop_alpha", "rmsprop_eps")


@dataclass
class ExperimentConfig:
    """The model, trainer and environment configs plus the run's own
    settings. ``model`` holds a placeholder vocabulary; ``model_config``
    swaps in the corpus vocabulary."""

    model: ModelConfig = field(
        default_factory=lambda: ModelConfig(vocab=(nets.UNK_TOKEN,)))
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    env: EnvSettings = field(default_factory=EnvSettings)
    seeds: tuple[int, ...] = (1, 2, 3)
    eval_mode: str = "multitask"
    eval_episodes: int = 500
    out_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.eval_mode not in ("multitask", "zeroshot"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be one or more integers >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {self.seeds}")

    def model_config(self, corpus: Corpus) -> ModelConfig:
        vocab = nets.build_vocab(corpus.train + corpus.test)
        return dataclasses.replace(self.model, vocab=vocab)


def _key_sections(config: ExperimentConfig) -> dict[str, Optional[str]]:
    """Config-file key -> the ExperimentConfig field whose dataclass declares
    it, or None for ExperimentConfig's own fields."""
    keys: dict[str, Optional[str]] = {}
    for f in dataclasses.fields(config):
        part = getattr(config, f.name)
        if dataclasses.is_dataclass(part):
            keys.update((sub.name, f.name) for sub in dataclasses.fields(part)
                        if sub.name not in _NOT_EXPOSED)
        else:
            keys[f.name] = None
    return keys


def _lookup(config: ExperimentConfig, key: str, section: Optional[str]):
    return getattr(config if section is None else getattr(config, section),
                   key)


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _parse_value(name: str, raw: str, default):
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, str):
        return raw
    if name == "seeds":
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if name == "conv_specs":
        specs = []
        for part in raw.split(","):
            dims = part.strip().split("x")
            if len(dims) != 3:
                raise ValueError(f"conv_specs entry {part!r} is not CxKxS")
            specs.append(tuple(int(v) for v in dims))
        return tuple(specs)
    raise ValueError(f"no parser for config key {name!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    """Each key goes to the dataclass that declares it, whose own checks then
    reject bad values."""
    defaults = ExperimentConfig()
    sections = _key_sections(defaults)
    values: dict[Optional[str], dict] = {s: {} for s in sections.values()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in sections:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        section = sections[key]
        try:
            values[section][key] = _parse_value(
                key, val, _lookup(defaults, key, section))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    parts = {section: dataclasses.replace(getattr(defaults, section), **kv)
             for section, kv in values.items() if section is not None}
    return dataclasses.replace(defaults, **values[None], **parts)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def config_to_text(config: ExperimentConfig) -> str:
    lines = []
    for key, section in _key_sections(config).items():
        v = _lookup(config, key, section)
        if key == "seeds":
            v = ",".join(str(s) for s in v)
        elif key == "conv_specs":
            v = ",".join("x".join(str(d) for d in spec) for spec in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Artifact helpers
# --------------------------------------------------------------------------

def write_ppm(path, image: np.ndarray) -> None:
    """Binary PPM (P6) from a (3, H, W) float image in [0, 1]."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected (3, H, W), got {image.shape}")
    _, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.transpose(1, 2, 0).tobytes())


def write_log_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in rows:
            writer.writerow([row[c] if c in ("episodes", "frames")
                             else f"{row[c]:.6f}" for c in LOG_COLUMNS])


def mean_curve(per_seed_rows: list[list[dict]]) -> list[dict]:
    """Row-wise mean across seeds, truncated to the shortest log."""
    if not per_seed_rows:
        return []
    n = min(len(rows) for rows in per_seed_rows)
    return [{key: sum(rows[i][key] for rows in per_seed_rows)
             / len(per_seed_rows) for key in LOG_COLUMNS}
            for i in range(n)]


def normalized_heatmap(attended: np.ndarray) -> np.ndarray:
    """Min-max normalized absolute attended map; flat maps become 0.5."""
    mag = np.abs(attended)
    lo, hi = float(mag.min()), float(mag.max())
    if hi - lo < 1e-12:
        return np.full(mag.shape, 0.5)
    return (mag - lo) / (hi - lo)


def upsample_nearest(plane: np.ndarray, h: int, w: int) -> np.ndarray:
    src_h, src_w = plane.shape
    rows = (np.arange(h) * src_h) // h
    cols = (np.arange(w) * src_w) // w
    return plane[rows[:, None], cols[None, :]]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_gen_corpus(config: ExperimentConfig, out_dir: Path) -> Path:
    corpus = gridnav.build_corpus(config.env.corpus_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "corpus.txt"
    path.write_text(gridnav.corpus_to_text(corpus))
    print(f"wrote {path} ({len(corpus.train)} train / {len(corpus.test)} test)")
    return path


def cmd_train(config: ExperimentConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.cfg").write_text(config_to_text(config))
    corpus = gridnav.build_corpus(config.env.corpus_seed)
    (out_dir / "corpus.txt").write_text(gridnav.corpus_to_text(corpus))
    mconf = config.model_config(corpus)

    counts = nets.count_report(mconf)
    print(f"trainable parameters: {counts['total']} "
          f"(fusion stage: {counts['fusion_stage']}, "
          f"application: {config.model.application})")

    per_seed_rows = []
    artifacts = {"seed_dirs": [], "checkpoints": []}
    for seed in config.seeds:
        seed_dir = out_dir / f"seed{seed}"
        seed_dir.mkdir(exist_ok=True)

        def checkpoint_cb(episodes: int, params: Params,
                          _dir=seed_dir) -> None:
            nets.save_params(_dir / f"checkpoint_ep{episodes}.bin",
                             params, mconf)

        result = train(config.trainer, mconf, config.env, seed,
                       checkpoint_cb=checkpoint_cb)
        write_log_csv(seed_dir / "train_log.csv", result.rows)
        ckpt = seed_dir / "checkpoint.bin"
        nets.save_params(ckpt, result.params, mconf)
        per_seed_rows.append(result.rows)
        artifacts["seed_dirs"].append(str(seed_dir))
        artifacts["checkpoints"].append(str(ckpt))
        print(f"seed {seed}: {result.episodes} episodes, "
              f"{result.frames} frames, "
              f"{result.skipped_updates} skipped updates")
    if len(config.seeds) > 1:
        write_log_csv(out_dir / "mean_curve.csv", mean_curve(per_seed_rows))
        artifacts["mean_curve"] = str(out_dir / "mean_curve.csv")
    return artifacts


@dataclass
class EvalReport:
    mode: str
    difficulty: str
    episodes: int
    accuracy: float
    mean_reward: float
    per_instruction: dict[str, dict]


def run_eval(params: Params, mconf: ModelConfig, corpus: Corpus, mode: str,
             difficulty: str, episodes: int, seed: int,
             trace_sink: Optional[list] = None) -> EvalReport:
    split = corpus.train if mode == "multitask" else corpus.test
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    wins = 0
    total_reward = 0.0
    per_ins: dict[str, dict] = {}
    for _ in range(episodes):
        ins = split[int(rng.integers(len(split)))]
        env_seed = int(rng.integers(2 ** 31))
        result = play_episode(params, mconf, ins, env_seed, difficulty,
                              greedy=True)
        wins += result.success
        total_reward += result.reward
        stats = per_ins.setdefault(ins.text, {"episodes": 0, "correct": 0})
        stats["episodes"] += 1
        stats["correct"] += int(result.success)
        if trace_sink is not None:
            trace_sink.extend(result.trace)
    return EvalReport(mode=mode, difficulty=difficulty, episodes=episodes,
                      accuracy=wins / episodes,
                      mean_reward=total_reward / episodes,
                      per_instruction=dict(sorted(per_ins.items())))


def cmd_eval(config: ExperimentConfig, out_dir: Path, checkpoint: Path,
             mode: str, episodes: int, seed: int) -> EvalReport:
    corpus = gridnav.build_corpus(config.env.corpus_seed)
    mconf = config.model_config(corpus)
    params = nets.load_params(checkpoint, mconf)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces: list = []
    report = run_eval(params, mconf, corpus, mode, config.env.difficulty,
                      episodes, seed, trace_sink=traces)
    report_path = out_dir / f"eval_{mode}.json"
    report_path.write_text(json.dumps(dataclasses.asdict(report),
                                      indent=2, sort_keys=True))
    with open(out_dir / f"eval_{mode}_traces.jsonl", "w") as fh:
        for record in traces:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{mode} accuracy over {episodes} episodes: {report.accuracy:.4f} "
          f"(mean reward {report.mean_reward:.4f})")
    return report


def cmd_visualize(config: ExperimentConfig, out_dir: Path, checkpoint: Path,
                  instruction: Instruction, seed: int) -> dict:
    corpus = gridnav.build_corpus(config.env.corpus_seed)
    mconf = config.model_config(corpus)
    params = nets.load_params(checkpoint, mconf)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = play_episode(params, mconf, instruction, seed,
                          config.env.difficulty, greedy=True, capture=True)
    index = {
        "instruction": instruction.text,
        "difficulty": config.env.difficulty,
        "seed": seed,
        "reward": result.reward,
        "note": ("concat fusion has no attention; every heatmap is flat"
                 if config.model.fusion == "concat" else
                 "heatmap is the channel-mean of the Hadamard-attended "
                 "features (1D-convolution map unavailable)"
                 if config.model.application == "hadamard_fc" else
                 "heatmap is the 1D-convolution attended map"),
        "steps": [],
    }
    for t, (frame, attended) in enumerate(zip(result.frames, result.attended)):
        frame_path = out_dir / f"step_{t:02d}_frame.ppm"
        heat_path = out_dir / f"step_{t:02d}_attention.ppm"
        write_ppm(frame_path, frame)
        heat = normalized_heatmap(
            np.zeros((mconf.feat_h, mconf.feat_w)) if attended is None
            else attended.mean(axis=0))
        up = upsample_nearest(heat, mconf.render_h, mconf.render_w)
        blended = 0.5 * frame + 0.5 * up[None, :, :]
        write_ppm(heat_path, blended)
        index["steps"].append({
            "t": t,
            "frame": frame_path.name,
            "attention": heat_path.name,
            "action": result.trace[t]["action"],
        })
    (out_dir / "index.json").write_text(json.dumps(index, indent=2,
                                                   sort_keys=True))
    print(f"wrote {len(index['steps'])} steps to {out_dir} "
          f"(episode reward {result.reward})")
    return index


def cmd_gradcheck(seed: int, cases_per_op: int = 100) -> bool:
    """Check every op kind, then the end-to-end pass; True if all pass."""
    checks = [(op, gradcheck.check_op(op, seed=seed, cases=cases_per_op),
               gradcheck.OP_TOL) for op in OP_KINDS]
    checks.append(("end_to_end", gradcheck.check_end_to_end(seed),
                   gradcheck.END_TO_END_TOL))
    for name, err, tol in checks:
        print(f"{name:18s} max rel err {err:.3e}  "
              f"{'PASS' if err < tol else 'FAIL'}")
    return all(err < tol for _, err, tol in checks)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ground-nav",
        description="instruction-following navigation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="experiment config file (key = value lines)")
        p.add_argument("--out", default=None, help="output directory")
        return p

    add_common(sub.add_parser("gen-corpus", help="write the instruction corpus"))
    add_common(sub.add_parser("train", help="train per configured seeds"))

    p_eval = add_common(sub.add_parser("eval", help="evaluate a checkpoint"))
    p_eval.add_argument("--mode", choices=("multitask", "zeroshot"),
                        default=None)
    p_eval.add_argument("--episodes", type=int, default=None)

    p_viz = add_common(sub.add_parser(
        "visualize", help="attention heatmaps for one episode"))
    p_viz.add_argument("--instruction", default=None,
                       help="instruction text; defaults to the first train one")

    for p in (p_eval, p_viz):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="episode seed; defaults to the first configured seed")

    p_gc = sub.add_parser("gradcheck", help="finite-difference suite")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--cases", type=int, default=100)

    args = parser.parse_args(argv)

    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "gradcheck":
        if args.cases < 1:
            parser.error("--cases must be >= 1")
        return 0 if cmd_gradcheck(args.seed, cases_per_op=args.cases) else 1

    config = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(config.out_dir)

    if args.command == "gen-corpus":
        cmd_gen_corpus(config, out_dir)
        return 0
    if args.command == "train":
        cmd_train(config, out_dir)
        return 0
    seed = args.seed if args.seed is not None else config.seeds[0]
    if args.command == "eval":
        if args.episodes is not None:
            # the config's own check rejects a count below 1
            config = dataclasses.replace(config, eval_episodes=args.episodes)
        cmd_eval(config, out_dir, Path(args.checkpoint),
                 args.mode or config.eval_mode, config.eval_episodes, seed)
        return 0
    if args.command == "visualize":
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        instruction = (gridnav.instruction_from_text(args.instruction)
                       if args.instruction else corpus.train[0])
        cmd_visualize(config, out_dir, Path(args.checkpoint), instruction, seed)
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
