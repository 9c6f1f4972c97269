import json

import numpy as np
import pytest

from groundnav import cli, gridnav, nets
from groundnav.cli import (
    ExperimentConfig,
    cmd_eval,
    cmd_gen_corpus,
    cmd_gradcheck,
    cmd_train,
    cmd_visualize,
    config_to_text,
    load_config,
    mean_curve,
    normalized_heatmap,
    parse_config_text,
    run_eval,
    upsample_nearest,
    write_ppm,
)


TINY_CONFIG = """
# tiny, fast experiment
difficulty = easy
attention_source = lstm_cellstate
application = conv1d
seeds = 1
corpus_seed = 7
d = 8
l = 8
embed_dim = 4
hidden = 8
render_h = 27
render_w = 36
conv_specs = 4x5x3,6x4x2,8x3x1
max_frames = 600
log_every_episodes = 10
eval_episodes = 20
"""


@pytest.fixture(scope="module")
def tiny_config():
    return parse_config_text(TINY_CONFIG)


class TestConfigParsing:
    def test_defaults_roundtrip(self):
        config = ExperimentConfig()
        parsed = parse_config_text(config_to_text(config))
        assert parsed == config

    def test_tiny_values(self, tiny_config):
        assert tiny_config.model.d == 8
        assert tiny_config.seeds == (1,)
        assert tiny_config.model.conv_specs == ((4, 5, 3), (6, 4, 2), (8, 3, 1))
        assert tiny_config.trainer.max_frames == 600
        assert tiny_config.env.difficulty == "easy"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("not_a_key = 3\n")

    def test_key_set(self):
        keys = [line.split(" = ")[0]
                for line in config_to_text(ExperimentConfig()).splitlines()]
        assert sorted(keys) == sorted([
            "difficulty", "attention_source", "application", "fusion",
            "seeds", "corpus_seed", "d", "l", "embed_dim", "hidden",
            "render_h", "render_w", "conv_specs", "forget_gate_sees_input",
            "gamma", "n_steps", "entropy_coef", "value_coef",
            "grad_clip_norm", "learning_rate", "workers",
            "max_frames", "max_episodes", "log_every_episodes",
            "checkpoint_every_episodes", "early_stop_accuracy", "eval_mode",
            "eval_episodes", "out_dir"])
        for hidden in ("vocab", "action_count", "mode", "rmsprop_alpha",
                       "rmsprop_eps"):
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config_text(f"{hidden} = 1\n")

    def test_cross_field_rejected_at_parse(self):
        with pytest.raises(ValueError, match="d channels"):
            parse_config_text("d = 8\n")

    def test_workers_alone_set_the_batch(self):
        assert parse_config_text("workers = 2\n").trainer.workers == 2
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("mode = async\n")

    def test_bad_enum_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("difficulty = impossible\n")
        with pytest.raises(ValueError):
            parse_config_text("attention_source = fourier\n")

    def test_comments_and_blanks_ignored(self):
        config = parse_config_text("# hello\n\nd = 16\n"
                                   "conv_specs = 8x4x4,12x3x2,16x2x1  # inline\n")
        assert config.model.d == 16

    def test_eval_episodes_below_one_rejected(self):
        for count in (0, -3):
            with pytest.raises(ValueError, match="eval_episodes"):
                parse_config_text(f"eval_episodes = {count}\n")

    @pytest.mark.parametrize("key, value", [
        ("log_every_episodes", 0), ("max_frames", -5), ("max_episodes", -1),
        ("checkpoint_every_episodes", -1), ("learning_rate", 0),
        ("learning_rate", -1e-3), ("grad_clip_norm", -1), ("entropy_coef", -0.01),
        ("value_coef", -0.5), ("early_stop_accuracy", -0.1),
        ("early_stop_accuracy", 1.5), ("seeds", "1,-2"), ("seeds", "1,1"),
        ("seeds", "2,3,2"), ("corpus_seed", -1)])
    def test_bad_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            parse_config_text(f"{key} = {value}\n")

    @pytest.mark.parametrize("key, value", [
        ("d", 0), ("l", 0), ("embed_dim", 0), ("hidden", 0), ("render_h", -1),
        ("render_w", 0), ("conv_specs", "8x4x0,12x3x2,16x2x1"),
        ("conv_specs", "0x4x4,12x3x2,16x2x1"),
        ("conv_specs", "8x0x4,12x3x2,16x2x1")])
    def test_bad_geometry_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} .*>= 1"):
            parse_config_text(f"{key} = {value}\n")

    def test_conversion_error_names_line_and_key(self):
        with pytest.raises(ValueError,
                           match=r"^line 3: hidden: invalid literal for int"):
            parse_config_text("# comment\nd = 16\nhidden = 1.5\n")
        with pytest.raises(ValueError,
                           match="^line 1: forget_gate_sees_input: expected"):
            parse_config_text("forget_gate_sees_input = maybe\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("difficulty easy\n")

    def test_bool_parsing(self):
        config = parse_config_text("forget_gate_sees_input = false\n")
        assert config.model.forget_gate_sees_input is False
        with pytest.raises(ValueError):
            parse_config_text("forget_gate_sees_input = maybe\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG)
        assert load_config(path) == parse_config_text(TINY_CONFIG)


def read_ppm(path) -> np.ndarray:
    """(3, H, W) float image in [0, 1] from a binary PPM (P6)."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P6":
            raise ValueError(f"{path}: not a binary PPM")
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        raw = np.frombuffer(fh.read(w * h * 3), dtype=np.uint8)
    img = raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64)
    return img / maxval


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 5, 7))
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        loaded = read_ppm(path)
        assert loaded.shape == (3, 5, 7)
        assert np.abs(loaded - img).max() <= 0.5 / 255 + 1e-9

    def test_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((3, 4, 6)))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n6 4\n255\n")
        assert len(raw) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


class TestHelpers:
    def test_normalized_heatmap_range(self):
        rng = np.random.default_rng(1)
        m = rng.uniform(-3, 3, (4, 6))
        h = normalized_heatmap(m)
        assert h.min() == 0.0 and h.max() == 1.0

    def test_normalized_heatmap_flat_is_half(self):
        h = normalized_heatmap(np.full((3, 3), 2.72))
        assert (h == 0.5).all()

    def test_upsample_nearest_shape_and_values(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        up = upsample_nearest(plane, 4, 4)
        assert up.shape == (4, 4)
        assert up[0, 0] == 1.0 and up[3, 3] == 4.0
        assert set(np.unique(up)) == {1.0, 2.0, 3.0, 4.0}

    def test_mean_curve_averages(self):
        rows_a = [{"episodes": 10, "frames": 100, "mean_reward": 0.2,
                   "accuracy": 0.1, "policy_loss": 1.0, "value_loss": 2.0,
                   "entropy": 3.0}]
        rows_b = [{"episodes": 10, "frames": 120, "mean_reward": 0.4,
                   "accuracy": 0.3, "policy_loss": 3.0, "value_loss": 4.0,
                   "entropy": 5.0},
                  {"episodes": 20, "frames": 240, "mean_reward": 0.5,
                   "accuracy": 0.5, "policy_loss": 1.0, "value_loss": 1.0,
                   "entropy": 1.0}]
        mean = mean_curve([rows_a, rows_b])
        assert len(mean) == 1  # truncates to the shortest
        assert mean[0]["frames"] == pytest.approx(110)
        assert mean[0]["accuracy"] == pytest.approx(0.2)


class TestGenCorpus:
    def test_writes_corpus(self, tiny_config, tmp_path):
        path = cmd_gen_corpus(tiny_config, tmp_path)
        corpus = gridnav.build_corpus(tiny_config.env.corpus_seed)
        assert path.read_text() == gridnav.corpus_to_text(corpus)
        assert len(path.read_text().splitlines()) == 2 + 55 + 15


class TestTrain:
    def test_zero_budget_writes_initial_checkpoint(self, tmp_path):
        config = parse_config_text(TINY_CONFIG + "max_frames = 0\n")
        artifacts = cmd_train(config, tmp_path)
        log = (tmp_path / "seed1" / "train_log.csv").read_text()
        assert log.splitlines() == [
            "episodes,frames,mean_reward,accuracy,policy_loss,value_loss,entropy"]
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        mconf = config.model_config(corpus)
        loaded = nets.load_params(tmp_path / "seed1" / "checkpoint.bin", mconf)
        fresh = nets.init_params(mconf, 1)
        for name in fresh.names():
            assert (loaded[name].data == fresh[name].data).all()
        assert artifacts["checkpoints"] == [str(tmp_path / "seed1" / "checkpoint.bin")]

    # the ids keep the names these cases had while a ``mode`` key told
    # one worker and a lockstep batch apart
    @pytest.mark.parametrize("workers", [1, 2], ids=["sync-1", "async-2"])
    def test_run_reproducible(self, tmp_path, workers):
        config = parse_config_text(TINY_CONFIG + f"workers = {workers}\n")
        cmd_train(config, tmp_path / "a")
        cmd_train(config, tmp_path / "b")
        for rel in ("seed1/train_log.csv", "resolved.cfg", "corpus.txt"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel
        assert (tmp_path / "a" / "seed1" / "checkpoint.bin").read_bytes() == \
            (tmp_path / "b" / "seed1" / "checkpoint.bin").read_bytes()

    def test_lockstep_batch_trains(self, tmp_path, capsys):
        config = parse_config_text(TINY_CONFIG + "workers = 2\n")
        cmd_train(config, tmp_path)
        assert "600 frames" in capsys.readouterr().out
        log = (tmp_path / "seed1" / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("episodes,frames,")
        assert len(log) > 1
        mconf = config.model_config(gridnav.build_corpus(7))
        trained = nets.load_params(tmp_path / "seed1" / "checkpoint.bin", mconf)
        fresh = nets.init_params(mconf, 1)
        assert any((trained[n].data != fresh[n].data).any()
                   for n in fresh.names())

    def test_multi_seed_writes_mean_curve(self, tmp_path):
        config = parse_config_text(TINY_CONFIG + "seeds = 1,2,3\n")
        cmd_train(config, tmp_path)
        for seed in (1, 2, 3):
            assert (tmp_path / f"seed{seed}" / "train_log.csv").exists()
            assert (tmp_path / f"seed{seed}" / "checkpoint.bin").exists()
        mean = (tmp_path / "mean_curve.csv").read_text().splitlines()
        assert mean[0] == ("episodes,frames,mean_reward,accuracy,"
                           "policy_loss,value_loss,entropy")

    def test_resolved_config_written_and_parseable(self, tiny_config, tmp_path):
        cmd_train(tiny_config, tmp_path)
        resolved = load_config(tmp_path / "resolved.cfg")
        assert resolved == tiny_config

    def test_parameter_counts_printed(self, tiny_config, tmp_path, capsys):
        cmd_train(tiny_config, tmp_path)
        out = capsys.readouterr().out
        assert "trainable parameters:" in out

    def test_periodic_checkpoints(self, tmp_path):
        config = parse_config_text(
            TINY_CONFIG + "checkpoint_every_episodes = 20\nmax_frames = 900\n")
        cmd_train(config, tmp_path)
        periodic = list((tmp_path / "seed1").glob("checkpoint_ep*.bin"))
        assert periodic, "expected at least one periodic checkpoint"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = parse_config_text(TINY_CONFIG)
    cmd_train(config, out)
    return config, out


@pytest.fixture(scope="module")
def trained_short(tmp_path_factory):
    out = tmp_path_factory.mktemp("vizrun")
    config = parse_config_text(TINY_CONFIG + "max_frames = 200\n")
    cmd_train(config, out)
    return config, out


class TestEval:
    def test_eval_report_and_traces(self, trained, tmp_path):
        config, out = trained
        report = cmd_eval(config, tmp_path, out / "seed1" / "checkpoint.bin",
                          "multitask", 25, seed=3)
        assert report.episodes == 25
        assert 0.0 <= report.accuracy <= 1.0
        data = json.loads((tmp_path / "eval_multitask.json").read_text())
        assert data["accuracy"] == report.accuracy

        # accuracy must equal a recount from the emitted traces
        lines = (tmp_path / "eval_multitask_traces.jsonl").read_text() \
            .strip().splitlines()
        records = [json.loads(line) for line in lines]
        finals = [r for r in records if r["done"]]
        wins = sum(1 for r in finals if r["reward"] == 1.0)
        assert len(finals) == 25
        assert wins / 25 == pytest.approx(report.accuracy)

    def test_zeroshot_uses_only_test_instructions(self, trained, tmp_path):
        config, out = trained
        report = cmd_eval(config, tmp_path, out / "seed1" / "checkpoint.bin",
                          "zeroshot", 30, seed=5)
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        test_texts = {ins.text for ins in corpus.test}
        assert set(report.per_instruction) <= test_texts

    def test_eval_deterministic(self, trained, tmp_path):
        config, out = trained
        ckpt = out / "seed1" / "checkpoint.bin"
        r1 = cmd_eval(config, tmp_path / "a", ckpt, "multitask", 15, seed=9)
        r2 = cmd_eval(config, tmp_path / "b", ckpt, "multitask", 15, seed=9)
        assert r1 == r2
        assert (tmp_path / "a" / "eval_multitask.json").read_bytes() == \
            (tmp_path / "b" / "eval_multitask.json").read_bytes()

    def test_digest_mismatch_rejected(self, trained, tmp_path):
        config, out = trained
        bad = parse_config_text(TINY_CONFIG + "hidden = 16\n")
        with pytest.raises(ValueError, match="digest"):
            cmd_eval(bad, tmp_path, out / "seed1" / "checkpoint.bin",
                     "multitask", 5, seed=1)

    @pytest.mark.parametrize("mode, episodes, message", [
        ("multi", 5, "unknown eval mode 'multi'"),
        ("multitask", 0, "episodes must be >= 1")],
        ids=["unknown_mode", "no_episodes"])
    def test_bad_request_rejected_before_any_episode(
            self, tiny_config, monkeypatch, mode, episodes, message):
        def play_episode(*args, **kwargs):
            raise AssertionError("an episode was played")

        monkeypatch.setattr(cli, "play_episode", play_episode)
        corpus = gridnav.build_corpus(tiny_config.env.corpus_seed)
        mconf = tiny_config.model_config(corpus)
        params = nets.init_params(mconf, 0)
        with pytest.raises(ValueError, match=message):
            run_eval(params, mconf, corpus, mode, "easy", episodes, seed=0)

    def test_per_instruction_table_counts(self, trained, tmp_path):
        config, out = trained
        report = cmd_eval(config, tmp_path, out / "seed1" / "checkpoint.bin",
                          "multitask", 40, seed=2)
        assert sum(v["episodes"] for v in report.per_instruction.values()) == 40
        for v in report.per_instruction.values():
            assert 0 <= v["correct"] <= v["episodes"]


class TestVisualize:
    def test_ppm_artifacts(self, trained_short, tmp_path):
        config, out = trained_short
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        index = cmd_visualize(config, tmp_path,
                              out / "seed1" / "checkpoint.bin",
                              corpus.train[0], seed=4)
        assert index["steps"], "episode should have at least one step"
        first = index["steps"][0]
        frame = read_ppm(tmp_path / first["frame"])
        heat = read_ppm(tmp_path / first["attention"])
        shape = (3, config.model.render_h, config.model.render_w)
        assert frame.shape == shape
        assert heat.shape == shape
        assert heat.min() >= 0.0 and heat.max() <= 1.0
        data = json.loads((tmp_path / "index.json").read_text())
        assert len(data["steps"]) == len(index["steps"])

    def test_hadamard_fallback_noted(self, tmp_path):
        config = parse_config_text(
            TINY_CONFIG + "application = hadamard_fc\nmax_frames = 100\n")
        out = tmp_path / "run"
        cmd_train(config, out)
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        index = cmd_visualize(config, tmp_path / "viz",
                              out / "seed1" / "checkpoint.bin",
                              corpus.train[1], seed=1)
        assert "channel-mean" in index["note"]

    def test_concat_noted_flat(self, tmp_path):
        # concat fusion has no attention: the note says so, and every
        # attention image is the frame blended with a flat 0.5 map
        config = parse_config_text(
            TINY_CONFIG + "fusion = concat\nmax_frames = 0\n")
        out = tmp_path / "run"
        cmd_train(config, out)
        corpus = gridnav.build_corpus(config.env.corpus_seed)
        index = cmd_visualize(config, tmp_path / "viz",
                              out / "seed1" / "checkpoint.bin",
                              corpus.train[1], seed=1)
        assert "no attention" in index["note"]
        for step in index["steps"]:
            frame = read_ppm(tmp_path / "viz" / step["frame"])
            heat = read_ppm(tmp_path / "viz" / step["attention"])
            np.testing.assert_allclose(heat, 0.5 * frame + 0.25, atol=1 / 255)


class TestGradcheckCommand:
    def test_passes_and_lists_every_op(self, capsys):
        ok = cmd_gradcheck(seed=0, cases_per_op=5)
        out = capsys.readouterr().out
        assert ok
        from groundnav.autodiff import OP_KINDS
        for op in OP_KINDS:
            assert out.count(f"{op:18s}") == 1
        assert "end_to_end" in out

    def test_corrupted_mul_reported_failing(self, capsys, scale_backward):
        scale_backward("mul")
        ok = cmd_gradcheck(seed=0, cases_per_op=5)
        out = capsys.readouterr().out
        assert not ok
        mul_line = [l for l in out.splitlines() if l.startswith("mul ")]
        assert mul_line and "FAIL" in mul_line[0]

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_no_cases_rejected(self, cases, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["gradcheck", "--seed", "0", "--cases", cases])
        assert exit_info.value.code == 2
        assert "--cases must be >= 1" in capsys.readouterr().err


class TestMainEntry:
    def test_gen_corpus_command(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        rc = cli.main(["gen-corpus", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "corpus.txt").exists()

    def test_train_then_eval_command(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "max_frames = 200\n")
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "seed1" / "checkpoint.bin"
        assert ckpt.exists()
        rc = cli.main(["eval", "--config", str(cfg), "--out", str(out),
                       "--checkpoint", str(ckpt), "--mode", "zeroshot",
                       "--episodes", "5", "--seed", "2"])
        assert rc == 0
        assert (out / "eval_zeroshot.json").exists()

    def test_seed_rejected_where_unused(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        for command in ("gen-corpus", "train"):
            with pytest.raises(SystemExit):
                cli.main([command, "--config", str(cfg),
                          "--out", str(tmp_path / "out"), "--seed", "5"])
            assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "visualize", "gradcheck"])
    def test_negative_seed_rejected(self, command, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        args = [] if command == "gradcheck" else [
            "--config", str(cfg), "--checkpoint", str(tmp_path / "none.bin")]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *args, "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_train_negative_seed_writes_nothing(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "seeds = 1,-1\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="seeds"):
            cli.main(["train", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_train_repeated_seeds_writes_nothing(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "seeds = 1,1\n")
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="seeds"):
            cli.main(["train", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    def test_eval_episodes_below_one_rejected(self, tmp_path):
        # rejected before the checkpoint is read, so none is needed
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG)
        for count in ("0", "-3"):
            with pytest.raises(ValueError, match="eval_episodes"):
                cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path),
                          "--checkpoint", str(tmp_path / "none.bin"),
                          "--episodes", count])

    def test_visualize_command_with_instruction(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "max_frames = 100\n")
        out = tmp_path / "out"
        cli.main(["train", "--config", str(cfg), "--out", str(out)])
        rc = cli.main(["visualize", "--config", str(cfg),
                       "--out", str(out / "viz"),
                       "--checkpoint", str(out / "seed1" / "checkpoint.bin"),
                       "--instruction", "go to the red pillar", "--seed", "3"])
        assert rc == 0
        assert (out / "viz" / "index.json").exists()
