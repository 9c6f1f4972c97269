"""Print the sha256 of every trained parameter byte after nine seeded runs,
then the sha256 of greedy episodes played with each run's parameters.

    PYTHONPATH=src python tools/parity.py

Each run is ``a3c.train`` with seed 3 on the default corpus (seed 7); the
digest covers every parameter tensor in declaration order. The first four
runs play one worker in easy mode; the next four step 2 or 3 workers in
lockstep for 400 frames, in easy and in hard mode; the last steps 2
workers in lockstep at ``paper_config``, a batch whose conv2d products
reach ``autodiff.OFFLOAD_MIN_MACS``. A change meant to keep training bit
for bit prints the same nine lines before and after. The
digests depend on the BLAS build, so compare them on one machine rather
than pinning them.

Each line ends with the run's peak of traced memory (``tracemalloc``, in
MiB) after the label; it is printed, not compared, so ``cut -c1-64`` of two
outputs still compares the digests alone.

After the nine training lines come nine ``<sha256>  eval: <label>``
lines, one per run in the same order. Each covers the traces and the
captured attention maps of 10 greedy hard-mode episodes: episode i plays
training instruction i with environment seed i. A change meant to keep
greedy evaluation bit for bit prints the same eval lines too.
"""

from __future__ import annotations

import hashlib
import tracemalloc

from groundnav import a3c, gridnav, nets

SEED = 3
EVAL_EPISODES = 10


def runs(vocab):
    """(label, model config, trainer config, environment) of each run."""
    desk = a3c.TrainerConfig(max_frames=200, learning_rate=1e-3)
    easy = a3c.EnvSettings()
    single = (
        ("desk defaults, 200 frames, lr 1e-3",
         nets.ModelConfig(vocab=vocab), desk),
        ("forget_gate_sees_input=False",
         nets.ModelConfig(vocab=vocab, forget_gate_sees_input=False), desk),
        ("lstm_output/hadamard_fc",
         nets.ModelConfig(vocab=vocab, attention_source="lstm_output",
                          application="hadamard_fc"), desk),
        ("paper_config, 60 frames, lr 1e-5",
         nets.paper_config(vocab),
         a3c.TrainerConfig(max_frames=60, learning_rate=1e-5)),
    )
    lockstep = tuple(
        (f"{workers} workers lockstep, {difficulty}, 400 frames",
         nets.ModelConfig(vocab=vocab),
         a3c.TrainerConfig(max_frames=400, workers=workers),
         a3c.EnvSettings(difficulty=difficulty))
        for workers in (2, 3) for difficulty in ("easy", "hard"))
    paper_lockstep = (
        "paper_config, 2 workers lockstep, 60 frames, lr 1e-5",
        nets.paper_config(vocab),
        a3c.TrainerConfig(max_frames=60, learning_rate=1e-5, workers=2),
        easy)
    return tuple(run + (easy,) for run in single) + lockstep + (
        paper_lockstep,)


def digest(params: nets.Params) -> str:
    h = hashlib.sha256()
    for _, tensor in params.items():
        h.update(tensor.data.tobytes())
    return h.hexdigest()


def eval_digest(params: nets.Params, mconf: nets.ModelConfig,
                split) -> str:
    """sha256 of the traces and attention maps of the greedy episodes."""
    h = hashlib.sha256()
    for i in range(EVAL_EPISODES):
        result = a3c.play_episode(params, mconf, split[i], i, "hard",
                                  capture=True)
        h.update(repr(result.trace).encode())
        for maps in result.attended:
            h.update(b"None" if maps is None else maps.tobytes())
    return h.hexdigest()


def main() -> None:
    corpus = gridnav.build_corpus(a3c.EnvSettings().corpus_seed)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    trained = []
    tracemalloc.start()
    for label, mconf, tconf, env in runs(vocab):
        tracemalloc.reset_peak()
        result = a3c.train(tconf, mconf, env, SEED)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        print(f"{digest(result.params)}  {label}  [peak {peak:.1f} MiB]")
        trained.append((label, mconf, result.params))
    tracemalloc.stop()
    for label, mconf, params in trained:
        print(f"{eval_digest(params, mconf, corpus.train)}  eval: {label}")


if __name__ == "__main__":
    main()
