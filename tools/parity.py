"""Print the sha256 of every trained parameter byte after four seeded runs.

    PYTHONPATH=src python tools/parity.py

Each run is ``a3c.train`` with seed 3 on the default corpus (seed 7), easy
difficulty and one worker; the digest covers every parameter tensor in
declaration order. A change meant to keep training bit for bit prints the
same four lines before and after. The digests depend on the BLAS build, so
compare them on one machine rather than pinning them.
"""

from __future__ import annotations

import hashlib

from groundnav import a3c, gridnav, nets

SEED = 3


def runs(vocab):
    """(label, model config, trainer config) of each run."""
    desk = a3c.TrainerConfig(max_frames=200, learning_rate=1e-3)
    return (
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


def digest(params: nets.Params) -> str:
    h = hashlib.sha256()
    for _, tensor in params.items():
        h.update(tensor.data.tobytes())
    return h.hexdigest()


def main() -> None:
    env = a3c.EnvSettings()
    corpus = gridnav.build_corpus(env.corpus_seed)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    for label, mconf, tconf in runs(vocab):
        result = a3c.train(tconf, mconf, env, SEED)
        print(f"{digest(result.params)}  {label}")


if __name__ == "__main__":
    main()
