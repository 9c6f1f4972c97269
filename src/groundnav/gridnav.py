"""Deterministic seedable grid-world navigation with egocentric rendering.

One episode: an instruction like "go to the tall green pillar" plus a spawn
of five objects. Object 0 is the correct one and objects 1-4 are not;
``reset`` checks every spawn against the instruction and raises if that does
not hold. The agent turns in 90-degree increments or moves one cell forward,
sees a first-person billboard render each step, and the episode ends on
object contact (entering an object's cell or a 4-adjacent cell), or after 30
steps. Contact pays ``REWARD_CORRECT`` only when object 0 is the only object
touched; a cell beside two objects (the gap between neighbouring slots)
counts as a wrong contact.

Everything is a pure function of (seed, difficulty, instruction, actions);
stepping uses no randomness at all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor

COLORS = ("red", "green", "blue", "yellow")
SHAPES = ("pillar", "torch", "keycard", "skullkey", "armor")
SIZES = ("tall", "short")
SUPERLATIVES = ("tallest", "shortest", "largest")
HEADINGS = ("N", "E", "S", "W")
ACTIONS = ("turn_left", "turn_right", "move_forward")
DIFFICULTIES = ("easy", "medium", "hard")

MAX_STEPS = 30
REWARD_CORRECT = 1.0
REWARD_INCORRECT = -0.2
REWARD_TIMEOUT = 0.0

GRID_SIZE = (12, 16)

# Fixed easy-mode pose and object line (agent looks north at five slots).
EASY_AGENT_POS = (11, 8)
EASY_AGENT_HEADING = "N"
EASY_OBJECT_ROW = 5
EASY_OBJECT_COLS = (4, 6, 8, 10, 12)

TRAIN_COUNT = 55
TEST_COUNT = 15

# (row, col) deltas; "right" is the agent's right-hand direction.
_FORWARD = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
_RIGHT = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_TURN_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_TURN_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}

_COLOR_RGB = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
}
_BACKGROUND = 0.5
_DIM = 0.0  # off-pattern pixels are black for maximum pattern contrast
_SIZE_MULT = {"tall": 2.0, "short": 1.0}


@dataclass(frozen=True)
class Predicate:
    """Attribute constraints ("tall green pillar") or a superlative
    ("tallest torch") identifying the correct object."""

    kind: str  # "attrs" | "superlative"
    size: Optional[str] = None
    color: Optional[str] = None
    shape: Optional[str] = None
    which: Optional[str] = None  # superlative word

    def __post_init__(self):
        if self.kind == "attrs":
            if self.size is None and self.color is None and self.shape is None:
                raise ValueError("attribute predicate with no constraints")
        elif self.kind == "superlative":
            if self.which not in SUPERLATIVES or self.shape not in SHAPES:
                raise ValueError(f"bad superlative predicate {self}")
        else:
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    def matches_attrs(self, size: str, color: str, shape: str) -> bool:
        """Attribute-only satisfaction; superlatives never match here
        because they are resolved against a spawned set."""
        if self.kind != "attrs":
            return False
        return ((self.size is None or self.size == size)
                and (self.color is None or self.color == color)
                and (self.shape is None or self.shape == shape))


@dataclass(frozen=True)
class Instruction:
    tokens: tuple[str, ...]
    predicate: Predicate

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class ObjectSpec:
    color: str
    shape: str
    size: str
    position: tuple[int, int]


@dataclass(frozen=True)
class WorldState:
    agent_pos: tuple[int, int]
    agent_heading: str
    objects: tuple[ObjectSpec, ...]  # object 0 is the correct one
    step_count: int
    render_hw: tuple[int, int]
    done: bool = False


@dataclass(frozen=True)
class Observation:
    image: Tensor  # (3, H_px, W_px), values in [0, 1]


@dataclass(frozen=True)
class Corpus:
    train: tuple[Instruction, ...]
    test: tuple[Instruction, ...]


# --------------------------------------------------------------------------
# Instruction corpus
# --------------------------------------------------------------------------

def _attr_instruction(size, color, noun) -> Instruction:
    words = ["go", "to", "the"]
    if size:
        words.append(size)
    if color:
        words.append(color)
    words.append(noun)
    pred = Predicate(kind="attrs", size=size, color=color,
                     shape=None if noun == "object" else noun)
    return Instruction(tokens=tuple(words), predicate=pred)


def _superlative_instruction(which, shape) -> Instruction:
    return Instruction(
        tokens=("go", "to", "the", which, shape),
        predicate=Predicate(kind="superlative", which=which, shape=shape),
    )


def all_instructions() -> list[Instruction]:
    """Every instruction the grammar generates, in a fixed order."""
    out = []
    for size in (None,) + SIZES:
        for color in (None,) + COLORS:
            for noun in SHAPES + ("object",):
                if noun == "object" and size is None and color is None:
                    continue  # unconstrained, would make every object correct
                out.append(_attr_instruction(size, color, noun))
    for which in SUPERLATIVES:
        for shape in SHAPES:
            out.append(_superlative_instruction(which, shape))
    return out


def build_corpus(seed: int) -> Corpus:
    """Deterministic 55/15 train/test split over distinct predicates."""
    pool = all_instructions()
    if len(pool) < TRAIN_COUNT + TEST_COUNT:
        raise ValueError(
            f"grammar yields {len(pool)} predicates, "
            f"need {TRAIN_COUNT + TEST_COUNT}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    order = rng.permutation(len(pool))
    chosen = [pool[i] for i in order[:TRAIN_COUNT + TEST_COUNT]]
    return Corpus(train=tuple(chosen[:TRAIN_COUNT]),
                  test=tuple(chosen[TRAIN_COUNT:]))


def corpus_to_text(corpus: Corpus) -> str:
    lines = ["[train]"]
    lines += [ins.text for ins in corpus.train]
    lines.append("[test]")
    lines += [ins.text for ins in corpus.test]
    return "\n".join(lines) + "\n"


def instruction_from_text(line: str) -> Instruction:
    """The grammar's instruction with this text, up to case and spacing."""
    text = " ".join(line.lower().split())
    for ins in all_instructions():
        if ins.text == text:
            return ins
    raise ValueError(f"not an instruction of the grammar: {line!r}")


# --------------------------------------------------------------------------
# Episode mechanics
# --------------------------------------------------------------------------

def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _episode_rng(seed: int, difficulty: str, instruction: Instruction):
    return np.random.default_rng(np.random.SeedSequence(
        [seed, DIFFICULTIES.index(difficulty), _stable_hash(instruction.text)]))


def _view(agent_pos, heading: str, cell,
          min_forward: int = 1) -> Optional[tuple[int, int]]:
    """(forward, lateral) cell offset of ``cell`` in the agent's frame, or
    None when it is outside the 90-degree field of view centered on the
    heading or less than ``min_forward`` cells ahead."""
    dr = cell[0] - agent_pos[0]
    dc = cell[1] - agent_pos[1]
    f = _FORWARD[heading]
    r = _RIGHT[heading]
    forward = dr * f[0] + dc * f[1]
    lateral = dr * r[0] + dc * r[1]
    if forward >= min_forward and abs(lateral) <= forward:
        return forward, lateral
    return None


def _resolve_correct_ids(predicate: Predicate,
                         objects: Sequence[ObjectSpec]) -> frozenset[int]:
    if predicate.kind == "attrs":
        return frozenset(
            i for i, o in enumerate(objects)
            if predicate.matches_attrs(o.size, o.color, o.shape))
    # Superlative: the extreme-size object of the named shape; ties go to
    # the lowest spawn index (the spawner avoids creating ties).
    candidates = [(i, o) for i, o in enumerate(objects)
                  if o.shape == predicate.shape]
    if not candidates:
        return frozenset()
    want_tall = predicate.which in ("tallest", "largest")
    rank = {"tall": 1, "short": 0}
    best = (max if want_tall else min)(
        candidates, key=lambda io: (rank[io[1].size], -io[0]))
    return frozenset([best[0]])


def _sample_specs(rng, predicate: Predicate) -> list[tuple[str, str, str]]:
    """One correct spec followed by four incorrect ones (size, color, shape)."""

    def random_spec():
        return (SIZES[rng.integers(2)], COLORS[rng.integers(4)],
                SHAPES[rng.integers(5)])

    specs = []
    if predicate.kind == "attrs":
        size = predicate.size or SIZES[rng.integers(2)]
        color = predicate.color or COLORS[rng.integers(4)]
        shape = predicate.shape or SHAPES[rng.integers(5)]
        specs.append((size, color, shape))
        while len(specs) < 5:
            cand = random_spec()
            if not predicate.matches_attrs(*cand):
                specs.append(cand)
        return specs

    want_tall = predicate.which in ("tallest", "largest")
    win_size = "tall" if want_tall else "short"
    lose_size = "short" if want_tall else "tall"
    specs.append((win_size, COLORS[rng.integers(4)], predicate.shape))
    if rng.random() < 0.5:
        # same-shape distractor of the losing size keeps the superlative
        # grounded in size, not just shape
        specs.append((lose_size, COLORS[rng.integers(4)], predicate.shape))
    while len(specs) < 5:
        cand = random_spec()
        if cand[2] == predicate.shape and cand[0] == win_size:
            continue  # would tie the superlative
        if cand[2] == predicate.shape and cand[0] == lose_size:
            continue  # at most one same-shape distractor
        specs.append(cand)
    return specs


def _frustum_cells(agent_pos, heading, min_forward=2):
    rows, cols = GRID_SIZE
    return [(i, j) for i in range(rows) for j in range(cols)
            if _view(agent_pos, heading, (i, j), min_forward) is not None]


def _pick_cells(rng, candidates, count, min_separation=2):
    """Greedy placement from a shuffled candidate list. Chebyshev spacing
    keeps each object out of the others' contact cells, but two objects
    two cells apart in a line share the contact cell between them."""
    order = rng.permutation(len(candidates))
    chosen: list[tuple[int, int]] = []
    for idx in order:
        cell = candidates[idx]
        if all(max(abs(cell[0] - c[0]), abs(cell[1] - c[1])) >= min_separation
               for c in chosen):
            chosen.append(cell)
            if len(chosen) == count:
                return chosen
    raise ValueError("grid too small to place 5 non-overlapping objects")


def reset(seed: int, difficulty: str, instruction: Instruction,
          render_hw: tuple[int, int]) -> tuple[WorldState, Observation]:
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    rng = _episode_rng(seed, difficulty, instruction)
    specs = _sample_specs(rng, instruction.predicate)

    if difficulty == "easy":
        agent_pos, heading = EASY_AGENT_POS, EASY_AGENT_HEADING
        slots = [(EASY_OBJECT_ROW, c) for c in EASY_OBJECT_COLS]
        order = rng.permutation(5)
        cells = [slots[k] for k in order]
    elif difficulty == "medium":
        agent_pos, heading = EASY_AGENT_POS, EASY_AGENT_HEADING
        candidates = _frustum_cells(agent_pos, heading)
        cells = _pick_cells(rng, candidates, 5)
    else:
        agent_pos = (int(rng.integers(GRID_SIZE[0])),
                     int(rng.integers(GRID_SIZE[1])))
        heading = HEADINGS[rng.integers(4)]
        candidates = [
            (i, j)
            for i in range(GRID_SIZE[0]) for j in range(GRID_SIZE[1])
            if max(abs(i - agent_pos[0]), abs(j - agent_pos[1])) >= 2
        ]
        cells = _pick_cells(rng, candidates, 5)

    objects = tuple(
        ObjectSpec(size=s, color=c, shape=sh, position=cell)
        for (s, c, sh), cell in zip(specs, cells))
    correct = _resolve_correct_ids(instruction.predicate, objects)
    if len(correct) != 1 or 0 not in correct:
        # spawner guarantees the first spec is the unique correct object
        raise AssertionError(
            f"spawn produced correct set {sorted(correct)} for "
            f"{instruction.text!r}")

    state = WorldState(
        agent_pos=agent_pos,
        agent_heading=heading,
        objects=objects,
        step_count=0,
        render_hw=render_hw,
    )
    return state, render(state)


def _contact_object(state: WorldState, pos) -> tuple[int, ...]:
    """Indices of the objects whose cell ``pos`` is in or 4-adjacent to;
    empty when ``pos`` touches nothing. Objects stand at least two cells
    apart (Chebyshev), so two indices mean ``pos`` is the gap between two
    objects, a tie that ``advance`` counts as wrong, whichever is correct."""
    hits: tuple[int, ...] = ()
    for i, obj in enumerate(state.objects):
        if abs(pos[0] - obj.position[0]) + abs(pos[1] - obj.position[1]) <= 1:
            hits += (i,)
    return hits


def advance(state: WorldState, action: str) -> tuple[WorldState, float, bool]:
    """Transition without rendering. Contact pays ``REWARD_CORRECT`` only
    when object 0, the correct object ``reset`` checked at spawn, is the
    only object touched."""
    if state.done:
        raise ValueError("step after episode end")
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}")

    heading = state.agent_heading
    pos = state.agent_pos
    if action == "turn_left":
        heading = _TURN_LEFT[heading]
    elif action == "turn_right":
        heading = _TURN_RIGHT[heading]
    else:
        dr, dc = _FORWARD[heading]
        cand = (pos[0] + dr, pos[1] + dc)
        if 0 <= cand[0] < GRID_SIZE[0] and 0 <= cand[1] < GRID_SIZE[1]:
            pos = cand

    steps = state.step_count + 1
    hits = _contact_object(state, pos)
    if hits:
        reward = REWARD_CORRECT if hits == (0,) else REWARD_INCORRECT
        done = True
    elif steps >= MAX_STEPS:
        reward, done = REWARD_TIMEOUT, True
    else:
        reward, done = 0.0, False

    new_state = dataclasses.replace(
        state, agent_pos=pos, agent_heading=heading, step_count=steps,
        done=done)
    return new_state, reward, done


# --------------------------------------------------------------------------
# Renderer
# --------------------------------------------------------------------------

def _iround(v: float) -> int:
    return int(math.floor(v + 0.5))


@lru_cache(maxsize=1024)
def _pattern_mask(shape: str, height: int, width: int) -> np.ndarray:
    """Read-only (height, width) bright-pixel mask, symmetric about the
    rectangle's vertical center. Memoized: renders keep asking for the same
    few hundred (shape, height, width) keys."""
    li = np.arange(height)[:, None]
    lj = np.arange(width)[None, :]
    off = np.floor(np.abs(lj - (width - 1) / 2.0)).astype(int)
    if shape == "pillar":
        mask = np.ones((height, width), dtype=bool)
    elif shape == "torch":
        mask = (off // 3) % 2 == 0
    elif shape == "keycard":
        mask = (li // 3) % 2 == 0
    elif shape == "skullkey":
        mask = (off // 3 + li // 3) % 2 == 0
    elif shape == "armor":
        b = max(2, min(height, width) // 4)
        mask = (li < b) | (li >= height - b) | (lj < b) | (lj >= width - b)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    # a plain array, not a broadcast view of one row or column
    mask = np.array(np.broadcast_to(mask, (height, width)))
    mask.flags.writeable = False
    return mask


def render(state: WorldState) -> Observation:
    """Perspective billboards: horizontal position from bearing, extent
    inversely proportional to distance, far-to-near painter's order."""
    h_px, w_px = state.render_hw
    img = np.full((3, h_px, w_px), _BACKGROUND)

    visible = []
    for obj in state.objects:
        view = _view(state.agent_pos, state.agent_heading, obj.position)
        if view is not None:
            forward, lateral = view
            visible.append((math.hypot(forward, lateral), lateral, forward, obj))
    visible.sort(key=lambda v: -v[0])  # farthest first

    base_h = h_px * 7.0 / 6.0
    base_w = float(h_px)
    for dist, lateral, forward, obj in visible:
        bearing = math.atan2(lateral, forward)  # radians in [-pi/4, pi/4]
        cx = _iround((0.5 + bearing / (math.pi / 2.0)) * w_px)
        cy = h_px // 2
        hh = max(1, _iround(base_h * _SIZE_MULT[obj.size] / dist / 2.0))
        hw = max(1, _iround(base_w / dist / 2.0))
        top, bot = cy - hh, cy + hh
        left, right = cx - hw, cx + hw
        t0, b0 = max(0, top), min(h_px, bot)
        l0, r0 = max(0, left), min(w_px, right)
        if t0 >= b0 or l0 >= r0:
            continue
        mask = _pattern_mask(obj.shape, bot - top, right - left)
        mask = mask[t0 - top:b0 - top, l0 - left:r0 - left]
        rgb = _COLOR_RGB[obj.color]
        for ch in range(3):
            plane = img[ch, t0:b0, l0:r0]
            plane[...] = np.where(mask, rgb[ch], rgb[ch] * _DIM)
    return Observation(image=Tensor(img))


# --------------------------------------------------------------------------
# Episode traces
# --------------------------------------------------------------------------

def trace_record(t: int, action: str, reward: float, done: bool,
                 state: WorldState) -> dict:
    return {
        "t": t,
        "action": action,
        "reward": reward,
        "done": done,
        "agent_pos": list(state.agent_pos),
        "heading": state.agent_heading,
    }
