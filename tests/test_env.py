import dataclasses
import math

import numpy as np
import pytest

from groundnav import gridnav
from groundnav.gridnav import (
    ACTIONS,
    EASY_AGENT_HEADING,
    EASY_AGENT_POS,
    EASY_OBJECT_COLS,
    EASY_OBJECT_ROW,
    MAX_STEPS,
    Corpus,
    Instruction,
    ObjectSpec,
    Predicate,
    WorldState,
    advance,
    build_corpus,
    corpus_to_text,
    instruction_from_text,
    render,
    reset,
    step,
)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(7)


class TestCorpus:
    def test_split_sizes(self, corpus):
        assert len(corpus.train) == 55
        assert len(corpus.test) == 15

    def test_deterministic(self, corpus):
        again = build_corpus(7)
        assert [i.text for i in again.train] == [i.text for i in corpus.train]
        assert [i.text for i in again.test] == [i.text for i in corpus.test]

    def test_different_seed_differs(self, corpus):
        other = build_corpus(8)
        assert [i.text for i in other.train] != [i.text for i in corpus.train]

    def test_test_predicates_unseen_in_train(self, corpus):
        train_preds = {i.predicate for i in corpus.train}
        for ins in corpus.test:
            assert ins.predicate not in train_preds

    def test_all_predicates_distinct(self, corpus):
        preds = [i.predicate for i in corpus.train + corpus.test]
        assert len(set(preds)) == 70

    def test_grammar_yields_enough(self):
        assert len(gridnav.all_instructions()) >= 70

    def test_serialization_roundtrip(self, corpus):
        lines = corpus_to_text(corpus).splitlines()
        split = lines.index("[test]")
        assert lines[0] == "[train]"
        parsed = Corpus(
            train=tuple(map(instruction_from_text, lines[1:split])),
            test=tuple(map(instruction_from_text, lines[split + 1:])))
        assert parsed == corpus

    def test_instruction_parsing(self):
        ins = instruction_from_text("go to the tall green pillar")
        assert ins.predicate == Predicate(kind="attrs", size="tall",
                                          color="green", shape="pillar")
        sup = instruction_from_text("  Go to THE\ttallest torch ")
        assert sup.predicate == Predicate(kind="superlative",
                                          which="tallest", shape="torch")
        for ins in gridnav.all_instructions():
            assert instruction_from_text(ins.text.upper()) == ins
        for bad in ("walk to the pillar", "go to the", "go to the object",
                    "go to the green tall pillar", "go to the tallest red torch",
                    "go to the tall green pillar now"):
            with pytest.raises(ValueError):
                instruction_from_text(bad)

    def test_unconstrained_predicate_rejected(self):
        with pytest.raises(ValueError):
            Predicate(kind="attrs")


class TestReset:
    def test_easy_fixed_pose(self, corpus):
        for seed in range(5):
            state, _ = reset(seed, "easy", corpus.train[seed])
            assert state.agent_pos == EASY_AGENT_POS
            assert state.agent_heading == EASY_AGENT_HEADING

    def test_easy_objects_on_line(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        cells = sorted(o.position for o in state.objects)
        assert cells == sorted((EASY_OBJECT_ROW, c) for c in EASY_OBJECT_COLS)

    def test_easy_objects_in_view(self, corpus):
        state, _ = reset(1, "easy", corpus.train[3])
        for obj in state.objects:
            assert gridnav._view(state.agent_pos, state.agent_heading,
                                 obj.position) is not None

    def test_medium_objects_in_view(self, corpus):
        for seed in range(8):
            state, _ = reset(seed, "medium", corpus.train[seed % 55])
            for obj in state.objects:
                assert gridnav._view(state.agent_pos, state.agent_heading,
                                     obj.position) is not None

    def test_hard_varies_agent_pose(self, corpus):
        poses = {reset(seed, "hard", corpus.train[0])[0].agent_pos
                 for seed in range(12)}
        assert len(poses) > 1

    def test_determinism(self, corpus):
        ins = corpus.train[10]
        a, _ = reset(99, "medium", ins)
        b, _ = reset(99, "medium", ins)
        assert a.agent_pos == b.agent_pos
        assert a.agent_heading == b.agent_heading
        assert a.objects == b.objects
        assert a.correct_ids == b.correct_ids

    def test_exactly_five_objects_one_correct(self, corpus):
        # advance counts every object within Manhattan distance 1 as
        # touched, with no nearest-first rule; that needs every start at
        # distance 2 or more from each object, and objects at least two
        # cells apart (Chebyshev)
        for seed in range(10):
            for difficulty in ("easy", "medium", "hard"):
                state, _ = reset(seed, difficulty, corpus.train[seed])
                assert len(state.objects) == 5
                assert len(state.correct_ids) == 1
                positions = [o.position for o in state.objects]
                ar, ac = state.agent_pos
                for k, (r, c) in enumerate(positions):
                    assert abs(r - ar) + abs(c - ac) >= 2
                    for r2, c2 in positions[k + 1:]:
                        assert max(abs(r - r2), abs(c - c2)) >= 2

    def test_correct_object_satisfies_predicate(self, corpus):
        for seed in range(20):
            ins = corpus.train[seed % 55]
            state, _ = reset(seed, "easy", ins)
            (cid,) = state.correct_ids
            obj = state.objects[cid]
            if ins.predicate.kind == "attrs":
                assert ins.predicate.matches_attrs(obj.size, obj.color,
                                                   obj.shape)
                others = [o for i, o in enumerate(state.objects) if i != cid]
                for o in others:
                    assert not ins.predicate.matches_attrs(o.size, o.color,
                                                           o.shape)
            else:
                assert obj.shape == ins.predicate.shape

    def test_superlative_resolution(self):
        tallest = instruction_from_text("go to the tallest torch")
        for seed in range(20):
            state, _ = reset(seed, "easy", tallest)
            (cid,) = state.correct_ids
            assert state.objects[cid].shape == "torch"
            assert state.objects[cid].size == "tall"
            same_shape = [o for o in state.objects if o.shape == "torch"]
            talls = [o for o in same_shape if o.size == "tall"]
            assert len(talls) == 1
        shortest = instruction_from_text("go to the shortest armor")
        state, _ = reset(3, "easy", shortest)
        (cid,) = state.correct_ids
        assert state.objects[cid].size == "short"

    def test_unknown_difficulty(self, corpus):
        with pytest.raises(ValueError):
            reset(0, "extreme", corpus.train[0])

    def test_reset_reward_and_done(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        assert state.done is False


class TestStep:
    def test_four_left_turns_identity(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        heading = state.agent_heading
        for _ in range(4):
            state, _, done = advance(state, "turn_left")
            assert not done
        assert state.agent_heading == heading

    def test_left_right_cancel(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        s1, _, _ = advance(state, "turn_left")
        s2, _, _ = advance(s1, "turn_right")
        assert s2.agent_heading == state.agent_heading

    def test_forward_moves_one_cell(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        nxt, _, _ = advance(state, "move_forward")
        assert nxt.agent_pos == (state.agent_pos[0] - 1, state.agent_pos[1])

    def test_wall_blocks(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        state, _, _ = advance(state, "turn_left")
        state, _, _ = advance(state, "turn_left")  # facing south, wall behind
        nxt, _, _ = advance(state, "move_forward")
        assert nxt.agent_pos == state.agent_pos

    def test_reaching_correct_object(self, corpus):
        ins = corpus.train[0]
        state, _ = reset(0, "easy", ins)
        (cid,) = state.correct_ids
        target = state.objects[cid].position
        # stand directly below the object, then step into the contact cell
        state = dataclasses.replace(state, agent_pos=(target[0] + 2, target[1]),
                                    agent_heading="N")
        state, reward, done = advance(state, "move_forward")
        assert done and reward == 1.0

    def test_reaching_incorrect_object(self, corpus):
        ins = corpus.train[0]
        state, _ = reset(0, "easy", ins)
        (cid,) = state.correct_ids
        wrong = next(i for i in range(5) if i != cid)
        target = state.objects[wrong].position
        state = dataclasses.replace(state, agent_pos=(target[0] + 2, target[1]),
                                    agent_heading="N")
        state, reward, done = advance(state, "move_forward")
        assert done and reward == -0.2

    def test_tied_contact_is_wrong(self, corpus):
        # the gap between the correct object and a neighbour touches both
        ins = corpus.train[0]
        state, _ = reset(0, "easy", ins)
        (cid,) = state.correct_ids
        row, col = state.objects[cid].position
        gap = (row, col + 1 if col < EASY_OBJECT_COLS[-1] else col - 1)
        state = dataclasses.replace(state, agent_pos=(row + 1, gap[1]),
                                    agent_heading="N")
        state, reward, done = advance(state, "move_forward")
        assert state.agent_pos == gap
        assert done and reward == gridnav.REWARD_INCORRECT

    def test_instruction_blind_gap_script_never_rewarded(self, corpus):
        # every episode of this script ends in the gap at (5, 5), beside
        # the objects in slots (5, 4) and (5, 6)
        script = ["turn_left"] + ["move_forward"] * 3 + ["turn_right"]
        correct = 0
        for seed in range(400):
            state, _ = reset(seed, "easy", corpus.train[seed % 55])
            t = 0
            done = False
            while not done:
                action = script[t] if t < len(script) else "move_forward"
                state, reward, done = advance(state, action)
                t += 1
            assert state.agent_pos == (5, 5)
            correct += reward == gridnav.REWARD_CORRECT
        assert correct == 0

    def test_timeout_after_30_steps(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        # spinning never contacts anything
        for i in range(MAX_STEPS):
            state, reward, done = advance(state, "turn_left")
        assert done and reward == 0.0 and state.step_count == MAX_STEPS

    def test_step_after_done_raises(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        for _ in range(MAX_STEPS):
            state, _, done = advance(state, "turn_right")
        assert done
        with pytest.raises(ValueError):
            advance(state, "turn_right")

    def test_unknown_action(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        with pytest.raises(ValueError):
            advance(state, "strafe_left")

    def test_per_step_reward_zero_until_termination(self, corpus):
        rng = np.random.default_rng(17)
        for ep in range(30):
            ins = corpus.train[int(rng.integers(55))]
            state, _ = reset(int(rng.integers(10_000)), "easy", ins)
            rewards = []
            while True:
                state, reward, done = advance(
                    state, ACTIONS[int(rng.integers(3))])
                rewards.append(reward)
                if done:
                    break
            assert all(r == 0.0 for r in rewards[:-1])
            assert rewards[-1] in (1.0, -0.2, 0.0)
            assert len(rewards) <= MAX_STEPS

    def test_step_returns_observation(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        nxt, obs = step(state, "move_forward")
        assert obs.image.shape == (3, 48, 64)
        assert (obs.image.data == render(nxt).image.data).all()

    def test_trace_record_fields(self, corpus):
        state, _ = reset(0, "easy", corpus.train[0])
        state, reward, done = advance(state, "move_forward")
        rec = gridnav.trace_record(0, "move_forward", reward, done, state)
        assert set(rec) == {"t", "action", "reward", "done", "agent_pos",
                            "heading"}


def _blank_state(render_hw=(48, 64)):
    """Hand-built state with every object behind the agent."""
    objs = tuple(
        ObjectSpec(color="red", shape="pillar", size="tall", position=(11, c))
        for c in (0, 2, 4, 6, 8))
    ins = instruction_from_text("go to the red pillar")
    return WorldState(
        agent_pos=(0, 8), agent_heading="N",
        objects=objs, correct_ids=frozenset([0]), step_count=0,
        instruction=ins, render_hw=render_hw)


class TestRender:
    def test_empty_frustum_uniform_background(self):
        obs = render(_blank_state())
        img = obs.image.data
        assert img.shape == (3, 48, 64)
        assert (img == img[0, 0, 0]).all()

    @pytest.mark.parametrize("shape", gridnav.SHAPES)
    def test_dead_ahead_symmetric(self, shape):
        objs = (ObjectSpec(color="green", shape=shape, size="tall",
                           position=(4, 8)),)
        base = _blank_state()
        state = dataclasses.replace(base, agent_pos=(10, 8),
                                    agent_heading="N", objects=objs,
                                    correct_ids=frozenset([0]))
        img = render(state).image.data
        np.testing.assert_array_equal(img, img[:, :, ::-1])
        assert (img != img[0, 0, 0]).any()  # the object is actually drawn

    def test_double_distance_halves_height(self):
        base = _blank_state()

        def drawn_height(dist):
            objs = (ObjectSpec(color="blue", shape="pillar", size="short",
                               position=(10 - dist, 8)),)
            state = dataclasses.replace(base, agent_pos=(10, 8),
                                        agent_heading="N", objects=objs,
                                        correct_ids=frozenset([0]))
            img = render(state).image.data
            cols = np.where((img != 0.5).any(axis=(0, 2)))[0]
            return cols.size

        h_near = drawn_height(3)
        h_far = drawn_height(6)
        # projection oracle: height = base / distance
        assert abs(h_far - h_near / 2) <= 1

    def test_size_attribute_doubles_height(self):
        base = _blank_state()

        def height(size):
            objs = (ObjectSpec(color="red", shape="pillar", size=size,
                               position=(4, 8)),)
            state = dataclasses.replace(base, agent_pos=(10, 8),
                                        agent_heading="N", objects=objs,
                                        correct_ids=frozenset([0]))
            img = render(state).image.data
            rows = np.where((img != 0.5).any(axis=(0, 2)))[0]
            return rows.size

        assert abs(height("tall") - 2 * height("short")) <= 2

    def test_nearer_occludes_farther(self):
        base = _blank_state()
        near = ObjectSpec(color="red", shape="pillar", size="tall",
                          position=(7, 8))
        far = ObjectSpec(color="green", shape="pillar", size="tall",
                         position=(3, 8))
        state = dataclasses.replace(base, agent_pos=(10, 8),
                                    agent_heading="N", objects=(far, near),
                                    correct_ids=frozenset([0]))
        img = render(state).image.data
        center = img[:, 24, 32]
        assert center[0] > center[1]  # red wins the shared pixels

    def test_bearing_controls_horizontal_position(self):
        base = _blank_state()

        def x_center(col):
            objs = (ObjectSpec(color="red", shape="pillar", size="tall",
                               position=(4, col)),)
            state = dataclasses.replace(base, agent_pos=(10, 8),
                                        agent_heading="N", objects=objs,
                                        correct_ids=frozenset([0]))
            img = render(state).image.data
            cols = np.where((img != 0.5).any(axis=(0, 1)))[0]
            return cols.mean()

        assert x_center(4) < x_center(8) < x_center(12)

    @pytest.mark.parametrize("shape", gridnav.SHAPES)
    def test_cached_mask_read_only(self, shape):
        mask = gridnav._pattern_mask(shape, 11, 7)
        assert gridnav._pattern_mask(shape, 11, 7) is mask
        assert not mask.flags.writeable
        assert mask.shape == (11, 7) and 0 not in mask.strides
        np.testing.assert_array_equal(
            mask, gridnav._pattern_mask.__wrapped__(shape, 11, 7))

    def test_values_in_unit_range(self, corpus):
        for seed in range(5):
            _, obs = reset(seed, "medium", corpus.train[seed])
            img = obs.image.data
            assert img.min() >= 0.0 and img.max() <= 1.0


class TestDeterminism:
    def test_bit_identical_replay(self, corpus):
        ins = corpus.train[7]
        rng = np.random.default_rng(5)
        actions = [ACTIONS[int(rng.integers(3))] for _ in range(MAX_STEPS)]

        def run():
            state, obs = reset(21, "hard", ins)
            images = [obs.image.data.tobytes()]
            rewards = []
            for a in actions:
                state, reward, done = advance(state, a)
                images.append(render(state).image.data.tobytes())
                rewards.append(reward)
                if done:
                    break
            return images, rewards

        img1, rew1 = run()
        img2, rew2 = run()
        assert img1 == img2
        assert rew1 == rew2


class TestRandomPolicyBaseline:
    def test_easy_accuracy_below_quarter(self, corpus):
        # Monte-Carlo oracle; the full 10,000-episode run lives in the
        # acceptance suite
        rng = np.random.default_rng(0)
        wins = 0
        episodes = 2000
        for _ in range(episodes):
            ins = corpus.train[int(rng.integers(55))]
            state, _ = reset(int(rng.integers(2 ** 31)), "easy", ins)
            while True:
                state, reward, done = advance(
                    state, ACTIONS[int(rng.integers(3))])
                if done:
                    wins += reward == 1.0
                    break
        assert wins / episodes < 0.25
