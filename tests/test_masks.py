"""Chunk mask construction, dynamic sampling, and rendering."""

import numpy as np
import pytest

from chunkmel import masks, tensor


def row_set(mask, q):
    return set(np.flatnonzero(mask.permitted[q]))


class TestStaticMask:
    def test_past_one_enumeration(self):
        # T=4, S_c=2, S_p=1: first chunk sees itself, second chunk sees
        # one frame before its start plus itself.
        m = masks.build_static_mask(4, 2, 1)
        assert row_set(m, 0) == {0, 1}
        assert row_set(m, 1) == {0, 1}
        assert row_set(m, 2) == {1, 2, 3}
        assert row_set(m, 3) == {1, 2, 3}

    def test_single_chunk_all_true(self):
        m = masks.build_static_mask(3, 5, 0)
        assert m.permitted.shape == (3, 3)
        assert np.all(m.permitted)

    def test_all_history_enumeration(self):
        m = masks.build_static_mask(6, 2, masks.ALL)
        assert row_set(m, 5) == {0, 1, 2, 3, 4, 5}
        assert row_set(m, 1) == {0, 1}

    def test_rows_within_chunk_identical(self):
        m = masks.build_static_mask(17, 5, 3)
        for start in range(0, 17, 5):
            end = min(start + 5, 17)
            block = m.permitted[start:end]
            assert np.array_equal(block, np.broadcast_to(block[0], block.shape))

    def test_zero_past_block_diagonal(self):
        m = masks.build_static_mask(12, 4, 0)
        expect = np.zeros((12, 12), dtype=bool)
        for start in range(0, 12, 4):
            expect[start : start + 4, start : start + 4] = True
        assert np.array_equal(m.permitted, expect)

    def test_no_future_chunks_visible(self):
        for t, c, p in [(13, 3, 2), (9, 4, masks.ALL), (10, 1, 100)]:
            m = masks.build_static_mask(t, c, p)
            for q in range(t):
                chunk_end = (q // c + 1) * c
                keys = np.flatnonzero(m.permitted[q])
                assert keys.max() < chunk_end

    def test_every_row_nonempty(self):
        for t, c, p in [(1, 1, 0), (7, 3, 0), (11, 4, 2)]:
            m = masks.build_static_mask(t, c, p)
            assert np.all(m.permitted.sum(axis=1) >= 1)

    def test_past_monotonicity(self):
        prev = masks.build_static_mask(20, 6, 0).permitted
        for p in (1, 3, 6, 11, 19, 100):
            cur = masks.build_static_mask(20, 6, p).permitted
            assert np.all(prev <= cur)
            prev = cur

    def test_all_equals_causal_by_chunk(self):
        t, c = 14, 4
        m = masks.build_static_mask(t, c, masks.ALL)
        for q in range(t):
            chunk_end = min((q // c + 1) * c, t)
            assert row_set(m, q) == set(range(chunk_end))

    def test_partial_last_chunk_counts_past_from_chunk_start(self):
        # T=10, S_c=4: last chunk is frames {8,9}; with S_p=3 it sees
        # keys from 8-3=5 through 9.
        m = masks.build_static_mask(10, 4, 3)
        assert row_set(m, 9) == {5, 6, 7, 8, 9}

    def test_permitted_is_read_only(self):
        m = masks.build_static_mask(4, 2, 1)
        with pytest.raises(ValueError):
            m.permitted[0, 3] = True

    def test_chunk_mask_is_its_sizes(self):
        m = masks.ChunkMask(chunk_size=2, past_size=1, total_frames=4)
        assert m == masks.build_static_mask(4, 2, 1)
        # the matrix is derived on first read, once, and cannot be edited
        assert "permitted" not in vars(m)
        assert m.permitted is m.permitted
        assert not m.permitted.flags.writeable
        for chunk, past, frames in [(2, 1, 0), (0, 1, 4), (2, -1, 4), (2, "sometimes", 4), (2, 1.5, 4)]:
            with pytest.raises(ValueError):
                masks.ChunkMask(chunk, past, frames)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            masks.build_static_mask(0, 2, 1)
        with pytest.raises(ValueError):
            masks.build_static_mask(4, 0, 1)
        with pytest.raises(ValueError):
            masks.build_static_mask(4, 2, -1)
        with pytest.raises(ValueError):
            masks.build_static_mask(4, 2, "sometimes")


class TestDynamicSampling:
    def test_degenerate_policy_is_static(self):
        policy = masks.DynamicMaskPolicy(chunk_range=(3, 3), past_multipliers=(1,))
        rng = np.random.default_rng(7)
        drawn = masks.sample_dynamic_mask(11, policy, rng)
        ref = masks.build_static_mask(11, 3, 3)
        assert np.array_equal(drawn.permitted, ref.permitted)
        assert (drawn.chunk_size, drawn.past_size) == (3, 3)

    def test_fractional_multiplier_floors(self):
        policy = masks.DynamicMaskPolicy(chunk_range=(30, 30), past_multipliers=(0.25,))
        drawn = masks.sample_dynamic_mask(60, policy, np.random.default_rng(0))
        assert drawn.past_size == 7
        policy = masks.DynamicMaskPolicy(chunk_range=(5, 5), past_multipliers=(0.5,))
        assert masks.sample_dynamic_mask(10, policy, np.random.default_rng(0)).past_size == 2

    def test_all_multiplier(self):
        policy = masks.DynamicMaskPolicy(chunk_range=(2, 2), past_multipliers=(masks.ALL,))
        drawn = masks.sample_dynamic_mask(6, policy, np.random.default_rng(1))
        assert drawn.past_size == masks.ALL
        assert np.array_equal(
            drawn.permitted, masks.build_static_mask(6, 2, masks.ALL).permitted
        )

    def test_chunk_size_histogram_uniform(self):
        # 10^4 draws; each of the 50 chunk sizes should land within 3
        # sigma of the binomial expectation (n=10^4, p=1/50).
        policy = masks.DynamicMaskPolicy()
        rng = np.random.default_rng(12345)
        n = 10_000
        counts = np.zeros(51, dtype=int)
        for _ in range(n):
            m = masks.sample_dynamic_mask(4, policy, rng)
            counts[m.chunk_size] += 1
        p = 1.0 / 50.0
        sigma = np.sqrt(n * p * (1 - p))
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - n * p) <= 3 * sigma)

    def test_multiplier_histogram_uniform(self):
        # Chunk sizes >= 4 make every multiplier recoverable from
        # (chunk, past): 0, floor(c/4), floor(c/2), c, 2c, 3c are
        # pairwise distinct there.
        policy = masks.DynamicMaskPolicy(chunk_range=(4, 50))
        rng = np.random.default_rng(999)
        n = 10_000
        counts = dict.fromkeys(policy.past_multipliers, 0)
        for _ in range(n):
            m = masks.sample_dynamic_mask(4, policy, rng)
            if m.past_size == masks.ALL:
                counts[masks.ALL] += 1
                continue
            c = m.chunk_size
            inverse = {0: 0, c // 4: 0.25, c // 2: 0.5, c: 1, 2 * c: 2, 3 * c: 3}
            counts[inverse[m.past_size]] += 1
        # Multiplier 0 absorbs nothing extra at c >= 4, so all seven
        # cells are exact; each is binomial(n, 1/7).
        p = 1.0 / 7.0
        sigma = np.sqrt(n * p * (1 - p))
        for mult, got in counts.items():
            assert abs(got - n * p) <= 3 * sigma, (mult, got)

    def test_seeded_draws_reproducible(self):
        policy = masks.DynamicMaskPolicy()

        def draw_sequence():
            rng = np.random.default_rng(42)
            return [
                (m.chunk_size, m.past_size)
                for m in (masks.sample_dynamic_mask(8, policy, rng) for _ in range(20))
            ]

        assert draw_sequence() == draw_sequence()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            masks.DynamicMaskPolicy(chunk_range=(0, 5))
        with pytest.raises(ValueError):
            masks.DynamicMaskPolicy(chunk_range=(6, 5))
        with pytest.raises(ValueError):
            masks.DynamicMaskPolicy(past_multipliers=())
        for bad in ("x", -1, float("nan"), float("inf"), True, None):
            with pytest.raises(ValueError, match="past_multipliers"):
                masks.DynamicMaskPolicy(past_multipliers=(1, bad))


class TestRendering:
    def test_ascii_enumeration(self):
        m = masks.build_static_mask(4, 2, 1)
        assert m.ascii() == "##..\n##..\n.###\n.###"

    def test_pgm_layout(self):
        m = masks.build_static_mask(4, 2, 1)
        data = m.pgm()
        header, pixels = data.split(b"\n255\n", 1)
        assert header == b"P5\n4 4"
        assert len(pixels) == 16
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(img == 0, m.permitted)
        assert set(np.unique(img)) <= {0, 255}


def static_family():
    """Masks over T 1-1000, chunk 1-50 and past 0, 1, c/2, c, 2c+1, 100, ALL."""
    for t in (1, 7, 37, 100, 333, 1000):
        for c in (1, 2, 5, 16, 31, 32, 50):
            for p in sorted({0, 1, c // 2, c, 2 * c + 1, 100}) + [masks.ALL]:
                yield masks.build_static_mask(t, c, p)


class TestKeyGroups:
    @pytest.mark.parametrize(
        "mask",
        [masks.build_static_mask(t, c, p) for t, c, p in
         [(1, 1, 0), (37, 1, 2), (47, 6, 5), (100, 4, masks.ALL), (96, 30, 15), (120, 50, 150), (90, 30, 0)]]
        + list(static_family()),
    )
    def test_groups_partition_rows_and_cover_every_permitted_key(self, mask):
        perm = mask.permitted
        rows = np.zeros(mask.total_frames, dtype=int)
        covered = 0
        for g in mask.key_groups:
            rows[g.row : g.row + g.count * g.rows] += 1
            cells = tensor.windows(perm, (g.row, g.key), (g.rows, g.rows), g.count, (g.rows, g.width))
            covered += np.count_nonzero(cells)
            # a slice of at most one chunk sees its whole window, a longer block does not
            assert bool(cells.all()) == (g.rows <= mask.chunk_size)
        assert (rows == 1).all()
        assert covered == np.count_nonzero(perm)

    def test_repeating_windows_form_one_batched_group(self):
        # chunk 0 sees 30 keys, chunks 1..32 see 45, the 10-frame tail 25
        groups = masks.build_static_mask(1000, 30, 15).key_groups
        assert [tuple(g) for g in groups] == [(0, 30, 1, 0, 30), (30, 30, 32, 15, 45), (990, 10, 1, 975, 25)]

    def test_windows_that_do_not_repeat_fall_back_to_blocks(self):
        # past ALL: blocks of 32 one-frame chunks over their union of keys
        groups = masks.build_static_mask(100, 1, masks.ALL).key_groups
        assert [(g.row, g.rows, g.count, g.width) for g in groups] == [
            (0, 32, 1, 32), (32, 32, 1, 64), (64, 32, 1, 96), (96, 4, 1, 100)
        ]
        # chunks of ATTENTION_BLOCK_ROWS frames or more each run alone
        groups = masks.build_static_mask(300, 50, 100).key_groups
        assert all(g.count == 1 and g.rows == 50 for g in groups)

    def test_groups_are_derived_lazily_once(self):
        mask = masks.build_static_mask(60, 6, 3)
        assert "key_groups" not in vars(mask)
        assert mask.key_groups is mask.key_groups
        with pytest.raises(AttributeError):
            mask.chunk_size = 3
