"""Layer pooling/pairing/fusion and the hidden-state container."""

import re
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from iben import bertfuse
from iben.bertfuse import (
    BadMagicError,
    DimensionOverflowError,
    HsFileError,
    LayerPairing,
    LayerStack,
    TruncatedPayloadError,
    adjacent_pairing,
    fuse,
    listed_pairing,
    pseudo_encode,
    read_hs_file,
    select_layers,
    uniform_weights,
    write_hs_file,
)
from iben.corpus import pad_truncate
from iben.errors import DataFormatError


def random_stack(rng, n_layers=4, seq_len=3, hidden=5, id=""):
    return LayerStack(rng.normal(size=(n_layers, seq_len, hidden)), id=id)


def brute_fuse(data, pairs, weights, mode):
    """Scalar-loop recomputation of fuse() straight from its definition."""
    _, seq_len, hidden = data.shape
    rows = []
    for (high, low), alpha in zip(pairs, weights):
        row = []
        for layer_idx in (high, low):
            layer = data[layer_idx - 1]
            row += [sum(layer[t][d] for t in range(seq_len)) / seq_len
                    for d in range(hidden)]
            row += [max(layer[t][d] for t in range(seq_len))
                    for d in range(hidden)]
        rows.append([alpha * v for v in row])
    if mode == "summed":
        rows = [[sum(col) for col in zip(*rows)]]
    return np.array(rows)


class TestLayerStack:
    def test_shape_properties(self):
        s = LayerStack(np.zeros((4, 3, 8)))
        assert (s.n_layers, s.seq_len, s.hidden) == (4, 3, 8)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3-D"):
            LayerStack(np.zeros((4, 3)))

    def test_rejects_empty_token_axis(self):
        with pytest.raises(ValueError, match="token"):
            LayerStack(np.zeros((4, 0, 8)))

    def test_rejects_non_finite(self):
        data = np.zeros((2, 2, 2))
        data[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LayerStack(data, id="bad")


def pooled_block(stack, layer):
    """The block fuse lays down for one layer: the first half of a row that
    pairs it first."""
    partner = 2 if layer == 1 else 1
    row = fuse(stack, LayerPairing(((layer, partner),)), [1.0]).data[0]
    return row[:2 * stack.hidden]


class TestPoolLayer:
    """fuse pools each layer over its tokens: the mean block, then the max block."""

    def test_two_token_example(self):
        stack = LayerStack(np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]]))
        npt.assert_array_equal(pooled_block(stack, 1), [2.0, 3.0, 3.0, 4.0])

    def test_single_token_avg_equals_max(self):
        rng = np.random.default_rng(0)
        stack = random_stack(rng, n_layers=2, seq_len=1, hidden=6)
        pooled = pooled_block(stack, 2)
        npt.assert_array_equal(pooled[:6], stack.data[1, 0])
        npt.assert_array_equal(pooled[6:], stack.data[1, 0])

    def test_zero_layer(self):
        stack = LayerStack(np.zeros((2, 4, 3)))
        npt.assert_array_equal(fuse(stack, adjacent_pairing(2), [1.0]).data, np.zeros((1, 12)))

    def test_layer_index_bounds(self):
        stack = LayerStack(np.zeros((2, 2, 2)))
        for bad in (0, 3, -1):
            with pytest.raises(ValueError, match="outside|1-based"):
                fuse(stack, LayerPairing(((bad, 1),)), [1.0])

    def test_bounds_invariant(self):
        """AVG within per-dimension [min, max]; MAX dominates AVG."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            stack = random_stack(rng, n_layers=3, seq_len=int(rng.integers(1, 7)),
                                 hidden=int(rng.integers(1, 9)))
            layer = int(rng.integers(1, 4))
            pooled = pooled_block(stack, layer)
            h = stack.hidden
            data = stack.data[layer - 1]
            assert np.all(pooled[:h] >= data.min(axis=0) - 1e-12)
            assert np.all(pooled[:h] <= data.max(axis=0) + 1e-12)
            assert np.all(pooled[h:] >= pooled[:h] - 1e-12)

    def test_token_permutation_invariance(self):
        rng = np.random.default_rng(3)
        stack = random_stack(rng, n_layers=2, seq_len=6, hidden=4)
        shuffled = LayerStack(stack.data[:, rng.permutation(6), :])
        base = fuse(stack, adjacent_pairing(2), [1.0]).data[0]
        moved = fuse(shuffled, adjacent_pairing(2), [1.0]).data[0]
        for mean_block in (slice(0, 4), slice(8, 12)):
            # the mean block reorders its summation, so allow rounding noise
            npt.assert_allclose(moved[mean_block], base[mean_block], atol=1e-14)
        for max_block in (slice(4, 8), slice(12, 16)):
            npt.assert_array_equal(moved[max_block], base[max_block])


class TestPairConcat:
    """A fused row holds the pooled block of its pair's first layer, then the second's."""

    def test_high_block_first(self):
        stack = LayerStack(np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]]]))
        out = fuse(stack, adjacent_pairing(2), [1.0]).data
        npt.assert_array_equal(out, [[2, 3, 3, 4, 0, 0, 0, 0]])

    def test_identical_inputs(self):
        layer = np.arange(6.0).reshape(2, 3)
        out = fuse(LayerStack(np.stack([layer, layer])), adjacent_pairing(2), [1.0]).data
        pooled = np.concatenate([layer.mean(axis=0), layer.max(axis=0)])
        npt.assert_array_equal(out, [np.concatenate([pooled, pooled])])

    def test_hidden_1024_gives_4096(self):
        stack = LayerStack(np.ones((2, 3, 1024)))
        assert fuse(stack, adjacent_pairing(2), [1.0]).data.shape == (1, 4096)


class TestPairings:
    def test_adjacent_puts_higher_layer_first(self):
        assert adjacent_pairing(6).pairs == ((2, 1), (4, 3), (6, 5))

    def test_listed_pairs_in_listed_order(self):
        assert listed_pairing(4).pairs == ((1, 2), (3, 4))

    @pytest.mark.parametrize("builder", [adjacent_pairing, listed_pairing])
    def test_odd_count_rejected(self, builder):
        with pytest.raises(ValueError, match="even"):
            builder(5)

    def test_reused_index_rejected(self):
        with pytest.raises(ValueError, match="reuses"):
            LayerPairing(((2, 1), (3, 2)))

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            LayerPairing(((1, 0),))

    def test_empty_pairing_rejected(self):
        with pytest.raises(ValueError, match="at least one pair"):
            LayerPairing(())

    def test_uniform_weights(self):
        assert uniform_weights(3) == [1.0, 1.0, 1.0]


class TestFuse:
    def test_full_24_layer_shape(self):
        rng = np.random.default_rng(7)
        stack = random_stack(rng, n_layers=24, seq_len=3, hidden=1024)
        fused = fuse(stack, adjacent_pairing(24), uniform_weights(12))
        assert (fused.rows, fused.cols) == (12, 4096)

    def test_summed_mode_adds_the_rows(self):
        rng = np.random.default_rng(8)
        stack = random_stack(rng, n_layers=4, seq_len=2, hidden=3)
        pairing = adjacent_pairing(4)
        per_row = fuse(stack, pairing, [1.0, 1.0], mode="layer_sequence")
        summed = fuse(stack, pairing, [1.0, 1.0], mode="summed")
        assert summed.rows == 1
        npt.assert_allclose(summed.data[0], per_row.data.sum(axis=0), atol=1e-12)

    def test_zero_weights_give_zero_matrix(self):
        rng = np.random.default_rng(9)
        stack = random_stack(rng)
        fused = fuse(stack, adjacent_pairing(4), [0.0, 0.0])
        assert not fused.data.any()

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(101)
        for trial in range(120):
            n_layers = 2 * int(rng.integers(1, 4))
            stack = random_stack(rng, n_layers=n_layers,
                                 seq_len=int(rng.integers(1, 6)),
                                 hidden=int(rng.integers(1, 9)))
            order = [int(i) + 1 for i in rng.permutation(n_layers)]
            pairs = tuple((order[i], order[i + 1]) for i in range(0, n_layers, 2))
            weights = rng.normal(size=len(pairs)).tolist()
            mode = "summed" if trial % 3 == 0 else "layer_sequence"
            got = fuse(stack, LayerPairing(pairs), weights, mode=mode).data
            want = brute_fuse(stack.data, pairs, weights, mode)
            npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(12)
        stack = random_stack(rng, n_layers=6)
        pairing = adjacent_pairing(6)
        alpha = rng.normal(size=3)
        c = float(rng.normal())
        base = fuse(stack, pairing, alpha.tolist()).data
        scaled = fuse(stack, pairing, (c * alpha).tolist()).data
        npt.assert_allclose(scaled, c * base, atol=1e-12)

    def test_weight_count_mismatch(self):
        stack = LayerStack(np.zeros((4, 2, 2)))
        with pytest.raises(ValueError, match="weights"):
            fuse(stack, adjacent_pairing(4), [1.0])

    def test_pair_index_beyond_stack(self):
        stack = LayerStack(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="outside"):
            fuse(stack, LayerPairing(((4, 3),)), [1.0])

    def test_unknown_mode(self):
        stack = LayerStack(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="mode"):
            fuse(stack, adjacent_pairing(2), [1.0], mode="mean")


class TestSelectLayers:
    def test_boundary_selection_gives_two_fused_rows(self):
        rng = np.random.default_rng(20)
        stack = random_stack(rng, n_layers=24, seq_len=2, hidden=3)
        sub = select_layers(stack, (1, 2, 23, 24))
        assert sub.n_layers == 4
        npt.assert_array_equal(sub.data[2], stack.data[22])
        fused = fuse(sub, listed_pairing(4), uniform_weights(2))
        assert fused.rows == 2

    def test_eight_layer_selection_gives_four_rows(self):
        rng = np.random.default_rng(21)
        stack = random_stack(rng, n_layers=24, seq_len=2, hidden=3)
        sub = select_layers(stack, (1, 2, 3, 4, 24, 23, 22, 21))
        fused = fuse(sub, listed_pairing(8), uniform_weights(4))
        assert (sub.n_layers, fused.rows) == (8, 4)

    def test_listed_order_is_preserved(self):
        rng = np.random.default_rng(22)
        stack = random_stack(rng, n_layers=5, seq_len=1, hidden=2)
        sub = select_layers(stack, (4, 1))
        npt.assert_array_equal(sub.data, stack.data[[3, 0]])

    def test_minimal_pair(self):
        stack = LayerStack(np.ones((3, 2, 2)))
        fused = fuse(select_layers(stack, (1, 2)), listed_pairing(2), [1.0])
        assert fused.rows == 1

    def test_odd_count_rejected(self):
        stack = LayerStack(np.zeros((4, 1, 1)))
        with pytest.raises(ValueError, match="even"):
            select_layers(stack, (1, 2, 3))

    def test_duplicate_rejected(self):
        stack = LayerStack(np.zeros((4, 1, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            select_layers(stack, (1, 1))

    def test_out_of_range_rejected(self):
        stack = LayerStack(np.zeros((4, 1, 1)))
        with pytest.raises(ValueError, match="outside"):
            select_layers(stack, (1, 5))


class TestHsFile:
    def float32_stack(self, rng, **kw):
        s = random_stack(rng, **kw)
        return LayerStack(s.data.astype(np.float32), id=s.id)

    def test_round_trip_three_stacks(self, tmp_path):
        rng = np.random.default_rng(30)
        stacks = [self.float32_stack(rng, seq_len=n + 1, id=f"s{n}")
                  for n in range(3)]
        path = tmp_path / "a.hs"
        write_hs_file(stacks, path)
        back = read_hs_file(path)
        assert [s.id for s in back] == ["s0", "s1", "s2"]
        for orig, rt in zip(stacks, back):
            npt.assert_array_equal(rt.data, orig.data)

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.hs"
        write_hs_file([], path)
        assert read_hs_file(path) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hs"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            read_hs_file(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(31)
        path = tmp_path / "t.hs"
        write_hs_file([self.float32_stack(rng, id="x")], path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_hs_file(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "z.hs"
        header = (b"IBENHS1\x00" + struct.pack("<I", 1)
                  + struct.pack("<I", 1) + b"q"
                  + struct.pack("<III", 1, 0, 1))
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError, match="zero"):
            read_hs_file(path)

    def test_absurd_dimensions_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.hs"
        header = (b"IBENHS1\x00" + struct.pack("<I", 1)
                  + struct.pack("<I", 1) + b"q"
                  + struct.pack("<III", 70000, 70000, 70000))
        path.write_bytes(header)
        with pytest.raises(DimensionOverflowError):
            read_hs_file(path)

    def test_payload_longer_than_the_file_rejected_before_reading(self, tmp_path):
        """2048^3 values pass the element cap; the 96-byte file cannot hold them."""
        path = tmp_path / "short.hs"
        header = (b"IBENHS1\x00" + struct.pack("<I", 1)
                  + struct.pack("<I", 1) + b"q"
                  + struct.pack("<III", 2048, 2048, 2048))
        path.write_bytes(header.ljust(96, b"\x00"))
        with pytest.raises(TruncatedPayloadError, match=r"short\.hs: record index 0 \('q'\)"):
            read_hs_file(path)

    def test_id_length_beyond_the_file_rejected_before_reading(self, tmp_path):
        path = tmp_path / "long_id.hs"
        path.write_bytes(b"IBENHS1\x00" + struct.pack("<I", 1)
                         + struct.pack("<I", 0x7FFFFFFF) + b"q")
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError,
                               match=r"long_id\.hs: record index 0: file ends inside the id "
                                     r"\(2147483647 bytes declared, 1 left\)$"):
                read_hs_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_every_cut_names_the_file_and_the_record(self, tmp_path):
        rng = np.random.default_rng(33)
        whole = tmp_path / "whole.hs"
        write_hs_file([self.float32_stack(rng, id="a"), self.float32_stack(rng, id="bb")],
                      whole)
        raw = whole.read_bytes()
        path = tmp_path / "cut.hs"
        for keep in range(12, len(raw)):  # past the magic and the record count
            path.write_bytes(raw[:keep])
            with pytest.raises(TruncatedPayloadError) as caught:
                read_hs_file(path)
            assert re.match(rf"{re.escape(str(path))}: record index [01]\b.*: file ends "
                            r"inside the (id length|id|dimensions|payload) \(\d+ bytes "
                            r"declared, \d+ left\)$", str(caught.value)), (keep, caught.value)
        path.write_bytes(raw[:10])
        with pytest.raises(TruncatedPayloadError,
                           match=rf"^{re.escape(str(path))}: file ends inside the record count"):
            read_hs_file(path)

    def test_non_utf8_id_names_the_file_and_record(self, tmp_path):
        rng = np.random.default_rng(32)
        path = tmp_path / "id.hs"
        write_hs_file([self.float32_stack(rng, id="ok"), self.float32_stack(rng, id="no")],
                      path)
        path.write_bytes(path.read_bytes().replace(b"no", b"\xff\xfe"))
        with pytest.raises(DataFormatError, match=r"id\.hs: record index 1 .*UTF-8"):
            read_hs_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_the_file_and_record(self, tmp_path, bad):
        path = tmp_path / "nan.hs"
        header = (b"IBENHS1\x00" + struct.pack("<I", 1)
                  + struct.pack("<I", 1) + b"q"
                  + struct.pack("<III", 1, 1, 2))
        path.write_bytes(header + np.array([0.5, bad], dtype="<f4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HsFileError, match=r"nan\.hs: record index 0 \('q'\) .*non-finite"):
                read_hs_file(path)

    def test_a_read_record_is_scanned_for_non_finite_values_once(self, tmp_path, monkeypatch):
        """The reader checks the float32 payload; the stack it builds from the
        float64 copy is not checked again, while a stack built by hand is."""
        rng = np.random.default_rng(34)
        path = tmp_path / "once.hs"
        write_hs_file([self.float32_stack(rng, id="a"), self.float32_stack(rng, id="b")], path)
        want = [s.data for s in read_hs_file(path)]

        def refuse(self, data, id=""):
            raise AssertionError("a read record was checked twice")

        monkeypatch.setattr(LayerStack, "__init__", refuse)
        stacks = read_hs_file(path)
        assert [s.id for s in stacks] == ["a", "b"]
        for stack, data in zip(stacks, want, strict=True):
            assert stack.data.dtype == np.float64
            npt.assert_array_equal(stack.data, data)

    def test_an_error_inside_the_record_loop_keeps_the_old_file(self, tmp_path, monkeypatch):
        """The second record's dimension overflows after the first is written:
        the old file stays byte-identical and no temporary is left."""
        rng = np.random.default_rng(33)
        path = tmp_path / "a.hs"
        write_hs_file([self.float32_stack(rng, id="old")], path)
        old = path.read_bytes()
        monkeypatch.setattr(bertfuse, "_U32_MAX", 3)
        stacks = [self.float32_stack(rng, n_layers=2, seq_len=2, hidden=3, id="a"),
                  self.float32_stack(rng, n_layers=2, seq_len=5, hidden=3, id="b")]
        with pytest.raises(DimensionOverflowError, match="'b'"):
            write_hs_file(stacks, path)
        assert path.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["a.hs"]

    def test_a_finished_write_replaces_the_old_file(self, tmp_path):
        rng = np.random.default_rng(34)
        path = tmp_path / "a.hs"
        write_hs_file([self.float32_stack(rng, id="old")], path)
        write_hs_file([self.float32_stack(rng, id="new")], path)
        assert [s.id for s in read_hs_file(path)] == ["new"]
        assert [f.name for f in tmp_path.iterdir()] == ["a.hs"]

    def test_mixed_shapes_rejected_on_write(self, tmp_path):
        a = LayerStack(np.zeros((2, 1, 3)))
        b = LayerStack(np.zeros((2, 1, 4)))
        with pytest.raises(ValueError, match="share"):
            write_hs_file([a, b], tmp_path / "m.hs")

    def test_round_trip_fuzz(self, tmp_path):
        rng = np.random.default_rng(32)
        for trial in range(25):
            stacks = [
                self.float32_stack(
                    rng,
                    n_layers=int(rng.integers(1, 5)) * 0 + n_layers,
                    seq_len=int(rng.integers(1, 6)),
                    hidden=hidden,
                    id=f"rec-{trial}-{k}",
                )
                for n_layers, hidden in [(int(rng.integers(1, 5)),
                                          int(rng.integers(1, 7)))]
                for k in range(int(rng.integers(0, 4)))
            ]
            path = tmp_path / f"f{trial}.hs"
            write_hs_file(stacks, path)
            back = read_hs_file(path)
            assert len(back) == len(stacks)
            for orig, rt in zip(stacks, back):
                assert rt.id == orig.id
                npt.assert_array_equal(rt.data, orig.data)

    def test_a_repeated_id_is_refused_as_soon_as_it_is_read(self, tmp_path):
        """The file ends right after record 2's id, so reading on would fail otherwise."""
        def record(stack_id):
            return (struct.pack("<I", len(stack_id)) + stack_id + struct.pack("<III", 1, 1, 1)
                    + np.zeros(1, dtype="<f4").tobytes())

        path = tmp_path / "f.hs"
        path.write_bytes(b"IBENHS1\x00" + struct.pack("<I", 4) + record(b"a") + record(b"b")
                         + struct.pack("<I", 1) + b"a")
        with pytest.raises(HsFileError, match=rf"^{re.escape(str(path))}: record index 2 has "
                                              rf"duplicate stack id 'a'$"):
            read_hs_file(path)

    def test_a_generator_is_written_one_stack_at_a_time(self, tmp_path):
        rng = np.random.default_rng(36)
        alive = []

        def made(k):
            stack = self.float32_stack(rng, id=f"s{k}")
            alive.append(weakref.ref(stack.data))
            return stack

        def stacks():
            for k in range(4):
                assert all(ref() is None for ref in alive), f"a stack before s{k} is alive"
                yield made(k)

        path = tmp_path / "gen.hs"
        write_hs_file(stacks(), path)
        assert [s.id for s in read_hs_file(path)] == ["s0", "s1", "s2", "s3"]
        assert struct.unpack_from("<I", path.read_bytes(), 8) == (4,)

    def test_a_generator_that_fails_midway_keeps_the_old_file(self, tmp_path):
        rng = np.random.default_rng(37)
        path = tmp_path / "a.hs"
        write_hs_file([self.float32_stack(rng, id="old")], path)
        old = path.read_bytes()

        def stacks():
            yield self.float32_stack(rng, id="a")
            raise RuntimeError("the encoder failed")

        with pytest.raises(RuntimeError, match="the encoder failed"):
            write_hs_file(stacks(), path)
        assert path.read_bytes() == old
        assert [f.name for f in tmp_path.iterdir()] == ["a.hs"]

    def test_each_record_is_handed_over_as_soon_as_it_is_read(self, tmp_path):
        """With ``each``, nothing is returned and every record reaches ``each``
        in file order; a record cut short is refused after the ones before it."""
        rng = np.random.default_rng(38)
        stacks = [self.float32_stack(rng, id=f"r{k}") for k in range(3)]
        path = tmp_path / "r.hs"
        write_hs_file(stacks, path)
        got = []
        assert read_hs_file(path, each=got.append) is None
        assert [s.id for s in got] == ["r0", "r1", "r2"]
        for orig, back in zip(stacks, got):
            assert back.data.dtype == np.float64 and np.array_equal(back.data, orig.data)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 3])
        got.clear()
        with pytest.raises(TruncatedPayloadError, match=r"record index 2 \('r2'\)"):
            read_hs_file(path, each=got.append)
        assert [s.id for s in got] == ["r0", "r1"]

    def test_a_repeated_id_is_refused_on_write(self, tmp_path):
        rng = np.random.default_rng(35)
        stacks = [self.float32_stack(rng, id=stack_id) for stack_id in ("a", "b", "a")]
        with pytest.raises(ValueError, match=r"^stack index 2 repeats the stack id 'a'$"):
            write_hs_file(stacks, tmp_path / "f.hs")
        assert list(tmp_path.iterdir()) == []


class TestPseudoEncode:
    def seq(self, tokens, max_len=8):
        return pad_truncate(tokens, max_len=max_len)

    def test_deterministic(self):
        seq = self.seq(["officials", "fighting"])
        a = pseudo_encode(seq, n_layers=3, hidden=4, seed=5)
        b = pseudo_encode(seq, n_layers=3, hidden=4, seed=5)
        npt.assert_array_equal(a.data, b.data)

    def test_seed_changes_values(self):
        seq = self.seq(["officials"])
        a = pseudo_encode(seq, n_layers=2, hidden=4, seed=0)
        b = pseudo_encode(seq, n_layers=2, hidden=4, seed=1)
        assert not np.array_equal(a.data, b.data)

    def test_shape_contract(self):
        stack = pseudo_encode(self.seq(["a", "b", "c"]), n_layers=4, hidden=8, seed=0)
        assert stack.data.shape == (4, 3, 8)

    def test_pads_are_excluded(self):
        short = self.seq(["one", "two"], max_len=2)
        padded = self.seq(["one", "two"], max_len=10)
        a = pseudo_encode(short, n_layers=2, hidden=3, seed=7)
        b = pseudo_encode(padded, n_layers=2, hidden=3, seed=7)
        npt.assert_array_equal(a.data, b.data)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            pseudo_encode(self.seq([]), n_layers=2, hidden=2, seed=0)

    @pytest.mark.parametrize("n_layers, hidden", [(0, 4), (2, 0), (-1, 4)])
    def test_no_layer_or_no_hidden_unit_is_refused(self, n_layers, hidden):
        with pytest.raises(ValueError, match="n_layers and hidden must be positive"):
            pseudo_encode(self.seq(["a"]), n_layers=n_layers, hidden=hidden, seed=0)

    def test_values_survive_the_container_exactly(self, tmp_path):
        stack = pseudo_encode(self.seq(["x", "y"]), n_layers=3, hidden=5, seed=2,
                              stack_id="rt")
        path = tmp_path / "pe.hs"
        write_hs_file([stack], path)
        (back,) = read_hs_file(path)
        npt.assert_array_equal(back.data, stack.data)

    def test_values_bounded(self):
        stack = pseudo_encode(self.seq(["q"]), n_layers=2, hidden=64, seed=3)
        assert np.all(np.abs(stack.data) <= 1.0)
