import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from patchx import neuralnet
from patchx.data import TimeSeriesSample
from patchx.neuralnet import (
    EVAL_BATCH,
    ROW_BLOCK,
    Adam,
    Conv1d,
    DimensionError,
    NetworkSpec,
    PatchNet,
    Scratch,
    TrainingError,
    TrainSpec,
    _loss_and_gradients,
    accuracy,
    build_network,
    forward_all,
    gradcheck_case,
    gradient_check,
    nudge_biases_off_kinks,
    SgdMomentum,
    softmax,
    train,
)
from patchx.patching import PatchConfig, build_patch_arrays, least_width

from oracles import (
    NamedAdam, NamedSgdMomentum, backward, content_crop, crop_major_loss_and_gradients, crop_major_scratch_entries,
    crop_major_softmax, expand_crops, forward, full_frame_gradients, full_frame_patch_arrays, full_frame_softmax,
    long_frame_loss_and_gradients, named_gradient_check, patch_cross_entropy, patch_tensor, row_block_conv_forward,
    transform, zero_offsets,
)

TINY = NetworkSpec(
    input_channels=2, input_length=12, class_count=3,
    conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=1,
)


def conv_layer(in_channels, out_channels, kernel, rng):
    """A lone Conv1d, its weights drawn as PatchNet draws a conv's and its biases zero."""
    bound = 1.0 / math.sqrt(in_channels * kernel)
    return Conv1d(rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel)), np.zeros(out_channels))


def random_batch(spec, n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.input_channels, spec.input_length))
    y = rng.integers(0, spec.class_count, n)
    return x, y


class TestForward:
    def test_softmax_sums_to_one(self):
        net = build_network(TINY)
        x, _ = random_batch(TINY, n=20)
        probs = forward_all(net, [(x, zero_offsets(x))])[0]
        assert np.all(probs > 0) and np.all(probs < 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_zeroed_head_gives_uniform(self):
        net = build_network(TINY)
        net.dense.w[...] = 0.0
        net.dense.b[...] = 0.0
        x, _ = random_batch(TINY, n=4)
        np.testing.assert_allclose(forward_all(net, [(x, zero_offsets(x))])[0], 1.0 / 3.0)

    def test_identical_patches_identical_outputs(self):
        net = build_network(TINY)
        x, _ = random_batch(TINY, n=1)
        a = forward_all(net, [(x.copy(), zero_offsets(x))])[0]
        b = forward_all(net, [(x.copy(), zero_offsets(x))])[0]
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        net = build_network(TINY)
        with pytest.raises(DimensionError):
            forward_all(net, [(np.zeros((2, 3, 12)), np.zeros(2, dtype=np.int64))])
        with pytest.raises(DimensionError):
            forward_all(net, [(np.zeros((2, 2, 13)), np.zeros(2, dtype=np.int64))])

    @pytest.mark.parametrize("offsets", [
        None, np.array([0, 1, 2]), np.array([0.0, 1.0]), np.array([-1, 0]), np.array([0, 3]),
    ], ids=["missing", "one-per-row-not", "not-integer", "below-0", "past-length-minus-width"])
    def test_crop_needs_one_offset_per_row_inside_the_frame(self, offsets):
        """Each entry point (forward_all, train, gradient_check) checks the
        offsets before its first forward."""
        net = build_network(TINY)
        x, y = np.zeros((2, 2, 10)), np.zeros(2, dtype=np.int64)  # crops of width 10 in 12-step frames
        good = (x, y, np.array([0, 2]))  # offsets in [0, 2]
        spec = TrainSpec(epochs=1, batch_size=2, early_stopping_patience=0, seed=0)
        for call in (lambda: forward_all(net, [(x, offsets)]), lambda: train(net, (x, y, offsets), good, spec),
                     lambda: gradient_check(net, (x, y, offsets))):
            with pytest.raises(DimensionError, match=r"one integer offset in \[0, 2\] per row"):
                call()
        forward_all(net, [(x, good[2])])

    def test_single_patch_forward(self):
        net = build_network(TINY)
        x, _ = random_batch(TINY, n=1)
        probs = forward(net, x[0])
        assert probs.shape == (3,)
        np.testing.assert_array_equal(probs, forward_all(net, [(x, zero_offsets(x))])[0][0])


def im2col_forward(conv, x):
    """The im2col convolution the shifted-GEMM layer replaced: one GEMM over
    every (channel, tap) window of the padded channels-first input."""
    batch, _, length = x.shape
    left = (conv.kernel - 1) // 2  # an even kernel pads one more step on the right
    xp = np.pad(x, ((0, 0), (0, 0), (left, conv.kernel - 1 - left)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, conv.kernel, axis=2)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(batch * length, -1)
    out2d = cols @ conv.w.reshape(conv.w.shape[0], -1).T + conv.b
    return out2d.reshape(batch, length, -1).transpose(0, 2, 1), cols


def im2col_backward(conv, dout, cols, in_shape):
    """Backward of im2col_forward, scattering each tap's input gradient; the
    input gradient is that of the whole padded frame."""
    batch, in_channels, length = in_shape
    g2d = dout.transpose(0, 2, 1).reshape(batch * length, -1)
    dw = (g2d.T @ cols).reshape(conv.w.shape)
    db = g2d.sum(axis=0)
    dcols = (g2d @ conv.w.reshape(conv.w.shape[0], -1)).reshape(
        batch, length, in_channels, conv.kernel
    )
    dxp = np.zeros((batch, in_channels, length + conv.kernel - 1))
    for j in range(conv.kernel):
        dxp[:, :, j : j + length] += dcols[:, :, :, j].transpose(0, 2, 1)
    return dxp, dw, db


class TestShiftedGemmConv:
    """Conv1d against the im2col oracle, to 1e-10 absolute."""

    # (kernel, length): kernels 1-5 (even ones pad asymmetrically), then
    # kernels as long as the input
    SHAPES = [(1, 20), (2, 20), (3, 20), (4, 20), (5, 20), (1, 1), (4, 4), (5, 5)]

    # memory orders of a logical (batch, channels, length) array
    LAYOUTS = {"channels-first": (0, 1, 2), "channels-last": (0, 2, 1), "time-major": (2, 0, 1)}

    @classmethod
    def inputs(cls, rng, batch, in_channels, length, layout):
        order = cls.LAYOUTS[layout]
        return rng.normal(size=tuple((batch, in_channels, length)[a] for a in order)).transpose(np.argsort(order))

    def check(self, kernel, length, in_channels, batch, layout, seed):
        rng = np.random.default_rng(seed)
        conv = conv_layer(in_channels, 6, kernel, rng)
        conv.b[...] = rng.normal(size=6)
        x = self.inputs(rng, batch, in_channels, length, layout)
        dout = self.inputs(rng, batch, 6, length, layout)
        out, flat = conv.forward(x)
        ref_out, cols = im2col_forward(conv, x)
        assert out.shape == ref_out.shape == (batch, 6, length)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
        got = conv.backward(dout, flat, x.shape)
        want = im2col_backward(conv, dout, cols, x.shape)
        for name, a, b in zip(("dframe", "dw", "db"), got, want):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)
        dframe, dw, db = conv.backward(dout, flat, x.shape, input_grad=False)
        assert dframe is None
        np.testing.assert_array_equal(dw, got[1])
        np.testing.assert_array_equal(db, got[2])

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel,length", SHAPES)
    def test_matches_im2col(self, kernel, length, layout):
        for in_channels in (1, 4, 16):
            for batch in (1, 15, 64):
                self.check(kernel, length, in_channels, batch, layout,
                           seed=kernel * 1000 + length * 10 + in_channels + batch)

    def test_many_row_blocks(self):
        # 1000 crops of 48 steps: row blocks end inside a step's rows, taps
        # shift rows across blocks, and the last block is partial
        assert ROW_BLOCK % 1000 and (1000 * 48) % ROW_BLOCK
        self.check(5, 48, 16, 1000, "time-major", seed=3)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_edges_fill_the_pad_rows(self, kernel):
        """A crop with edges is the valid part of the convolution of the crop
        and its edges, and the frame gradient's pad rows are the edges'."""
        rng = np.random.default_rng(kernel)
        conv = conv_layer(3, 6, kernel, rng)
        conv.b[...] = rng.normal(size=6)
        frame = rng.normal(size=(5, 3, 9 + kernel - 1))
        rows = conv.edge_rows(9)
        inside = np.setdiff1d(np.arange(frame.shape[2]), rows)
        out, flat = conv.forward(frame[:, :, inside], edges=frame[:, :, rows].transpose(2, 0, 1))
        ref_out, cols = im2col_forward(conv, frame)
        np.testing.assert_allclose(out, ref_out[:, :, inside], rtol=0, atol=1e-10)
        dout = rng.normal(size=out.shape)
        full_dout = np.zeros(ref_out.shape)
        full_dout[:, :, inside] = dout
        dframe, dw, db = conv.backward(dout, flat, (5, 3, 9))
        ref_dframe, ref_dw, ref_db = im2col_backward(conv, full_dout, cols, frame.shape)
        ref_dframe = ref_dframe[:, :, conv.pad_left : conv.pad_left + frame.shape[2]]
        for name, a, b in (("dframe", dframe, ref_dframe), ("dw", dw, ref_dw), ("db", db, ref_db)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_relu_is_the_maximum_of_the_linear_output(self, kernel):
        """The ReLU taken in the row-block loop equals np.maximum of the linear
        output bit for bit, over several row blocks and with edges."""
        rng = np.random.default_rng(kernel)
        conv = conv_layer(3, 6, kernel, rng)
        conv.b[...] = rng.normal(size=6)
        x = rng.normal(size=(160, 3, 20))
        edges = rng.normal(size=(kernel - 1, 160, 3))
        assert len(x) * 20 > 2 * ROW_BLOCK
        for kwargs in ({}, {"edges": edges}):
            linear, flat = conv.forward(x, **kwargs)
            rectified, relu_flat = conv.forward(x, relu=True, **kwargs)
            assert (linear < 0).any()
            np.testing.assert_array_equal(rectified, np.maximum(linear, 0.0))
            np.testing.assert_array_equal(relu_flat, flat)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_edge_rows_are_the_pad_rows(self, kernel):
        conv = conv_layer(2, 2, kernel, np.random.default_rng(0))
        for length in (1, 2, 7, 24, 50):
            want = np.r_[: conv.pad_left, conv.pad_left + length : length + kernel - 1]
            got = conv.edge_rows(length)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_output_and_frame_are_time_major(self):
        conv = conv_layer(3, 4, 3, np.random.default_rng(0))
        out, flat = conv.forward(np.zeros((2, 3, 7)))
        assert out.shape == (2, 4, 7)
        assert out.transpose(2, 0, 1).flags.c_contiguous  # memory (length, batch, channels)
        assert flat.shape == ((7 + 2) * 2, 3) and flat.flags.c_contiguous

    def test_an_input_in_its_frame_is_not_copied(self):
        """x that views the inside of the frame it is given, as the previous
        conv's output does, is read where it lies: the forward equals one on a
        copy of x, and the frame it keeps for backward is x's memory."""
        rng = np.random.default_rng(1)
        conv = conv_layer(3, 4, 3, rng)
        frame = conv.frame(5, 9)
        x = conv.inside(frame).transpose(1, 2, 0)
        x[...] = rng.normal(size=x.shape)
        want, _ = conv.forward(x.copy())
        got, flat = conv.forward(x, frame=frame)
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(flat, x) and np.shares_memory(flat, frame)


def assert_same_floats(got, want):
    """Equal values (NaN where NaN) and equal sign bits, so -0.0 != 0.0."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestFullOperandLoop:
    """Conv1d.forward, whose row-block loop reads a bias block, a zero block
    and a product buffer, against the loop that broadcast the bias, compared
    the ReLU with a scalar and allocated each product: bit for bit."""

    # (batch, length): rows below one block, exactly ROW_BLOCK rows, and
    # several blocks with a partial last one
    SHAPES = {"below": (3, 20), "one-block": (1, ROW_BLOCK), "several": (90, 37)}

    @staticmethod
    def case(kernel, batch, length, seed):
        """A conv and an input whose first sample is zero, so that biases of
        0.0 and -0.0 make pre-activations of exactly 0.0; its second and
        third samples hold a NaN and an inf, and its fourth is -0.0."""
        rng = np.random.default_rng(seed)
        conv = conv_layer(3, 6, kernel, rng)
        conv.b[...] = rng.normal(size=6)
        conv.b[:2] = 0.0, -0.0
        x = rng.normal(size=(batch, length, 3)).transpose(0, 2, 1)
        x[0] = 0.0
        if batch > 3:
            x[1, 0, length // 2], x[2, 1, length // 3] = np.nan, -np.inf
            x[3] = -0.0
        edges = rng.normal(size=(batch, kernel - 1, 3)).transpose(1, 0, 2)  # (pad rows, batch, channels)
        edges[:, 0] = 0.0
        return conv, x, edges

    @pytest.mark.parametrize("with_scratch", [False, True], ids=["fresh", "scratch"])
    @pytest.mark.parametrize("with_edges", [False, True], ids=["zero-pad", "edges"])
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_equals_the_broadcast_loop(self, monkeypatch, kernel, shape, relu, with_edges, with_scratch):
        """With a scratch or without, every buffer (frame, output, bias and
        product) comes from _empty, here handed out full of NaN, so the loop
        fills each, the frame's pad rows included."""
        batch, length = shape
        conv, x, edges = self.case(kernel, batch, length, seed=kernel * 100 + batch)
        keys, empty = [], neuralnet._empty

        def poisoned(scratch, key, shape):
            keys.append(key)
            buffer = empty(scratch, key, shape)
            buffer.fill(np.nan)
            return buffer

        monkeypatch.setattr(neuralnet, "_empty", poisoned)
        rows = batch * length
        assert (rows < ROW_BLOCK, rows == ROW_BLOCK, rows > 2 * ROW_BLOCK and rows % ROW_BLOCK != 0) \
            == tuple(shape == s for s in self.SHAPES.values())
        kwargs = {"edges": edges} if with_edges else {}
        scratch = Scratch(conv.buffer_sizes(batch, length, backward=False)) if with_scratch else None
        with np.errstate(invalid="ignore"):  # inf times zero
            got, flat = conv.forward(x, relu=relu, scratch=scratch, **kwargs)
            want, want_flat = row_block_conv_forward(conv, x, relu=relu, **kwargs)
            linear, _ = row_block_conv_forward(conv, x, **kwargs)
        assert keys == [(conv, "frame"), (conv, "out"), "bias", "product"]
        assert (linear[0, :2] == 0).all()
        if batch > 3:
            assert np.isnan(want).any() and np.isinf(want).any()
        assert_same_floats(got, want)
        assert_same_floats(flat, want_flat)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_a_reused_scratch_carries_nothing_between_calls(self, kernel):
        """A second call on a smaller batch, after the biases changed, fills
        its own bias block and reads a zero block that is still zero."""
        conv, x, edges = self.case(kernel, 90, 37, seed=kernel)
        scratch = Scratch(conv.buffer_sizes(90, 37, backward=False))
        with np.errstate(invalid="ignore"):  # inf times zero
            conv.forward(x, edges=edges, relu=True, scratch=scratch)
            conv.b[...] = np.random.default_rng(kernel).normal(size=6)
            got, _ = conv.forward(x[:5, :, :30], edges=edges[:, :5], relu=True, scratch=scratch)
            want, _ = row_block_conv_forward(conv, x[:5, :, :30], edges[:, :5], relu=True)
        assert_same_floats(got, want)
        assert not conv.zeros.any()

    def test_loop_allocates_nothing_with_a_scratch(self):
        """With a scratch, a forward over four row blocks allocates less than
        one block's product, which the broadcast loop allocated per tap."""
        rng = np.random.default_rng(0)
        conv = conv_layer(16, 32, 3, rng)
        x = rng.normal(size=(160, 24, 16)).transpose(0, 2, 1)
        scratch = Scratch(conv.buffer_sizes(160, 24, backward=False))
        conv.forward(x, relu=True, scratch=scratch)
        tracemalloc.start()
        try:
            conv.forward(x, relu=True, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 160 * 24 > 3 * ROW_BLOCK
        assert peak < ROW_BLOCK * 32 * 8

    @pytest.mark.parametrize("blocks, rate", [(((4, 3, "relu"),), 1e12), (((4, 3, "relu"), (3, 2, "relu")), 1e100)],
                             ids=["one-block", "two-blocks"])
    def test_divergence_raises_as_with_the_broadcast_loop(self, monkeypatch, blocks, rate):
        """A diverging run meets its non-finite loss at the same batch
        whichever loop convolves."""
        x, y, offsets = TestTrain().separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=blocks, seed=0)
        tspec = TrainSpec(epochs=10, batch_size=16, learning_rate=rate, optimizer="sgd-momentum",
                          early_stopping_patience=9, seed=0)
        messages = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(Conv1d, "forward", lambda conv, h, *, frame=None, out=None, edges=None,
                                    relu=False, scratch=None: row_block_conv_forward(conv, h, edges, relu, out))
            with np.errstate(all="ignore"), pytest.raises(TrainingError) as err:
                train(build_network(spec), (x, y, offsets), (x, y, offsets), tspec)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert patch_cross_entropy(np.array([1.0, 0.0]), 0) <= 1e-11

    def test_uniform_two_classes(self):
        assert patch_cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_wrong_side(self):
        assert patch_cross_entropy(np.array([0.9, 0.1]), 1) == pytest.approx(-math.log(0.1))

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            patch_cross_entropy(np.array([0.5, 0.5]), 2)


class TestBackward:
    def test_finite_differences_per_layer_and_composite(self):
        cases = {
            "conv-only": NetworkSpec(2, 10, 2, conv_blocks=((3, 3, "relu"),), seed=0),
            "dense-softmax": NetworkSpec(2, 8, 3, conv_blocks=(), seed=0),
            "composite": TINY,
        }
        for name, spec in cases.items():
            net, batch = gradcheck_case(spec, seed=11)
            report = gradient_check(net, batch)
            assert report.passed, f"{name}: {report.summary()}"

    def test_duplicated_batch_same_gradient(self):
        net = build_network(TINY)
        x, y = random_batch(TINY, n=5, seed=2)
        batch = (x, y, zero_offsets(x))
        single = backward(net, batch)
        doubled = backward(net, [np.concatenate([a, a]) for a in batch])
        for name in single:
            np.testing.assert_allclose(single[name], doubled[name], atol=1e-12)

    def test_zero_learning_signal(self):
        net = build_network(TINY)
        net.dense.w[...] = 0.0
        net.dense.b[...] = 0.0
        net.dense.b[1] = 80.0  # saturated one-hot on class 1
        x, _ = random_batch(TINY, n=6)
        grads = backward(net, (x, np.full(6, 1), zero_offsets(x)))
        norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-6

    def test_corrupted_gradient_detected(self):
        net, batch = gradcheck_case(TINY, seed=4)
        original = net.backward_from_logits

        def corrupted(dlogits, caches, **kwargs):
            grad = original(dlogits, caches, **kwargs)
            net.views(grad)["dense.w"] *= -1
            return grad

        net.backward_from_logits = corrupted
        report = gradient_check(net, batch)
        assert not report.passed
        assert any(e.name == "dense.w" and e.max_rel_error > 1e-3 for e in report.entries)


GRADCHECK_CASES = {  # criterion 1's layouts and those of `patchx gradcheck`
    "conv": NetworkSpec(2, 10, 2, conv_blocks=((3, 3, "relu"),), seed=0),
    "dense": NetworkSpec(2, 8, 3, conv_blocks=(), seed=0),
    "composite": NetworkSpec(2, 12, 3, conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=0),
    "cli-conv-only": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"),), seed=0),
    "cli-dense-softmax": NetworkSpec(3, 12, 3, conv_blocks=(), seed=0),
    "cli-composite": NetworkSpec(2, 16, 3, conv_blocks=((4, 3, "relu"), (5, 3, "relu")), seed=0),
}


class TestGradientVector:
    """backward_from_logits fills one vector laid out like flat_params, and
    gradient_check reads it through the same layout."""

    def test_backward_is_views_of_one_vector(self):
        net = build_network(TINY)
        x, y = random_batch(TINY, n=5, seed=3)
        logits, caches = net._forward_cached(x, zero_offsets(x))
        grad = net.backward_from_logits(softmax(logits), caches)
        assert grad.dtype == np.float64 and grad.shape == (net.flat_params.size,)
        grads = backward(net, (x, y, zero_offsets(x)))
        assert list(grads) == [name for name, _ in net.parameters()]
        bases = [g.base for g in grads.values()]
        assert all(b is bases[0] for b in bases) and bases[0].shape == grad.shape
        for name, p in net.parameters():
            assert grads[name].shape == p.shape
            assert np.shares_memory(grads[name], bases[0]), name
        np.testing.assert_array_equal(np.concatenate([grads[name].ravel() for name, _ in net.parameters()]),
                                      bases[0])

    @pytest.mark.parametrize("case", GRADCHECK_CASES)
    def test_flat_check_matches_per_name_check(self, case):
        seeds = [0] if case.startswith("cli-") else range(10)
        for seed in seeds:
            net, batch = gradcheck_case(GRADCHECK_CASES[case], seed=seed)
            before = net.flat_params.copy()
            got = gradient_check(net, batch)
            assert net.flat_params.tobytes() == before.tobytes()  # every perturbation is undone
            expected = named_gradient_check(net, batch)
            assert got.passed == expected.passed
            assert len(got.entries) == len(expected.entries)
            for g, e in zip(got.entries, expected.entries):
                assert (g.name, g.max_rel_error, g.worst_index) == (e.name, e.max_rel_error, e.worst_index), seed
                if e.max_rel_error > 0:
                    assert (g.analytic, g.numeric) == (e.analytic, e.numeric), (seed, e.name)


FLAGS = [(False, False), (True, False), (False, True), (True, True)]
FLAG_IDS = ["plain", "attach", "notemp", "attach-notemp"]


def patch_rows(attach, notemp, halo, length=23, whole=False):
    """build_patch_arrays crops (x, y, offsets) of five samples, 2 data
    channels, with x cut in full, and the oracle's full frames of the same
    patches. The windows
    of 4:6 and 7:9 start at step 0 and end at the last step, truncated there;
    sample 1 is all zero, so its patches are empty without attach. whole adds
    a window that covers the frame."""
    rng = np.random.default_rng(int(attach) * 2 + int(notemp))
    values = rng.normal(size=(5, 2, length))
    values[1] = 0.0
    tokens = [(4, 6), (7, 9)] + ([(length, length)] if whole else [])
    configs = [PatchConfig(stride, size, attach=attach, notemp=notemp) for stride, size in tokens]
    labels = np.arange(5) % 3
    crops, y, offsets = build_patch_arrays(values, labels, configs, halo)
    x = crops[:]
    frames = full_frame_patch_arrays(values, labels, configs)[0]
    np.testing.assert_array_equal(expand_crops(x, offsets, length), frames)
    return x, y, offsets, frames


def crop_net(channels, length, kernel, depth, seed):
    """A network of depth (one to three) conv blocks whose biases are drawn
    too, so the empty frame is not zero."""
    blocks = ((5, kernel, "relu"), (4, kernel, "relu"), (3, kernel, "relu"))[:depth]
    net = build_network(NetworkSpec(channels, length, 3, conv_blocks=blocks, seed=seed))
    rng = np.random.default_rng(seed)
    for conv in net.convs:
        conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
    return net


NETS = [(kernel, depth) for kernel in (1, 2, 3, 4, 5) for depth in (1, 2, 3)]


class TestCropOracle:
    """The network on layout crops against the full-frame oracle, to 1e-10 absolute."""

    def check(self, net, x, y, offsets, frames):
        np.testing.assert_allclose(forward_all(net, [(x, offsets)])[0], full_frame_softmax(net, frames),
                                   rtol=0, atol=1e-10)
        got, want = backward(net, (x, y, offsets)), full_frame_gradients(net, frames, y)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("kernel, depth", NETS)
    def test_patches_match_full_frame(self, attach, notemp, kernel, depth):
        net = crop_net(2 + attach, 23, kernel, depth, seed=kernel * 10 + depth)
        x, y, offsets, frames = patch_rows(attach, notemp, net.halo)
        width = x.shape[2]
        assert width < frames.shape[2]
        assert offsets.min() == 0  # windows at the first step
        assert notemp or offsets.max() + width == frames.shape[2]  # and, in place, at the last
        self.check(net, x, y, offsets, frames)

    def test_empty_patches_alone(self):
        net = crop_net(2, 23, 3, 2, seed=4)
        x, y, offsets, frames = patch_rows(False, False, net.halo)
        empty = ~frames.any(axis=(1, 2))
        assert empty.sum() == 10  # the 6 + 4 patches of the all-zero sample
        assert content_crop(frames[empty], net.halo)[1] == 1  # no content, yet each keeps its layout crop
        self.check(net, x[empty], y[empty], offsets[empty], frames[empty])

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    def test_full_width_crop_is_the_full_frame(self, attach, notemp):
        """A layout holding a whole-frame window crops nothing and runs the
        oracle's arithmetic exactly."""
        net = crop_net(2 + attach, 23, 3, 2, seed=6)
        x, y, offsets, frames = patch_rows(attach, notemp, net.halo, whole=True)
        assert x.shape == frames.shape and not offsets.any()
        np.testing.assert_array_equal(forward_all(net, [(x, offsets)])[0], full_frame_softmax(net, frames))
        got, want = backward(net, (x, y, offsets)), full_frame_gradients(net, frames, y)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_row_depends_on_its_batch_only_by_rounding(self):
        net = crop_net(3, 23, 5, 2, seed=8)
        x, _, offsets, _ = patch_rows(True, False, net.halo)
        batched = forward_all(net, [(x, offsets)])[0]
        alone = np.concatenate(forward_all(net, [(x[r : r + 1], offsets[r : r + 1]) for r in range(len(x))]))
        np.testing.assert_allclose(alone, batched, rtol=0, atol=1e-12)

    def test_every_slice_carries_the_all_zero_crop(self, monkeypatch):
        """forward_all cuts each slice as at most EVAL_BATCH - 1 crops and the
        all-zero crop after them, so a full slice is EVAL_BATCH rows, and runs
        no batch-1 pass of the empty frame. It gives the softmax of the slices
        run one by one, and after a write to the parameters that of the new
        ones."""
        net = crop_net(3, 23, 3, 2, seed=5)
        x, _, offsets, _ = patch_rows(True, False, net.halo)
        x, offsets = np.concatenate([x] * 60), np.concatenate([offsets] * 60)
        assert len(x) > 2 * EVAL_BATCH
        forward, calls = Conv1d.forward, []

        def counting(conv, h, **kwargs):
            if conv is net.convs[0]:
                calls.append((len(h), not h[-1].any()))
            return forward(conv, h, **kwargs)

        monkeypatch.setattr(Conv1d, "forward", counting)
        step = EVAL_BATCH - 1
        got = forward_all(net, [(x, offsets)])[0]
        assert calls == [(min(step, len(x) - lo) + 1, True) for lo in range(0, len(x), step)]
        assert calls[0] == (EVAL_BATCH, True) and len(calls) == 3
        want = np.concatenate([forward_all(net, [(x[lo : lo + step], offsets[lo : lo + step])])[0]
                               for lo in range(0, len(x), step)])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(want, crop_major_softmax(net, x, offsets))
        net.convs[1].b[0] += 0.25
        want = crop_major_softmax(net, x, offsets)
        first, whole = forward_all(net, [(x[:step], offsets[:step]), (x, offsets)])
        np.testing.assert_array_equal(first, want[:step])
        np.testing.assert_array_equal(whole, want)

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_gradient_check_through_the_crop(self, attach, notemp, kernel):
        net = crop_net(2 + attach, 23, kernel, 2, seed=kernel)
        x, y, offsets, frames = patch_rows(attach, notemp, net.halo)
        rows = slice(None, None, 4)
        nudge_biases_off_kinks(net, frames[rows])
        assert x.shape[2] < frames.shape[2]
        report = gradient_check(net, (x[rows], y[rows], offsets[rows]))
        assert report.passed, report.summary()


class TestTimeMajorAgainstCropMajor:
    """The network over time-major frames against the crop-major oracle:
    evaluation bit for bit, training gradients to 1e-12 relative, and a
    forward-only Scratch with no output buffer for a conv that writes into
    the next one's frame."""

    DEPTHS, DEPTH_IDS = [1, 2, 3], ["one-block", "two-blocks", "three-blocks"]

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("depth", DEPTHS, ids=DEPTH_IDS)
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_eval_softmax_equals_the_oracle(self, attach, notemp, depth, kernel):
        """Windows at both frame edges and a whole-frame window, repeated past
        EVAL_BATCH rows, so that a group takes two slices."""
        net = crop_net(2 + attach, 23, kernel, depth, seed=kernel)
        x, _, offsets, _ = patch_rows(attach, notemp, net.halo, whole=True)
        assert offsets.min() == 0 and (notemp or (offsets + x.shape[2]).max() == 23)
        x, offsets = np.concatenate([x] * 20), np.concatenate([offsets] * 20)
        assert len(x) > EVAL_BATCH
        np.testing.assert_array_equal(forward_all(net, [(x, offsets)])[0], crop_major_softmax(net, x, offsets))
        whole = crop_net(2 + attach, 23, kernel, depth, seed=kernel + 5)  # a layout of whole frames alone
        frames = full_frame_patch_arrays(np.random.default_rng(kernel).normal(size=(3, 2, 23)), np.zeros(3),
                                         [PatchConfig(23, 23, attach=attach, notemp=notemp)])[0]
        np.testing.assert_array_equal(forward_all(whole, [(frames, zero_offsets(frames))])[0],
                                      crop_major_softmax(whole, frames, zero_offsets(frames)))

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("depth", DEPTHS, ids=DEPTH_IDS)
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_gradients_match_the_oracle(self, attach, notemp, depth, kernel):
        """A batch of 110 rows (over ROW_BLOCK frame rows) through a training
        Scratch, and a batch of 7 without one: the same loss, and gradients
        within 1e-12 of the largest, as the batch rows sum in time-major order."""
        net = crop_net(2 + attach, 23, kernel, depth, seed=10 + kernel)
        x, y, offsets, _ = patch_rows(attach, notemp, net.halo, whole=True)
        x, y, offsets = np.concatenate([x] * 2), np.concatenate([y] * 2), np.concatenate([offsets] * 2)
        assert len(x) * x.shape[2] > ROW_BLOCK
        for rows, scratch in ((slice(None), net.scratch(len(x), x.shape[2], backward=True)), (slice(3, 10), None)):
            batch = (x[rows], y[rows], offsets[rows])
            loss, grad = _loss_and_gradients(net, batch, scratch=scratch)
            want_loss, want = crop_major_loss_and_gradients(net, batch)
            assert loss == want_loss
            assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()

    def test_no_output_buffer_for_a_conv_that_writes_into_the_next_frame(self):
        """At (EVAL_BATCH, 24), the acceptance network's forward-only Scratch
        is smaller than the crop-major one by at least conv0's output buffer
        there, batch * (24 + kernel - 1) rows of its filters."""
        net = build_network(NetworkSpec(2, 50, 2, conv_blocks=((16, 3, "relu"), (32, 3, "relu")), seed=0))
        scratch = net.scratch(EVAL_BATCH, 24)
        assert (net.convs[0], "out") not in scratch.buffers and (net.convs[1], "out") in scratch.buffers
        entries = sum(len(part) for part in scratch.buffers.values())
        assert entries <= crop_major_scratch_entries(net, EVAL_BATCH, 24) - EVAL_BATCH * (24 + 2) * 16


class TestZeroRowAgainstTheLongFrame:
    """A training step cuts an all-zero crop of the batch's width after its
    crops and runs one forward and one backward over all of them; the
    long-frame oracle forwards and back-propagates the length-long empty
    frame apart. The loss is the same bit for bit, and the gradients are
    within 1e-12 of the largest."""

    BLOCKS = {"one-layer": lambda k: ((5, k, "relu"),),
              "relu": lambda k: ((5, k, "relu"), (4, k, "relu")),
              "three-layers": lambda k: ((5, k, "relu"), (4, k, "relu"), (3, k, "relu"))}

    @staticmethod
    def net(channels, length, blocks, seed):
        net = build_network(NetworkSpec(channels, length, 3, conv_blocks=blocks, seed=seed))
        rng = np.random.default_rng(seed)
        for conv in net.convs:  # biases too, so the empty frame is not zero
            conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
        return net

    @staticmethod
    def check(net, batch, scratch=None):
        loss, grad = _loss_and_gradients(net, batch, scratch=scratch)
        want_loss, want = long_frame_loss_and_gradients(net, batch)
        assert loss == want_loss
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("whole", [False, True], ids=["windows", "whole-frames"])
    def test_gradients_match_the_long_frame(self, attach, notemp, blocks, kernel, whole):
        """Windows at both frame edges, alone or beside a whole-frame window
        (then every crop is a whole frame): 7 rows without a Scratch, and the
        rows repeated past ROW_BLOCK frame rows through a training Scratch."""
        net = self.net(2 + attach, 23, self.BLOCKS[blocks](kernel), seed=20 + kernel)
        x, y, offsets, _ = patch_rows(attach, notemp, net.halo, whole=whole)
        assert offsets.min() == 0 and (notemp or (offsets + x.shape[2]).max() == 23)
        assert (x.shape[2] == 23) == whole
        self.check(net, (x[3:10], y[3:10], offsets[3:10]))
        x, y, offsets = (np.concatenate([a] * 4) for a in (x, y, offsets))
        assert (len(x) + 1) * x.shape[2] > ROW_BLOCK
        self.check(net, (x, y, offsets), net.scratch(len(x), x.shape[2], backward=True))

    @pytest.mark.parametrize("whole", [False, True], ids=["windows", "whole-frames"])
    def test_the_evaluation_forward_gives_the_training_gradient(self, monkeypatch, whole):
        """backward_from_logits on the caches of the forward that forward_all
        runs gives _loss_and_gradients' gradient of the same rows, bit for
        bit: evaluation cuts its rows as training does, the all-zero crop
        after crops and none after whole frames."""
        net = self.net(3, 23, self.BLOCKS["three-layers"](3), seed=9)
        x, y, offsets, _ = patch_rows(True, False, net.halo, whole=whole)
        assert (x.shape[2] == 23) == whole and len(x) < EVAL_BATCH
        forwards, forward = [], PatchNet._forward_cached
        monkeypatch.setattr(PatchNet, "_forward_cached",
                            lambda *args, **kwargs: forwards.append(forward(*args, **kwargs)) or forwards[-1])
        forward_all(net, [(x, offsets)])
        monkeypatch.undo()
        ((logits, caches),) = forwards
        assert caches[-1][0][0] == len(x) + (not whole)
        dlogits = softmax(logits)
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits /= len(y)
        grad = net.backward_from_logits(dlogits, caches)
        assert grad.tobytes() == _loss_and_gradients(net, (x, y, offsets))[1].tobytes()

    @pytest.mark.parametrize("length, config, blocks", [
        (50, PatchConfig(50, 1), ((4, 3, "relu"), (5, 3, "relu"))),
        (30, PatchConfig(30, 2), ((4, 5, "relu"), (5, 5, "relu"), (3, 5, "relu"))),
    ], ids=["two-kernel-3", "three-kernel-5"])
    def test_minimum_width_crops(self, length, config, blocks):
        """Layouts whose one window, widened by the halo, would be narrower
        than least_width (3 of 5 and 8 of 13 steps): the crops are cut that
        wide, their gradients match the oracle, and train's epoch losses
        equal those of a loop of oracle steps to rounding."""
        net = self.net(2, length, blocks, seed=length)
        rng = np.random.default_rng(length)
        values, labels = rng.normal(size=(12, 1, length)), rng.integers(0, 3, 12)
        patches = build_patch_arrays(values, labels, [config], net.halo)
        crops, y, offsets = patches
        assert crops.shape[2] == least_width(length, net.halo) == sum(net.halo) + 1 and not offsets.any()
        self.check(net, (crops[:], y, offsets))
        spec = TrainSpec(epochs=2, batch_size=5, learning_rate=1e-2, early_stopping_patience=0, seed=3)
        reference = build_network(net.spec)
        reference.flat_params[...] = net.flat_params
        log = train(net, patches, patches, spec)
        rng, optimizer, losses = np.random.default_rng(spec.seed), Adam(reference.flat_params.size, 1e-2), []
        for _ in range(spec.epochs):
            shuffled, batch_losses = rng.permutation(len(y)), []
            for lo in range(0, len(y), spec.batch_size):
                idx = shuffled[lo : lo + spec.batch_size]
                loss, grad = long_frame_loss_and_gradients(reference, (crops[idx], y[idx], offsets[idx]))
                batch_losses.append(loss)
                optimizer.step(reference.flat_params, grad)
            losses.append(math.fsum(batch_losses) / len(batch_losses))
        np.testing.assert_allclose(log.train_loss, losses, rtol=1e-12)

    @pytest.mark.parametrize("width", [1, 4])
    def test_crops_narrower_than_the_least_width_are_rejected(self, monkeypatch, width):
        """train, forward_all and gradient_check each reject crops narrower
        than least_width(50, net.halo) = 5 with the width, once, before the
        first cut."""
        net = self.net(2, 50, self.BLOCKS["relu"](3), seed=1)
        x, y, offsets = np.ones((3, 2, width)), np.zeros(3, np.int64), np.array([0, 20, 50 - width])
        spec = TrainSpec(epochs=1, batch_size=2, early_stopping_patience=0, seed=0)
        checked, check, cuts = [], PatchNet._check_input, []
        monkeypatch.setattr(PatchNet, "_check_input", lambda net, *args: checked.append(args) or check(net, *args))
        monkeypatch.setattr(neuralnet, "_cut", lambda *args: cuts.append(args))
        for call in (lambda: train(net, (x, y, offsets), (x, y, offsets), spec),
                     lambda: forward_all(net, [(x, offsets)]), lambda: gradient_check(net, (x, y, offsets))):
            checked.clear()
            with pytest.raises(DimensionError, match=f"at least 5 steps wide, got {width}"):
                call()
            assert len(checked) == 1 and not cuts

    def test_a_step_makes_one_pass_per_layer_and_runs_no_empty_frame(self, monkeypatch):
        """A 2-layer step makes 4 Conv1d calls, each over the crops and the
        all-zero crop, and each validation pass one forward per layer over
        its slice and that crop: train makes no batch-1 conv call."""
        net = crop_net(3, 23, 3, 2, seed=4)
        x, y, offsets, _ = patch_rows(True, False, net.halo)
        assert x.shape[2] < 23
        calls = []
        for name in ("forward", "backward"):
            def counting(conv, h, *args, method=getattr(Conv1d, name), name=name, **kwargs):
                calls.append((name, len(h) if name == "forward" else args[1][0]))
                return method(conv, h, *args, **kwargs)
            monkeypatch.setattr(Conv1d, name, counting)
        _loss_and_gradients(net, (x, y, offsets))
        assert calls == [("forward", len(x) + 1)] * 2 + [("backward", len(x) + 1)] * 2
        calls.clear()
        spec = TrainSpec(epochs=2, batch_size=16, early_stopping_patience=0, seed=0)
        train(net, (x, y, offsets), (x[:7], y[:7], offsets[:7]), spec)
        steps = 2 * math.ceil(len(x) / 16)
        assert [rows for _, rows in calls].count(1) == 0
        assert len(calls) == 4 * steps + 2 * 2  # per validation pass, both layers on one slice
        assert calls[-1] == ("forward", 7 + 1)


class TestValidationGroups:
    def test_accuracy_over_config_groups(self):
        """accuracy over one group a config, each at its own crop width, is
        the share of all their rows whose argmax is their label, from one
        forward_all call; a sequence of one group is that group."""
        net = crop_net(3, 23, 3, 2, seed=7)
        rng = np.random.default_rng(7)
        values, labels = rng.normal(size=(9, 2, 23)), rng.integers(0, 3, 9)
        configs = [PatchConfig(4, 6, attach=True), PatchConfig(7, 9, attach=True)]
        groups = [build_patch_arrays(values, labels, [config], net.halo) for config in configs]
        assert groups[0][0].shape[2] < groups[1][0].shape[2]
        probs = forward_all(net, [(x, offsets) for x, _, offsets in groups])
        hits = np.concatenate([np.argmax(p, axis=1) == y for p, (_, y, _) in zip(probs, groups)])
        assert accuracy(net, groups) == hits.sum() / len(hits)
        assert accuracy(net, groups[1:]) == accuracy(net, groups[1]) == hits[len(groups[0][1]):].mean()


class TestCropsAgainstTheTensor:
    """The network on crops cut per batch and per slice from the value table,
    against the same network on the oracle's slot-loop tensor: bit for bit."""

    @staticmethod
    def splits(attach, notemp, n_train=40, n_val=30, length=23):
        rng = np.random.default_rng(int(attach) * 2 + int(notemp))
        configs = [PatchConfig(stride, size, attach=attach, notemp=notemp) for stride, size in ((4, 6), (7, 9))]
        splits = []
        for n in (n_train, n_val):
            values = rng.normal(size=(n, 2, length))
            labels = (values.max(axis=(1, 2)) > 2.2).astype(np.int64)
            splits.append((values, labels))
        return configs, splits

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("optimizer", ["adam", "sgd-momentum"])
    def test_train_on_crops_equals_train_on_the_tensor(self, attach, notemp, optimizer):
        configs, splits = self.splits(attach, notemp)
        spec = NetworkSpec(2 + attach, 23, 2, conv_blocks=((4, 3, "relu"), (5, 2, "relu")), seed=3)
        train_spec = TrainSpec(epochs=3, batch_size=16, learning_rate=5e-3, optimizer=optimizer,
                               early_stopping_patience=0, seed=5)
        nets, logs = [], []
        for build in (build_patch_arrays, patch_tensor):
            net = build_network(spec)
            patches = [build(values, labels, configs, net.halo) for values, labels in splits]
            logs.append(train(net, *patches, train_spec))
            nets.append(net)
        crops_log, tensor_log = logs
        assert crops_log.train_loss == tensor_log.train_loss
        assert crops_log.val_accuracy == tensor_log.val_accuracy
        assert crops_log.best_epoch == tensor_log.best_epoch
        np.testing.assert_array_equal(nets[0].flat_params, nets[1].flat_params)

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    def test_forward_all_over_several_slices(self, attach, notemp):
        configs, splits = self.splits(attach, notemp, n_train=2 * EVAL_BATCH // 10 + 7)  # 10 slots a sample
        net = crop_net(2 + attach, 23, 3, 2, seed=2)
        values, labels = splits[0]
        crops, _, offsets = build_patch_arrays(values, labels, configs, net.halo)
        tensor = patch_tensor(values, labels, configs, net.halo)[0]
        assert len(crops) > 2 * EVAL_BATCH
        got, want = forward_all(net, [(crops, offsets), (tensor, offsets)])
        np.testing.assert_array_equal(got, want)


class TestScratchAgainstFreshArrays:
    """train and forward_all reuse one Scratch across batches and slices;
    the same steps on freshly allocated arrays must give the same bits, with
    partial last batches, and kernels 2 and 3 in either order."""

    BLOCKS = [((4, 2, "relu"), (5, 3, "relu")), ((4, 3, "relu"), (5, 2, "relu"))]
    BLOCK_IDS = ["k2-k3", "k3-k2"]

    @staticmethod
    def net_and_crops(blocks, n, seed):
        rng = np.random.default_rng(seed)
        configs = [PatchConfig(4, 6, attach=True), PatchConfig(7, 9, attach=True)]
        values = rng.normal(size=(n, 2, 23))
        labels = rng.integers(0, 3, n)
        net = build_network(NetworkSpec(3, 23, 3, conv_blocks=blocks, seed=seed))
        for conv in net.convs:  # biases too, so the empty frame is not zero
            conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
        return net, build_patch_arrays(values, labels, configs, net.halo)

    @pytest.mark.parametrize("blocks", BLOCKS, ids=BLOCK_IDS)
    def test_train_equals_a_loop_without_scratch(self, blocks):
        net, patches = self.net_and_crops(blocks, n=7, seed=4)  # 70 rows: batches of 16, the last of 6
        _, val = self.net_and_crops(blocks, n=5, seed=6)
        spec = TrainSpec(epochs=3, batch_size=16, learning_rate=5e-3, early_stopping_patience=0, seed=8)
        reference = build_network(net.spec)
        reference.flat_params[...] = net.flat_params
        log = train(net, patches, val, spec)

        crops, y, offsets = patches
        rng = np.random.default_rng(spec.seed)
        optimizer = Adam(reference.flat_params.size, spec.learning_rate)
        losses, accuracies, params = [], [], []
        for _ in range(spec.epochs):
            order = rng.permutation(len(y))
            batch_losses = []
            for lo in range(0, len(y), spec.batch_size):
                idx = order[lo : lo + spec.batch_size]
                loss, grad = _loss_and_gradients(reference, (crops[idx], y[idx], offsets[idx]))
                batch_losses.append(loss)
                optimizer.step(reference.flat_params, grad)
            losses.append(math.fsum(batch_losses) / len(batch_losses))
            logits, _ = reference._forward_cached(val[0][:], val[2])
            accuracies.append(float((np.argmax(softmax(logits), axis=1) == val[1]).mean()))
            params.append(reference.flat_params.copy())
        assert log.train_loss == losses
        assert log.val_accuracy == accuracies
        np.testing.assert_array_equal(net.flat_params, params[log.best_epoch])

    @pytest.mark.parametrize("blocks", BLOCKS, ids=BLOCK_IDS)
    @pytest.mark.parametrize("cut", ["crops", "tensor"])
    def test_forward_all_equals_slices_without_scratch(self, blocks, cut):
        net, (crops, _, offsets) = self.net_and_crops(blocks, n=2 * EVAL_BATCH // 10 + 3, seed=5)
        x = crops if cut == "crops" else crops[:]
        assert 2 * EVAL_BATCH < len(x) < 3 * EVAL_BATCH
        step = EVAL_BATCH - 1  # and the all-zero crop
        expected = [softmax(net._forward_cached(x[lo : lo + step], offsets[lo : lo + step])[0])
                    for lo in range(0, len(x), step)]
        np.testing.assert_array_equal(forward_all(net, [(x, offsets)])[0], np.concatenate(expected))

    def test_crops_with_other_channels_raise_dimension_error(self):
        """Crops of 3 channels given to a 2-channel network fail before the
        first cut, with the shapes, in train and in forward_all."""
        net, patches = self.net_and_crops(self.BLOCKS[0], n=2 * EVAL_BATCH // 10 + 3, seed=5)
        narrow = build_network(replace(net.spec, input_channels=2))
        with pytest.raises(DimensionError, match=r"expected input \(batch, 2, width <= 23\)"):
            train(narrow, patches, patches, TrainSpec(epochs=1, batch_size=16, early_stopping_patience=0, seed=0))
        with pytest.raises(DimensionError, match=r"expected input \(batch, 2, width <= 23\)"):
            forward_all(narrow, [(patches[0], patches[2])])


class TestScratchSizes:
    """PatchNet.scratch(batch, width, backward=...) holds every buffer that a
    forward (or a training step) of up to batch crops of that width asks
    for, and no conv makes an array of its own once the Scratch is built."""

    SPEC = NetworkSpec(3, 40, 3, conv_blocks=((5, 2, "relu"), (4, 3, "relu"), (6, 1, "relu")), seed=2)

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("batch", [1, 7, 3 * ROW_BLOCK // 20], ids=["one", "partial-block", "several-blocks"])
    def test_holds_every_buffer_asked_for(self, monkeypatch, batch, backward):
        net = build_network(self.SPEC)
        rng = np.random.default_rng(batch)
        for conv in net.convs:
            conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
        values, labels = rng.normal(size=(batch, 2, 40)), rng.integers(0, 3, batch)
        crops, _, offsets = build_patch_arrays(values, labels, [PatchConfig(40, 16, attach=True)], net.halo)
        crops, offsets = crops[np.arange(batch)], offsets[:batch]  # one crop per sample
        width = crops.shape[2]
        assert batch * (width + 1) > ROW_BLOCK or batch < 10
        scratch = net.scratch(batch, width, backward=backward)
        asked, made, inside = [], [], []
        def recording(self, key, shape, method=Scratch.empty):
            asked.append((key, math.prod(shape)))
            return method(self, key, shape)
        monkeypatch.setattr(Scratch, "empty", recording)
        for name in ("forward", "backward"):
            def marked(conv, *args, scratch=None, method=getattr(Conv1d, name), **kwargs):
                inside.append(scratch is not None)
                try:
                    return method(conv, *args, scratch=scratch, **kwargs)
                finally:
                    inside.pop()
            monkeypatch.setattr(Conv1d, name, marked)
        for name in ("empty", "zeros"):  # the zero block is the layer's, made when it was built
            monkeypatch.setattr(np, name, lambda *args, method=getattr(np, name), **kwargs: (
                made.append(args) if inside and inside[-1] else None) or method(*args, **kwargs))
        if backward:  # one training step: the crops and the all-zero crop after them
            _loss_and_gradients(net, (crops, labels, offsets), scratch=scratch)
        else:  # one evaluation slice of the same rows
            net._forward_cached(crops, offsets, scratch=scratch)
        monkeypatch.undo()
        assert made == []
        assert {key for key, _ in asked} <= set(scratch.buffers)
        for key, entries in asked:
            assert entries <= len(scratch.buffers[key]), key
        # each conv writes into the next one's frame, so only the last has an output buffer
        want = {(conv, "frame") for conv in net.convs} | {(net.convs[-1], "out")}
        if backward:  # the first layer's input gradient is not computed
            want |= {(conv, "dframe") for conv in net.convs[1:]}
        assert {key for key, _ in asked if not isinstance(key, str)} == want
        assert {key for key, _ in asked if isinstance(key, str)} == {"bias", "product"} | ({"dout", "dw"} if backward else set())


class TestOneSetUpPerCall:
    """Set-up that a call's loops would repeat is done once: each conv's zero
    block is made when the conv is built and only read, each entry point
    checks its input once, and one forward_all call makes one Scratch for
    all its groups, of at most EVAL_BATCH rows, the most that its slices
    take."""

    SPEC = TestScratchSizes.SPEC
    BLOCKS = TestScratchAgainstFreshArrays.BLOCKS[0]

    def test_zero_blocks_are_read_only(self):
        for conv in build_network(self.SPEC).convs:
            assert conv.zeros.shape == (ROW_BLOCK, conv.w.shape[0]) and not conv.zeros.any()
            with pytest.raises(ValueError, match="read-only"):
                conv.zeros[0, 0] = 1.0

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_no_scratch_holds_a_zero_block(self, backward):
        buffers = build_network(self.SPEC).scratch(7, 20, backward=backward).buffers
        assert "zeros" not in {key if isinstance(key, str) else key[1] for key in buffers}
        assert not hasattr(Scratch, "zeros")

    @staticmethod
    def checked_inputs(monkeypatch) -> list:
        """The x of every _check_input call from here on."""
        checked, check = [], PatchNet._check_input
        monkeypatch.setattr(PatchNet, "_check_input",
                            lambda net, x, offsets: checked.append(x) or check(net, x, offsets))
        return checked

    def test_forward_all_checks_once_over_three_slices(self, monkeypatch):
        net, (crops, _, offsets) = TestScratchAgainstFreshArrays.net_and_crops(self.BLOCKS, 2 * EVAL_BATCH // 10 + 3, 5)
        assert 2 * EVAL_BATCH < len(crops) < 3 * EVAL_BATCH
        checked = self.checked_inputs(monkeypatch)
        forward_all(net, [(crops, offsets)])
        assert len(checked) == 1 and checked[0] is crops

    def test_train_checks_its_rows_once_and_validation_once_per_epoch(self, monkeypatch):
        net, patches = TestScratchAgainstFreshArrays.net_and_crops(self.BLOCKS, n=7, seed=4)  # 70 rows, 5 steps
        _, val = TestScratchAgainstFreshArrays.net_and_crops(self.BLOCKS, n=5, seed=6)
        checked = self.checked_inputs(monkeypatch)
        log = train(net, patches, val, TrainSpec(epochs=3, batch_size=16, early_stopping_patience=0, seed=8))
        assert log.epochs_run == 3
        assert [x is patches[0] for x in checked] == [True, False, False, False]
        assert all(x is val[0] for x in checked[1:])

    @staticmethod
    def made_scratches(monkeypatch) -> list:
        """Every Scratch that PatchNet.scratch makes from here on."""
        made, make = [], PatchNet.scratch
        monkeypatch.setattr(PatchNet, "scratch", lambda *args, **kwargs: made.append(make(*args, **kwargs)) or made[-1])
        return made

    @staticmethod
    def sizes(scratch: Scratch) -> dict:
        return {key: len(part) for key, part in scratch.buffers.items()}

    def test_a_forward_only_scratch_holds_at_most_eval_batch_rows(self, monkeypatch):
        """EVAL_BATCH - 1 crops and the all-zero crop after them, or EVAL_BATCH whole frames."""
        net = build_network(self.SPEC)
        made = self.made_scratches(monkeypatch)
        forward_all(net, [(np.zeros((5 * EVAL_BATCH, 3, 16)), np.zeros(5 * EVAL_BATCH, dtype=np.int64))])
        monkeypatch.undo()
        assert len(made) == 1
        assert self.sizes(made[0]) == self.sizes(net.scratch(EVAL_BATCH - 1, 16))
        first = net.convs[0]  # crops are cut into the inside of its frame
        assert self.sizes(made[0])[(first, "frame")] == EVAL_BATCH * (16 + first.kernel - 1) * self.SPEC.input_channels
        big, small = (self.sizes(net.scratch(n, 16, backward=True)) for n in (5 * EVAL_BATCH, EVAL_BATCH))
        assert big.keys() == small.keys()
        # a training batch of n crops carries the all-zero crop as row n + 1
        assert all(big[key] * (EVAL_BATCH + 1) == small[key] * (5 * EVAL_BATCH + 1)
                   for key in big if key not in ("bias", "product", "dw"))
        length = self.SPEC.input_length  # so do EVAL_BATCH - 1 crops, and EVAL_BATCH whole frames fit beside them
        made = self.made_scratches(monkeypatch)
        forward_all(net, [(np.zeros((5 * EVAL_BATCH, 3, length)), np.zeros(5 * EVAL_BATCH, dtype=np.int64))])
        monkeypatch.undo()
        assert self.sizes(made[0])[(first, "frame")] == EVAL_BATCH * (length + first.kernel - 1) * 3

    def test_one_call_sets_up_once_over_its_groups(self, monkeypatch):
        """Two groups of different widths and sizes, one over EVAL_BATCH rows,
        give in one call the bits that each gives alone, from one Scratch,
        sized for the largest slice and the widest crop."""
        rng = np.random.default_rng(9)
        net = build_network(NetworkSpec(3, 23, 3, conv_blocks=self.BLOCKS, seed=9))
        for conv in net.convs:  # biases too, so the empty frame is not zero
            conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
        groups = []
        for n, config in ((EVAL_BATCH // 5 + 3, PatchConfig(4, 6, attach=True)), (7, PatchConfig(7, 9, attach=True))):
            crops, _, offsets = build_patch_arrays(rng.normal(size=(n, 2, 23)), np.zeros(n, np.int64), [config], net.halo)
            groups.append((crops, offsets))
        (long, narrow), (short, wide) = ((len(x), x.shape[2]) for x, _ in groups)
        assert long > EVAL_BATCH > short and wide > narrow  # the largest group is not the widest
        alone = [forward_all(net, [group])[0] for group in groups]
        made = self.made_scratches(monkeypatch)
        together = forward_all(net, groups)
        monkeypatch.undo()
        assert len(together) == 2
        for got, want in zip(together, alone):
            np.testing.assert_array_equal(got, want)
        assert len(made) == 1
        assert self.sizes(made[0]) == self.sizes(net.scratch(EVAL_BATCH - 1, wide))

    def test_forward_all_takes_no_frame_or_scratch(self):
        assert list(inspect.signature(forward_all).parameters) == ["net", "groups"]


def make_constant_patches(n, value, label, channels=1, length=16):
    x = np.full((n, channels, length), float(value))
    y = np.full(n, label, dtype=np.int64)
    return x, y


class TestTrain:
    def separable_toy(self):
        """(x, y, offsets) of 80 whole frames, two constant classes."""
        x0, y0 = make_constant_patches(40, 1.0, 0)
        x1, y1 = make_constant_patches(40, -1.0, 1)
        x = np.concatenate([x0, x1])
        return x, np.concatenate([y0, y1]), zero_offsets(x)

    def test_separable_toy_reaches_perfect_validation(self):
        toy = self.separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=0)
        net = build_network(spec)
        log = train(net, toy, toy, TrainSpec(epochs=20, batch_size=16,
                                                   learning_rate=0.01, early_stopping_patience=19, seed=0))
        assert log.best_val_accuracy == 1.0
        assert accuracy(net, toy) == 1.0

    def test_deterministic_serial_runs(self):
        toy = self.separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=3)
        tspec = TrainSpec(epochs=4, batch_size=16, learning_rate=0.01,
                          early_stopping_patience=3, seed=3)
        net_a = build_network(spec)
        train(net_a, toy, toy, tspec)
        net_b = build_network(spec)
        train(net_b, toy, toy, tspec)
        for (name_a, p_a), (_, p_b) in zip(net_a.parameters(), net_b.parameters()):
            np.testing.assert_array_equal(p_a, p_b, err_msg=name_a)

    def test_divergence_raises_with_epoch(self):
        toy = self.separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=0)
        net = build_network(spec)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch") as err:
            train(net, toy, toy,
                  TrainSpec(epochs=10, batch_size=16, learning_rate=1e12,
                            optimizer="sgd-momentum", early_stopping_patience=9, seed=0))
        assert err.match(r"batch [0-4]$")  # 80 patches make batches 0-4 of 16

    def test_early_stopping_stops(self):
        toy = self.separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=0)
        net = build_network(spec)
        log = train(net, toy, toy,
                    TrainSpec(epochs=30, batch_size=16, learning_rate=0.01,
                              early_stopping_patience=2, seed=0))
        # validation accuracy saturates at 1.0 quickly, so patience must fire
        assert log.epochs_run < 30
        assert log.epochs_run >= log.best_epoch + 2

    def test_empty_validation_rejected(self):
        toy = self.separable_toy()
        net = build_network(NetworkSpec(1, 16, 2, conv_blocks=(), seed=0))
        with pytest.raises(ValueError):
            train(net, toy, (np.zeros((0, 1, 16)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
                  TrainSpec(epochs=2, early_stopping_patience=1))

    def test_empty_training_rejected(self):
        toy = self.separable_toy()
        net = build_network(NetworkSpec(1, 16, 2, conv_blocks=(), seed=0))
        with pytest.raises(ValueError, match="training patches must be non-empty"):
            train(net, (np.zeros((0, 1, 16)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)), toy,
                  TrainSpec(epochs=2, early_stopping_patience=1))

    def test_sgd_momentum_also_learns(self):
        toy = self.separable_toy()
        net = build_network(NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=1))
        log = train(net, toy, toy,
                    TrainSpec(epochs=20, batch_size=16, learning_rate=0.01,
                              optimizer="sgd-momentum", early_stopping_patience=19, seed=1))
        assert log.best_val_accuracy == 1.0


def assert_views_flat_params(net):
    """Every layer's w and b is a view of net.flat_params, and together they
    tile it in parameters() order."""
    params = net.parameters()
    layers = [p for layer in (*net.convs, net.dense) for p in (layer.w, layer.b)]
    for (name, p), q in zip(params, layers, strict=True):  # the same view
        assert (p.shape, p.strides, p.ctypes.data) == (q.shape, q.strides, q.ctypes.data), name
    for name, p in params:
        assert np.shares_memory(p, net.flat_params), name
    np.testing.assert_array_equal(np.concatenate([p.ravel() for _, p in params]), net.flat_params)
    assert sum(p.size for _, p in params) == net.flat_params.size


class TestFlatParameters:
    def test_build_draws_the_layers_initialisation(self):
        """Each weight is drawn from U(+-1/sqrt(fan-in)) in layout order, and
        every bias is zero: the draws of layers that each drew their own."""
        net = build_network(TINY)
        rng = np.random.default_rng(TINY.seed)
        convs = [conv_layer(2, 4, 3, rng), conv_layer(4, 5, 3, rng)]
        dense_w = rng.uniform(-1 / math.sqrt(5), 1 / math.sqrt(5), size=(3, 5))
        expected = np.concatenate([p.ravel() for conv in convs for p in (conv.w, conv.b)]
                                  + [dense_w.ravel(), np.zeros(3)])
        assert net.flat_params.tobytes() == expected.tobytes()
        assert_views_flat_params(net)

    @pytest.mark.parametrize("flat_cls, named_cls", [(Adam, NamedAdam), (SgdMomentum, NamedSgdMomentum)],
                             ids=["adam", "sgd-momentum"])
    def test_flat_step_matches_per_name_steps(self, flat_cls, named_cls):
        net, reference = build_network(TINY), build_network(TINY)
        flat = flat_cls(net.flat_params.size, 0.05)
        named = named_cls([(name, p.copy()) for name, p in reference.parameters()], 0.05)
        rng = np.random.default_rng(5)
        for _ in range(20):
            grads = {name: rng.normal(size=p.shape) for name, p in reference.parameters()}
            named.step(grads)
            flat.step(net.flat_params, np.concatenate([grads[name].ravel() for name, _ in net.parameters()]))
        for (name, p), (_, q) in zip(net.parameters(), named.params):
            assert p.tobytes() == q.tobytes(), name
        assert_views_flat_params(net)

    def test_best_epoch_restore_keeps_the_views(self):
        """train restores the best epoch's parameters in place: the views still
        hold, and the parameters are those of a run that stops at that epoch."""
        toy = TestTrain().separable_toy()
        spec = NetworkSpec(1, 16, 2, conv_blocks=((4, 3, "relu"),), seed=0)
        tspec = TrainSpec(epochs=6, batch_size=16, learning_rate=0.05, early_stopping_patience=0, seed=0)
        net, stopped = build_network(spec), build_network(spec)
        evens, odds = [a[::2] for a in toy], [a[1::2] for a in toy]
        log = train(net, evens, odds, tspec)
        assert log.best_epoch < log.epochs_run - 1  # the restore replaces later parameters
        train(stopped, evens, odds, replace(tspec, epochs=log.best_epoch + 1))
        assert net.flat_params.tobytes() == stopped.flat_params.tobytes()
        assert_views_flat_params(net)


class TestTrainSpecValidation:
    def test_patience_must_be_below_epochs(self):
        with pytest.raises(ValueError):
            TrainSpec(epochs=5, early_stopping_patience=5)

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            TrainSpec(optimizer="lbfgs")

    def test_nan_learning_rate(self):
        with pytest.raises(ValueError, match="must be positive"):
            TrainSpec(learning_rate=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("batch_size", 1.5), ("batch_size", True),
        ("early_stopping_patience", 1.0), ("early_stopping_patience", False), ("seed", 1.5), ("seed", True),
        ("learning_rate", float("inf")), ("learning_rate", -float("inf")), ("learning_rate", float("nan")),
        ("learning_rate", 0.0), ("learning_rate", True), ("learning_rate", "0.1"),
    ])
    def test_each_field_rejects_a_bad_value_by_name(self, field, value):
        """Counts are integers and not bools, and the learning rate is a finite
        positive number; each ValueError names its field, where epochs=2.5
        once read as a patience error and batch_size=1.5 failed in numpy."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainSpec(**{field: value})


class TestMaskedRegionInsensitivity:
    def test_outside_perturbation_invisible(self):
        rng = np.random.default_rng(21)
        sample = TimeSeriesSample(id=0, values=rng.normal(size=(2, 20)), label=0)
        config = PatchConfig(5, 5, attach=True)
        spec = NetworkSpec(3, 20, 2, conv_blocks=((4, 3, "relu"),), seed=2)
        net = build_network(spec)
        patch = transform(sample, 1, config)  # valid range [5, 10)
        perturbed_values = sample.values.copy()
        perturbed_values[:, 12:] += 100.0  # strictly outside the valid range
        perturbed = TimeSeriesSample(id=0, values=perturbed_values, label=0)
        patch_perturbed = transform(perturbed, 1, config)
        np.testing.assert_array_equal(patch.values, patch_perturbed.values)
        np.testing.assert_array_equal(
            forward(net, patch.values), forward(net, patch_perturbed.values)
        )


class TestNetworkSpecValidation:
    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="kernel"):
            NetworkSpec(1, 4, 2, conv_blocks=((4, 5, "relu"),))

    @pytest.mark.parametrize("activation", ["gelu", "linear"])
    def test_every_block_is_a_relu_block(self, activation):
        with pytest.raises(ValueError, match=f"relu block, got activation '{activation}'"):
            NetworkSpec(1, 8, 2, conv_blocks=((4, 3, "relu"), (4, 3, activation)))

    @pytest.mark.parametrize("field, value", [
        ("input_channels", 2.0), ("input_length", 8.0), ("input_length", True), ("class_count", 2.0),
        ("class_count", "2"), ("seed", 1.5), ("seed", False), ("conv_blocks", ((4.0, 3, "relu"),)),
        ("conv_blocks", ((4, 3.0, "relu"),)), ("conv_blocks", ((True, 3, "relu"),)),
    ])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        spec = NetworkSpec(1, 8, 2, conv_blocks=((4, 3, "relu"),))
        with pytest.raises(ValueError, match="integer"):
            replace(spec, **{field: value})
