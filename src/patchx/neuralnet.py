"""From-scratch 1-D convolutional patch classifier.

Architecture: a stack of same-padded Conv1d+ReLU blocks (a NetworkSpec
names no other activation), global average pooling over time, and a dense
layer producing class logits; softmax on top.
Activations keep the logical shape (batch, channels, length) over time-major
memory, (length, batch, channels) C-contiguous, as do their gradients; a
convolution is one shifted GEMM per kernel tap, on rows shifted by whole
steps of the batch, so no output row straddles two crops. Each conv writes
its output straight into the inside of the next conv's frame, and crops are
cut straight into the first conv's (an array input is copied there), so
layers chain without copies; only pad rows are written apart. Pooling sums the last activation's contiguous
(batch, channels) rows in step order. A batch is (x, y, offsets): each row
of x is a crop at its offset, which build_patch_arrays cuts from the patch
layout (each window widened by the network's halo); whole frames are crops
of width W = L at offset 0, with nothing outside them. Training batches mix
patch configs and so take the layout's widest crop; evaluation, validation
included, forwards each config at its own, as one group of a forward_all
call (PatchXBundle.patch_groups cuts them). Outside its crop a frame is
zero, so every activation there is that of the all-zero input (the empty
frame). Each layer's activation of it is the same at every step farther
than the halo from both frame ends, so an all-zero input of
patching.least_width = min(L, before + after + 1) steps or more holds all
its values, each step read at its column (_columns, the identity at width
L); every entry point rejects narrower crops (_check_input), and the layout
cuts none. A training batch and an evaluation slice of crops narrower than
L are cut alike, with one such crop of their width after them, and run one
forward over all of them: each layer's pad rows read that last row's
activations, and in training what the crops read outside themselves goes
back into its gradient in the same backward, through the reads each layer's
forward kept in its cache. Whole frames read nothing outside themselves and
carry no such row. A ReLU is taken inside the convolution's row-block
loop, while the block is in cache. Every elementwise operation of that loop
reads an operand of the block's full shape, and the loop allocates nothing:
a bias block filled once per call, the layer's read-only zero block, made
when the layer is built, and one product buffer that taps 1 to k-1
multiply into. numpy's ufuncs run several times slower on a broadcast row
or a scalar than on a full block (README step 2 has the timings); the
results are those of the broadcast loop, bit for bit. x is an array or
patching.Crops, which train cuts one batch at a time and forward_all one
EVAL_BATCH slice at a time. Each entry point (forward_all, train,
gradient_check) checks its input's shape, width and offsets once, before
the first cut. train and forward_all each make one
Scratch when they start: the writable per-call buffers (every conv's frame,
the last conv's output, the gradient arrays, and the convs' shared bias and
product blocks) in one allocation, reused at each step and dropped when the
call returns. All math is float64 numpy, so serial runs are
bit-reproducible and the analytic gradients can be checked against central
finite differences. Parameters and gradients share one flat layout, which
parameter_shapes(spec) states: the network allocates its parameter vector
from it and draws each weight in place, every layer's weights and biases
view that vector, and backward writes each layer's gradients to the same
place in one gradient vector, so the optimizer steps one array with another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .patching import Crops, least_width

LOG_CLAMP = 1e-12
EVAL_BATCH = 1024
ROW_BLOCK = 1024  # frame rows per shifted GEMM in Conv1d
OPTIMIZERS = ("adam", "sgd-momentum")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SGD_MOMENTUM = 0.9
GRADCHECK_BATCH = 4
GRADCHECK_STEP = 1e-3  # central-difference step per unit of max(1, |parameter|)
KINK_MARGIN = 0.02  # least distance of a gradcheck ReLU pre-activation from zero


class DimensionError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class NetworkSpec:
    input_channels: int
    input_length: int
    class_count: int
    conv_blocks: tuple[tuple[int, int, str], ...] = ((32, 3, "relu"), (64, 3, "relu"), (64, 3, "relu"))
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(type(d) is int and d >= 1 for d in (self.input_channels, self.input_length)):  # no bools
            raise ValueError(f"input dimensions must be positive integers, got {(self.input_channels, self.input_length)}")
        if not (type(self.class_count) is int and self.class_count >= 2):
            raise ValueError(f"class_count must be an integer >= 2, got {self.class_count!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for filters, kernel, activation in self.conv_blocks:
            if not (type(filters) is int and filters >= 1):
                raise ValueError(f"filter count must be an integer >= 1, got {filters!r}")
            if not (type(kernel) is int and 1 <= kernel <= self.input_length):
                raise ValueError(f"kernel size {kernel!r} outside [1, {self.input_length}] or not an integer")
            if activation != "relu":
                raise ValueError(f"every conv block is a relu block, got activation {activation!r}")


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # one of OPTIMIZERS
    early_stopping_patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "early_stopping_patience", "seed"):
            if type(getattr(self, name)) is not int:  # a bool or a float is no count
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ValueError(f"epochs and batch_size must be positive, got {(self.epochs, self.batch_size)}")
        rate = self.learning_rate
        if isinstance(rate, bool) or not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {rate!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if not (0 <= self.early_stopping_patience < self.epochs):
            raise ValueError("early_stopping_patience must be in [0, epochs)")


class Scratch:
    """The writable arrays that one call's loop reuses from step to step (a
    constant, such as a conv's zero block, is the layer's): sizes maps each
    key to the most entries a step asks of it. All are parts of one
    allocation, made once, and each step views its key's part in the shape
    it needs. The call drops it on return, so no buffer outlives the call and
    none goes back to the allocator mid-loop. One allocation, not one per
    key: glibc's malloc keeps a freed block that large for the next loop,
    where separate buffers were faulted in again by every call."""

    def __init__(self, sizes: dict):
        arena, self.buffers, start = np.empty(sum(sizes.values())), {}, 0
        for key, size in sizes.items():
            self.buffers[key], start = arena[start : start + size], start + size

    def empty(self, key, shape: tuple[int, ...]) -> np.ndarray:
        return self.buffers[key][: math.prod(shape)].reshape(shape)


def _empty(scratch: Scratch | None, key, shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape) if scratch is None else scratch.empty(key, shape)


class Conv1d:
    """Same-padded 1-D convolution as one shifted GEMM per kernel tap (kn2row).

    Arrays keep the logical shape (batch, channels, length) over time-major
    memory: (length, batch, channels), C-contiguous. The zero-padded input is
    one (length + kernel - 1, batch, in_channels) frame, read as a flat
    matrix of in_channels columns; tap j multiplies its rows [j * batch,
    (j + length) * batch), so the layer computes exactly length * batch
    output rows and none straddles two samples. w (out_channels,
    in_channels, kernel) and b (out_channels,) are the layer's parameters,
    views of the network's flat_params; zeros is the ReLU's read-only
    (ROW_BLOCK, out_channels) zero block.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b
        self.zeros = np.zeros((ROW_BLOCK, len(b)))
        self.zeros.flags.writeable = False
        self.kernel = kernel = w.shape[2]
        self.pad_left = (kernel - 1) // 2
        self.pad_right = kernel - 1 - self.pad_left

    def forward(
        self, x: np.ndarray, *, frame: np.ndarray | None = None, out: np.ndarray | None = None,
        edges: np.ndarray | None = None, relu: bool = False, scratch: Scratch | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """x: (batch, in_channels, length) -> (out, flat); out is a transposed
        view of time-major memory, flat the padded input frame kept for
        backprop, ((length + kernel - 1) * batch, in_channels).

        x is padded in frame, by default self.frame(batch, length, scratch);
        an x that already views the frame's inside, as the previous conv's out
        or a cut of crops leaves it, is not copied (numpy skips an assignment
        of an array to itself). The pad rows are zeros, or, when x is a crop
        of a longer input, edges: (pad_left + pad_right, batch, in_channels)
        values that the input holds around the crop (rows edge_rows(length)).
        The output goes to out, a (length, batch, out_channels) array such as
        the next conv's frame inside, or else to scratch's buffer or a new
        one. With relu, out is max(pre-activation, 0), taken per row block
        while it is in cache. The bias and product blocks are scratch's when
        it is given, else new, as the frame gradient in backward."""
        batch, in_channels, length = x.shape
        if frame is None:
            frame = self.frame(batch, length, scratch)
        self.inside(frame)[...] = x.transpose(2, 0, 1)
        if edges is None:
            frame[: self.pad_left] = frame[self.pad_left + length :] = 0.0
        else:
            frame[self.edge_rows(length)] = edges
        flat = frame.reshape(-1, in_channels)
        taps = self.w.transpose(2, 1, 0).copy()  # (kernel, in, out)
        rows, out_channels = length * batch, len(self.b)
        if out is None:
            out = _empty(scratch, (self, "out"), (length, batch, out_channels))
        acc = out.reshape(rows, out_channels)
        block_shape = (min(ROW_BLOCK, rows), out_channels)
        zeros = self.zeros[: block_shape[0]]
        bias, product = _empty(scratch, "bias", block_shape), _empty(scratch, "product", block_shape)
        bias[...] = self.b
        for lo, hi in _row_blocks(rows):
            block = acc[lo:hi]
            if hi - lo < len(bias):  # the last of several blocks, and partial
                bias, product, zeros = bias[: hi - lo], product[: hi - lo], zeros[: hi - lo]
            np.matmul(flat[lo:hi], taps[0], out=block)
            for j in range(1, self.kernel):
                np.matmul(flat[lo + j * batch : hi + j * batch], taps[j], out=product)
                block += product
            block += bias
            if relu:
                np.maximum(block, zeros, out=block)
        return out.transpose(1, 2, 0), flat

    def backward(
        self, dout: np.ndarray, flat: np.ndarray, in_shape: tuple[int, int, int], *, input_grad: bool = True,
        scratch: Scratch | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(dframe, dw, db): dframe is the gradient of the whole padded input
        frame, (batch, in_channels, length + kernel - 1) over time-major
        memory, or None when input_grad is false. dout is read where it lies
        when it views time-major memory, as every gradient the network passes
        does; dframe lives in scratch's buffer when it is given."""
        batch, in_channels, length = in_shape
        g = dout.transpose(2, 0, 1).reshape(-1, len(self.b))  # a copy only for another layout
        dw = _empty(scratch, "dw", (self.kernel, *self.w.shape[:2]))  # (kernel, out, in), one GEMM a tap
        for j in range(self.kernel):
            np.matmul(g.T, flat[j * batch : j * batch + len(g)], out=dw[j])
        db = np.ones(len(g)) @ g  # a GEMV; g.sum(axis=0) loops over narrow rows
        if not input_grad:
            return None, dw.transpose(1, 2, 0), db
        taps = self.w.transpose(2, 0, 1).copy()  # (kernel, out, in)
        dxp = _empty(scratch, (self, "dframe"), flat.shape)
        dxp[...] = 0.0
        product = _empty(scratch, "product", (min(ROW_BLOCK, len(g)), in_channels))
        for lo, hi in _row_blocks(len(g)):
            block = product[: hi - lo]
            for j in range(self.kernel):
                np.matmul(g[lo:hi], taps[j], out=block)
                dxp[lo + j * batch : hi + j * batch] += block
        return dxp.reshape(length + self.kernel - 1, batch, in_channels).transpose(1, 2, 0), dw.transpose(1, 2, 0), db

    def frame(self, batch: int, length: int, scratch: Scratch | None = None) -> np.ndarray:
        """The (length + kernel - 1, batch, in_channels) array that forward
        pads a length-long input in: scratch's when it is given, else new."""
        return _empty(scratch, (self, "frame"), (length + self.kernel - 1, batch, self.w.shape[1]))

    def inside(self, frame: np.ndarray) -> np.ndarray:
        """The rows of a frame (or of its gradient) between its pad rows."""
        return frame[self.pad_left : len(frame) - self.pad_right]

    def buffer_sizes(self, batch: int, length: int, backward: bool) -> dict:
        """The entries each scratch buffer of forward (and of backward) takes
        at most for inputs of up to batch rows of this length. The bias and
        product blocks are keyed by name alone: each conv uses them only
        inside its forward, so the convs of a network share them."""
        out_channels, in_channels, _ = self.w.shape
        framed = batch * (length + self.kernel - 1)
        block = min(ROW_BLOCK, batch * length) * out_channels
        sizes = {(self, "frame"): framed * in_channels, (self, "out"): batch * length * out_channels,
                 "bias": block, "product": block}
        if backward:  # the product block holds an input-gradient product too, and dw one GEMM a tap
            sizes[(self, "dframe")] = framed * in_channels
            sizes["product"] = min(ROW_BLOCK, batch * length) * max(out_channels, in_channels)
            sizes["dw"] = self.w.size
        return sizes

    def edge_rows(self, length: int) -> np.ndarray:
        """The pad rows of the frame of a length-long input, left then right."""
        right = self.pad_left + length
        return np.concatenate((np.arange(self.pad_left), np.arange(right, right + self.pad_right)))


@functools.lru_cache(maxsize=256)
def _columns(length: int, halo: tuple[int, int], width: int, left: int = 0, right: int = 0) -> np.ndarray:
    """The row of a width-wide all-zero input that holds each row of a
    length-long all-zero frame padded by left and right, in every layer, for
    a network of this halo (before, after) and width >= min(length, before
    + after + 1); read-only. Of the length-long frame, the first after
    steps see its start through the conv stack and the last before steps
    its end: step p reads column p below width - before, the column as far
    from the end from length - before on, and column after, where every
    layer's activation is that of the interior, in between. The pad steps
    read the row's own zero pad rows. So the map is the identity when
    width = length."""
    before, after = halo
    steps = np.arange(-left, length + right)
    ends = np.where(steps < width - before, steps, steps - (length - width))
    columns = np.where((steps < width - before) | (steps >= length - before), ends, after)
    columns += left
    columns.flags.writeable = False
    return columns


def _row_blocks(rows: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of at most ROW_BLOCK rows, so that the shifted GEMMs of
    one block accumulate in cache."""
    return [(lo, min(lo + ROW_BLOCK, rows)) for lo in range(0, rows, ROW_BLOCK)]


class Dense:
    """Logits of pooled features: w (classes, features) and b (classes,) are
    views of the network's flat_params."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w.T + self.b

    def backward(self, dout: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return dout @ self.w, dout.T @ x, dout.sum(axis=0)


def parameter_shapes(spec: NetworkSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of the spec's network, in the order
    of its flat layout: each conv's w (filters, in_channels, kernel) and b
    (filters,), then the dense layer's w (classes, features) and b."""
    shapes, channels = [], spec.input_channels
    for i, (filters, kernel, _) in enumerate(spec.conv_blocks):
        shapes += [(f"conv{i}.w", (filters, channels, kernel)), (f"conv{i}.b", (filters,))]
        channels = filters
    return shapes + [("dense.w", (spec.class_count, channels)), ("dense.b", (spec.class_count,))]


class PatchNet:
    """The patch classification network; build with build_network()."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self._shapes = parameter_shapes(spec)
        self.flat_params = np.zeros(sum(math.prod(shape) for _, shape in self._shapes))
        params, rng = self.views(self.flat_params), np.random.default_rng(spec.seed)
        for name, p in params.items():  # biases start at zero; weights are drawn in layout order
            if name.endswith(".w"):
                bound = 1.0 / math.sqrt(math.prod(p.shape[1:]))  # U(+-1/sqrt(fan-in))
                p[...] = rng.uniform(-bound, bound, size=p.shape)
        self.convs = [Conv1d(params[f"conv{i}.w"], params[f"conv{i}.b"]) for i in range(len(spec.conv_blocks))]
        self.dense = Dense(params["dense.w"], params["dense.b"])
        # (before, after): the steps around a window that its content reaches through the conv stack;
        # each forward reads it per layer, so it is summed once here
        self.halo = (sum(conv.pad_right for conv in self.convs), sum(conv.pad_left for conv in self.convs))

    # -- parameter access -------------------------------------------------

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of every parameter; each array is a view of flat_params."""
        return list(self.views(self.flat_params).items())

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> shaped view of each parameter's part of flat, a vector laid
        out like flat_params (parameters, gradients)."""
        parts, offset = {}, 0
        for name, shape in self._shapes:
            size = math.prod(shape)
            parts[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return parts

    def scratch(self, batch: int, width: int, *, backward: bool = False) -> Scratch:
        """The buffers of a loop over batches of at most batch crops of this
        width: each conv's frame (crops are cut into the first), the last
        conv's output (every other conv writes into the next one's frame),
        and in training each frame gradient that is read (not the first
        conv's) and the last activation's gradient. Crops narrower than the
        frame carry one more row, the all-zero crop, so the buffers hold
        batch + 1."""
        batch += 1
        sizes = {}
        for i, conv in enumerate(self.convs):
            parts = conv.buffer_sizes(batch, width, backward)
            if conv is not self.convs[-1]:
                del parts[(conv, "out")]
            if backward and i == 0:
                del parts[(conv, "dframe")]
            for key, size in parts.items():  # the convs run one after another and share their block buffers
                sizes[key] = max(sizes.get(key, 0), size)
        if backward and self.convs:
            sizes["dout"] = batch * width * self.convs[-1].w.shape[0]
        return Scratch(sizes)

    # -- forward / backward ------------------------------------------------

    def _check_input(self, x: np.ndarray, offsets: np.ndarray) -> None:
        """x holds crops of one width, at least patching.least_width, with one
        integer offset in [0, length - width] per row."""
        channels, length = self.spec.input_channels, self.spec.input_length
        if x.ndim != 3 or x.shape[1] != channels or not 1 <= x.shape[2] <= length:
            raise DimensionError(f"expected input (batch, {channels}, width <= {length}), got {x.shape}")
        least = least_width(length, self.halo)
        if x.shape[2] < least:  # the all-zero crop after them would miss values of the empty frame
            raise DimensionError(f"crops must be at least {least} steps wide, got {x.shape[2]}")
        room = length - x.shape[2]
        if not (isinstance(offsets, np.ndarray) and offsets.shape == (len(x),) and offsets.dtype.kind in "iu"
                and 0 <= offsets.min(initial=0) <= offsets.max(initial=0) <= room):
            raise DimensionError(f"crops of width {x.shape[2]} need one integer offset in [0, {room}] per row")

    def _convolve(self, h: np.ndarray, offsets: np.ndarray | None = None,
                  *, scratch: Scratch | None = None) -> tuple[list, np.ndarray]:
        """The conv blocks on h; returns (caches, last activation). Each conv
        writes its output into the next conv's frame, and h is copied into
        the first conv's frame unless it lies there already. With offsets,
        the rows of h are crops at offsets and the all-zero crop after them,
        the last row of h, and the pad rows of each layer's frame read the
        empty frame's activations at their steps from that last row, through
        _columns; its own pad rows stay zero. Each cache ends with those
        reads for backward, (pad rows, (crops, pad rows) columns), or None."""
        caches = []
        batch, _, width = h.shape
        frames = [conv.frame(batch, width, scratch) for conv in self.convs]
        for i, conv in enumerate(self.convs):
            edges = reads = None  # layer 0's empty frame is zero
            if offsets is not None and i > 0:
                rows = conv.edge_rows(width)
                column = frames[i][:, -1]  # (width + kernel - 1, in_channels)
                column[rows] = 0.0
                columns = _columns(self.spec.input_length, self.halo, width, conv.pad_left, conv.pad_right)
                reads = rows, columns[offsets[:, None] + rows]
                edges = column[np.concatenate((reads[1].T, rows[:, None]), axis=1)]
            out = self.convs[i + 1].inside(frames[i + 1]) if i + 1 < len(frames) else None
            post, flat = conv.forward(h, frame=frames[i], out=out, edges=edges, relu=True, scratch=scratch)
            caches.append((h.shape, flat, post, reads))
            h = post
        return caches, h

    def _forward_cached(self, x: np.ndarray | Crops, offsets: np.ndarray, rows: np.ndarray | slice = slice(None),
                        *, scratch: Scratch | None = None) -> tuple[np.ndarray, list]:
        """Logits and the caches for backward of the rows of x (all by
        default), each a crop at its offset. Each crop reads the empty frame
        outside itself from the all-zero crop that _cut puts after crops
        narrower than the frame. A whole frame reads only its zero pad rows
        and, in the pooled sum, nothing, so no such crop follows whole
        frames. The caches view scratch's buffers when it is given, until
        its next use. Its callers have checked x and offsets (_check_input)."""
        h, offsets = _cut(self, x, rows, scratch), offsets[rows]
        crops, width, length = len(offsets), x.shape[2], self.spec.input_length
        reads = len(h) > crops  # the all-zero crop follows the crops
        caches, h = self._convolve(h, offsets if reads else None, scratch=scratch)
        last = h.transpose(2, 0, 1)  # (width, rows, channels), time-major
        pooled = last[:, :crops].sum(axis=0)  # (crops, channels) rows added in step order
        outside = None
        if reads:
            steps = np.arange(length)
            outside = ((steps < offsets[:, None]) | (steps >= offsets[:, None] + width)).astype(float)
            empty = last[:, crops][_columns(length, self.halo, width)]
            pooled += outside @ empty  # the empty frame's activations outside each crop
        pooled /= length
        logits = self.dense.forward(pooled)
        caches.append((h.shape, pooled, offsets, outside))
        return logits, caches

    def backward_from_logits(self, dlogits: np.ndarray, caches: list,
                             *, scratch: Scratch | None = None) -> np.ndarray:
        """The parameter gradients of a forward (_forward_cached), one vector
        laid out like flat_params. The crops and the all-zero crop after
        them go back together, in one backward per layer: what the crops
        read from the empty frame (the pooled remainder and every layer's
        pad rows) is added to that last row's gradient where the forward
        read it, as the caches keep it (outside, each layer's reads; None
        when there is no such row). Activation gradients are time-major, as
        the activations: a layer's ReLU masks its gradient where the layer
        above left it."""
        grad = np.empty_like(self.flat_params)
        parts = self.views(grad)
        (batch, channels, width), pooled, offsets, outside = caches[-1]
        dpooled, parts["dense.w"][...], parts["dense.b"][...] = self.dense.backward(dlogits, pooled)
        if not self.convs:
            return grad
        crops, length, (before, after) = len(offsets), self.spec.input_length, self.halo
        dpooled /= length
        dh = _empty(scratch, "dout", (width, batch, channels))
        dh[:, :crops] = dpooled
        if outside is not None:  # the all-zero crop's gradient
            empty, d0 = dh[:, crops], outside.T @ dpooled  # the empty frame's, (length, channels)
            lo, hi = width - before, length - before  # steps [lo, hi) read column after
            empty[:lo], empty[lo:] = d0[:lo], d0[hi:]
            empty[after] += d0[lo:hi].sum(axis=0)
        for i in range(len(self.convs) - 1, -1, -1):
            conv = self.convs[i]
            in_shape, flat, post, reads = caches[i]
            np.multiply(dh, post.transpose(2, 0, 1) > 0, out=dh)  # post > 0 iff pre > 0
            dframe, parts[f"conv{i}.w"][...], parts[f"conv{i}.b"][...] = conv.backward(
                dh.transpose(1, 2, 0), flat, in_shape, input_grad=i > 0, scratch=scratch)
            if i == 0:  # nothing reads the input gradient
                break
            dframe = dframe.transpose(2, 0, 1)
            if reads is not None:  # the crops' pad rows were read from the last row
                rows, columns = reads
                np.add.at(dframe[:, crops], columns, dframe[rows, :crops].transpose(1, 0, 2))
            dh = conv.inside(dframe)
        return grad


def build_network(spec: NetworkSpec) -> PatchNet:
    return PatchNet(spec)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# -- spec operations -------------------------------------------------------


def _cut(net: PatchNet, x: np.ndarray | Crops, rows: np.ndarray | slice, scratch: Scratch | None) -> np.ndarray:
    """x[rows], and after crops narrower than the frame an all-zero crop of
    their width as one more row. Crops are cut straight into the inside of
    the first conv's frame, the all-zero crop read from the value table's
    zero row; an array's rows are indexed, and the first conv copies them
    into its frame."""
    zero_row = x.shape[2] < net.spec.input_length  # whole frames read nothing outside themselves
    if not (net.convs and isinstance(x, Crops)):
        h = x[rows]
        return np.concatenate((h, np.zeros_like(h[:1]))) if zero_row else h
    if isinstance(rows, slice):
        rows = np.arange(*rows.indices(len(x)))
    first = net.convs[0]
    return x.cut(rows, out=first.inside(first.frame(len(rows) + zero_row, x.shape[2], scratch)), zero_row=zero_row)


def forward_all(net: PatchNet, groups: list[tuple[np.ndarray | Crops, np.ndarray]]) -> list[np.ndarray]:
    """The softmax of every row of each (x, offsets) group of one evaluation,
    each row a crop at its offset: one (len(x), class_count) array per group.
    The one forward path, in slices of EVAL_BATCH rows, cut as a training
    batch is: a slice of crops narrower than the frame is EVAL_BATCH - 1 of
    them and the all-zero crop after them. The call owns its set-up: it
    checks each group's input once and makes one Scratch, sized for the
    largest slice and the widest crop; every slice of every group reads it,
    and crops are cut one slice at a time."""
    for x, offsets in groups:
        net._check_input(x, offsets)  # once, before the first cut, which assumes the spec's channels
    scratch = net.scratch(min(max((len(x) for x, _ in groups), default=0), EVAL_BATCH - 1),
                          max((x.shape[2] for x, _ in groups), default=0))
    results = []
    for x, offsets in groups:
        probs = np.empty((len(x), net.spec.class_count))
        step = EVAL_BATCH - (x.shape[2] < net.spec.input_length)  # the all-zero crop is a slice's last row
        for lo in range(0, len(x), step):
            rows = slice(lo, lo + step)
            logits, caches = net._forward_cached(x, offsets, rows, scratch=scratch)
            del caches  # else this slice's caches stay alive through the next slice's forward
            probs[rows] = softmax(logits)
        results.append(probs)
    return results


def batch_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = np.maximum(probs[np.arange(len(labels)), labels], LOG_CLAMP)
    return float(-np.log(picked).mean())


def _loss_and_gradients(net: PatchNet, batch, *, rows: np.ndarray | slice = slice(None),
                        scratch: Scratch | None = None) -> tuple[float, np.ndarray]:
    """The mean cross-entropy of the rows of batch (x, y, offsets), all by
    default, and its gradient, laid out like flat_params: one forward of the
    rows, cut as an evaluation slice is, and one backward over them and the
    all-zero crop after crops narrower than the frame. Its callers have
    checked x and offsets (_check_input)."""
    x, y, offsets = batch
    y = y[rows]
    if len(y) == 0:
        raise ValueError("backward requires a non-empty batch")
    logits, caches = net._forward_cached(x, offsets, rows, scratch=scratch)
    dlogits = softmax(logits)
    loss = batch_cross_entropy(dlogits, y)
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    return loss, net.backward_from_logits(dlogits, caches, scratch=scratch)


def _groups(patches) -> list:
    """patches, (x, y, offsets) or a sequence of such groups, as a list of groups."""
    return [patches] if hasattr(patches[0], "shape") else list(patches)


def accuracy(net: PatchNet, patches) -> float:
    """Share of the rows of (x, y, offsets), or of a sequence of such groups
    forwarded in one forward_all call, whose argmax class is their label."""
    groups = _groups(patches)
    probs = forward_all(net, [(x, offsets) for x, _, offsets in groups])
    return float(np.concatenate([np.argmax(p, axis=1) == y for p, (_, y, _) in zip(probs, groups)]).mean())


# -- optimizers ------------------------------------------------------------


class Adam:
    """Adam over a flat parameter vector of `size` entries."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.a, self.b = np.empty(size), np.empty(size)  # each step's temporaries

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Updates params in place from its gradient grad, both flat: m and v
        take the usual moment updates, and params -= lr * m_hat / (sqrt(v_hat)
        + eps), each operation in that order, in the two step buffers."""
        self.t += 1
        a, b = self.a, self.b
        self.m *= ADAM_BETA1
        self.m += np.multiply(grad, 1 - ADAM_BETA1, out=a)
        self.v *= ADAM_BETA2
        np.multiply(grad, 1 - ADAM_BETA2, out=a)
        self.v += np.multiply(a, grad, out=a)
        np.divide(self.m, 1 - ADAM_BETA1 ** self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(self.v, 1 - ADAM_BETA2 ** self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        params -= np.divide(a, b, out=a)


class SgdMomentum:
    """SGD with momentum over a flat parameter vector of `size` entries."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.velocity = np.zeros(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Updates params in place from its gradient grad, both flat."""
        self.velocity *= SGD_MOMENTUM
        self.velocity -= self.lr * grad
        params += self.velocity


@dataclass
class TrainLog:
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = -1.0
    epochs_run: int = 0


# A diverging step overflows before its loss is checked; the finite-loss check alone reports it.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(net: PatchNet, train_patches, val_patches, spec: TrainSpec) -> TrainLog:
    """Mini-batch training of the mean patch cross-entropy; restores the
    parameters of the epoch with best validation accuracy. train_patches is
    (x, y, offsets), as build_patch_arrays returns it, and val_patches one
    such group or a sequence of them (see accuracy); crops are cut one batch at
    a time, and the steps reuse one set of buffers.

    Serial and deterministic for a fixed spec.seed: the only randomness is the
    per-epoch shuffle drawn from one seeded generator.
    """
    for name, patches in (("training", train_patches), ("validation", val_patches)):
        if not sum(len(y) for _, y, _ in _groups(patches)):
            raise ValueError(f"{name} patches must be non-empty")
    rng = np.random.default_rng(spec.seed)
    optimizer = (Adam if spec.optimizer == "adam" else SgdMomentum)(net.flat_params.size, spec.learning_rate)
    log = TrainLog()
    best_params = net.flat_params.copy()
    x, y, offsets = train_patches
    net._check_input(x, offsets)  # before the first cut, which assumes the spec's channels
    scratch = net.scratch(min(len(y), spec.batch_size), x.shape[2], backward=True)
    for epoch in range(spec.epochs):
        order = rng.permutation(len(y))
        batch_losses: list[float] = []
        for lo in range(0, len(y), spec.batch_size):
            idx = order[lo : lo + spec.batch_size]
            loss, grad = _loss_and_gradients(net, train_patches, rows=idx, scratch=scratch)
            if not math.isfinite(loss):  # before its gradient reaches the parameters
                raise TrainingError(
                    f"training loss diverged at epoch {epoch}, batch {lo // spec.batch_size}"
                )
            batch_losses.append(loss)
            optimizer.step(net.flat_params, grad)
        epoch_loss = math.fsum(batch_losses) / len(batch_losses)
        val_acc = accuracy(net, val_patches)
        log.train_loss.append(epoch_loss)
        log.val_accuracy.append(val_acc)
        log.epochs_run = epoch + 1
        if val_acc > log.best_val_accuracy:
            log.best_val_accuracy = val_acc
            log.best_epoch = epoch
            best_params = net.flat_params.copy()
        elif spec.early_stopping_patience and epoch - log.best_epoch >= spec.early_stopping_patience:
            break
    net.flat_params[...] = best_params
    return log


# -- gradient verification ---------------------------------------------------


@dataclass
class GradientCheckEntry:
    name: str
    max_rel_error: float
    worst_index: int
    analytic: float
    numeric: float


@dataclass
class GradientCheckReport:
    passed: bool
    tolerance: float
    entries: list[GradientCheckEntry]

    def worst(self) -> GradientCheckEntry:
        return max(self.entries, key=lambda e: e.max_rel_error)

    def summary(self) -> str:
        lines = [f"gradient check ({'pass' if self.passed else 'FAIL'}, tol={self.tolerance:g})"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_error):
            lines.append(
                f"  {e.name:<10} max_rel={e.max_rel_error:.3e} "
                f"(analytic={e.analytic: .6e}, numeric={e.numeric: .6e} at flat index {e.worst_index})"
            )
        return "\n".join(lines)


def nudge_biases_off_kinks(net: PatchNet, x: np.ndarray) -> None:
    """Shift conv biases so every ReLU pre-activation of this batch is at least
    KINK_MARGIN away from zero.

    Works front to back: a bias shift only influences later layers, so one pass
    suffices. The shifted net is still an ordinary random network; the point is
    to make the loss differentiable in a +-h neighborhood for every parameter.
    """
    h = x
    for conv in net.convs:
        pre, _ = conv.forward(h)
        for f in range(pre.shape[1]):
            vals = pre[:, f, :].ravel()
            if np.abs(vals).min() >= KINK_MARGIN:
                continue
            for k in range(1, 801):
                delta = KINK_MARGIN * ((k + 1) // 2) * (1 if k % 2 else -1)
                if np.abs(vals + delta).min() >= KINK_MARGIN:
                    conv.b[f] += delta
                    break
            else:
                raise RuntimeError("could not move pre-activations off the ReLU kink")
        h, _ = conv.forward(h, relu=True)


def gradcheck_case(spec: NetworkSpec, seed: int = 0) -> tuple[PatchNet, tuple[np.ndarray, ...]]:
    """Deterministic (net, (x, y, offsets)) fixture of GRADCHECK_BATCH whole
    frames whose ReLU pre-activations all sit KINK_MARGIN or more from the
    kink, so central differences are valid in the whole finite-difference sweep."""
    net = PatchNet(replace(spec, seed=seed * 1009 + 7))
    rng = np.random.default_rng(seed * 1009 + 8)
    x = rng.normal(size=(GRADCHECK_BATCH, spec.input_channels, spec.input_length))
    y = rng.integers(0, spec.class_count, GRADCHECK_BATCH)
    nudge_biases_off_kinks(net, x)
    return net, (x, y, np.zeros(GRADCHECK_BATCH, dtype=np.int64))


def gradient_check(net: PatchNet, batch, tolerance: float = 1e-3) -> GradientCheckReport:
    """Compare the analytic gradient against central finite differences of the
    batch loss; each parameter's entry is its worst relative error.

    The step for each scalar parameter is GRADCHECK_STEP * max(1, |value|).
    Meaningful only when the batch keeps ReLU pre-activations away from zero;
    see gradcheck_case.
    """
    x, y, offsets = batch
    net._check_input(x, offsets)
    analytic = _loss_and_gradients(net, batch)[1]
    flat = net.flat_params
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        original = flat[i]
        h = GRADCHECK_STEP * max(1.0, abs(original))
        flat[i] = original + h
        plus = batch_cross_entropy(forward_all(net, [(x, offsets)])[0], y)
        flat[i] = original - h
        minus = batch_cross_entropy(forward_all(net, [(x, offsets)])[0], y)
        flat[i] = original
        numeric[i] = (plus - minus) / (2 * h)
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rels, analytics, numerics = (net.views(v) for v in (rel, analytic, numeric))
    entries = []
    for name, r in rels.items():
        i = int(np.argmax(r))
        entries.append(GradientCheckEntry(name, float(r.flat[i]), i, float(analytics[name].flat[i]),
                                          float(numerics[name].flat[i])))
    return GradientCheckReport(all(e.max_rel_error < tolerance for e in entries), tolerance, entries)
