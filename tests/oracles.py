"""Reference implementations that the runtime's array paths are tested against.

The per-patch object path: transform cuts one patch object at a time, and
build_patch_dataset enumerates them in the order samples -> configs -> patch
index. full_frame_patch_arrays writes the same patches into one full-length
array. build_patch_arrays, the one patch builder the pipeline runs, cuts each
patch already cropped; re-expanded at its offset by expand_crops, every crop
must equal them bit for bit.

The crop tensor: patch_tensor writes every crop into one (n * P, C', W)
tensor, one slot at a time, as build_patch_arrays did before it cut crops on
demand from a value table. The cut crops must equal it bit for bit, training
on them must train the same parameters, and patch_predictions must equal
per_config_patch_predictions, which forwards each config's tensor.

forward and patch_cross_entropy evaluate the network on a single whole patch.
backward gives the network's gradient by parameter name, and zero_offsets the
offsets of whole frames (crops of width L at 0).

The content crop: content_crop finds each row's crop by scanning full frames
for their nonzero steps, as the network did before the layout gave the crop.
With attach on it must give the layout's crops, and without attach it must
lie inside them.

The full-frame network: full_frame_forward and full_frame_backward run every
convolution over the whole length of each patch, zero background included.
The cropped network of PatchNet must equal them up to rounding.

The row-block loop with broadcast operands: row_block_conv_forward is
Conv1d.forward as it was before every elementwise operand of its row-block
loop was a full block: it adds the bias as a broadcast (C,) row, takes the
ReLU against the scalar 0.0, and allocates a new product for every tap of
every block. The same operations run in the same order per element, so
Conv1d.forward must equal it bit for bit, sign bits of zeros included.

The crop-major network: crop_major_conv_forward and crop_major_conv_backward
are Conv1d as it was over channels-last memory, each crop's padded frame
after the previous one's, so that k - 1 result rows a crop straddle two
crops and are dropped; crop_major_forward_cached and
crop_major_backward_from_logits are PatchNet's over such frames, each layer
copying its input into a frame of its own and pooling over the strided step
axis. The time-major network runs the same operations per element in the
same order, so evaluation (crop_major_softmax) must equal it bit for bit;
its gradients sum the batch rows in another order and match
crop_major_loss_and_gradients to rounding. crop_major_scratch_entries is the
size of a forward-only Scratch over those frames.

The long-frame training step: long_frame_loss_and_gradients is
neuralnet._loss_and_gradients as it was before a training batch carried the
all-zero crop as one more row. It forwards the crops and, apart, the
length-long empty frame as a batch of one, each layer's pad rows reading
that frame at their steps; backward runs each conv on both and adds their
weight gradients, the pooled remainder and the crops' pad-row gradients
going back through the empty frame's own pass. The loss must equal
_loss_and_gradients' bit for bit (the forward reads the same values), and
the gradients must match to rounding.

The per-name optimizers: NamedAdam and NamedSgdMomentum keep one moment array
per named parameter and step each in turn. The flat optimizers that train
steps one parameter vector with must equal them bit for bit.

The per-name gradient check: named_gradient_check perturbs one named
parameter at a time and keeps each one's worst entry as it goes. gradient_check,
which perturbs the flat parameter vector and compares every entry in one array
expression, must report the same entries bit for bit.

The whole-sample baseline as its own path: blackbox_train trains the network
on the z-normalized samples themselves, with no patching. bench's one-window
patch run must train the same parameters bit for bit.

The one-width evaluation: one_width_patch_predictions cuts every slot of the
layout at its widest crop and forwards them as one array, as
PatchXBundle.patch_predictions did before it cropped each config at its own
width. The two must agree up to rounding.

The per-factor boundary probe: boundary_probe_loop runs one explain_sample
per factor on its own perturbed copy of the sample and stacks their one-row
record tables. boundary_probe, which scores every factor in one dataset, must
give the same factors, labels and records.

The per-sample generator: generate_anomaly_loop is data.generate_anomaly as
it was before each split was drawn into one array: every sample its own
array, labelled on its own by anomaly_label_one, the label rule written for
one (channels, length) sample. The draws are the same, in the same order, so
values, labels, ids and meta must equal the generator's bit for bit, and
anomaly_label over a stack must equal anomaly_label_one row by row.

The row scan: row_scan_decode is decode_dataset as it was before one numpy
pass read the table: every field through float() or int(), one row at a
time, the first malformed row raising ParseError. decode_dataset must return
the same ids, labels and value bits, or raise ParseError with the same
message, for every input.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from patchx import neuralnet
from patchx.bundle import PatchXBundle
from patchx.data import (
    DEFAULT_SIGMA_MULTIPLIER, AnomalyGenSpec, Dataset, ParseError, TimeSeriesSample, normalization_stats, znormalize,
)
from patchx.explain import BoundaryProbeResult, PatchRecords, explain_sample
from patchx.neuralnet import (
    EVAL_BATCH, LOG_CLAMP, ROW_BLOCK, Conv1d, GradientCheckEntry, GradientCheckReport, NetworkSpec, PatchNet, TrainSpec,
    batch_cross_entropy, softmax,
)
from patchx.patching import (
    ConfigError, PatchConfig, _check_configs, build_patch_arrays, enumerate_patches, patch_spans,
)


@dataclass
class PatchInstance:
    """One transformed patch, same time dimension as its source sample.

    valid_range is the half-open [start, end) interval of time-steps that carry
    window content in this instance's own coordinates (so it starts at 0 when
    notemp shifted). The label is inherited from the source sample.
    """

    sample_id: int
    config_index: int
    patch_index: int
    values: np.ndarray  # (channels [+1 if attach], length)
    valid_range: tuple[int, int]
    label: int


def transform(
    sample: TimeSeriesSample,
    p: int,
    config: PatchConfig,
    config_index: int = 0,
) -> PatchInstance:
    """Cut patch p out of the sample, keeping the full sample length."""
    length = sample.length
    if config.length > length:
        raise ConfigError(f"patch length {config.length} exceeds sample length {length}")
    start = p * config.stride
    if p < 0 or start >= length:
        raise IndexError(f"patch index {p} invalid for sample length {length}")
    end = min(start + config.length, length)
    width = end - start
    channels = sample.channels + (1 if config.attach else 0)
    values = np.zeros((channels, length), dtype=np.float64)
    if config.notemp:
        values[: sample.channels, :width] = sample.values[:, start:end]
        valid = (0, width)
    else:
        values[: sample.channels, start:end] = sample.values[:, start:end]
        valid = (start, end)
    if config.attach:
        values[-1, valid[0] : valid[1]] = 1.0
    return PatchInstance(
        sample_id=sample.id,
        config_index=config_index,
        patch_index=p,
        values=values,
        valid_range=valid,
        label=sample.label,
    )


def build_patch_dataset(dataset: Dataset, configs: list[PatchConfig]) -> list[PatchInstance]:
    """Transform every sample under every config; order is samples, then
    configs, then patch index."""
    _check_configs(configs)
    instances = []
    for sample in dataset.samples:
        for ci, config in enumerate(configs):
            for p, _, _ in enumerate_patches(sample.length, config):
                instances.append(transform(sample, p, config, config_index=ci))
    return instances


def full_frame_patch_arrays(
    values: np.ndarray, labels: np.ndarray, configs: list[PatchConfig]
) -> tuple[np.ndarray, np.ndarray]:
    """Every patch of the stacked samples values (n, channels, length) as one
    full-length array (n * P, channels [+1 if attach], length), rows in
    build_patch_arrays order, and the patch labels."""
    _check_configs(configs)
    n, channels, length = values.shape
    spans = patch_spans(length, configs)
    attach = configs[0].attach
    patches = np.zeros((n, len(spans), channels + int(attach), length))
    for slot, (ci, p, start, end) in enumerate(spans):
        lo, hi = (0, end - start) if configs[ci].notemp else (start, end)
        patches[:, slot, :channels, lo:hi] = values[:, :, start:end]
        if attach:
            patches[:, slot, -1, lo:hi] = 1.0
    return patches.reshape(n * len(spans), -1, length), np.repeat(labels, len(spans))


def patch_tensor(
    values: np.ndarray, labels: np.ndarray, configs: list[PatchConfig], halo: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_patch_arrays as one (n * P, channels [+1 if attach], W) tensor,
    written one slot at a time: (patches, patch_labels, offsets)."""
    _check_configs(configs)
    n, channels, length = values.shape
    spans = patch_spans(length, configs)
    windows = np.array([(0, end - start) if configs[ci].notemp else (start, end) for ci, _, start, end in spans])
    lo = np.maximum(windows[:, 0] - halo[0], 0)
    width = max(int(np.max(np.minimum(windows[:, 1] + halo[1], length) - lo)), min(length, sum(halo) + 1))
    offsets = np.minimum(lo, length - width)
    attach = configs[0].attach
    patches = np.zeros((n, len(spans), channels + int(attach), width))
    for slot, ((_, _, start, end), (a, b)) in enumerate(zip(spans, windows - offsets[:, None])):
        patches[:, slot, :channels, a:b] = values[:, :, start:end]
        if attach:
            patches[:, slot, -1, a:b] = 1.0
    return patches.reshape(n * len(spans), -1, width), np.repeat(labels, len(spans)), np.tile(offsets, n)


def expand_crops(crops: np.ndarray, offsets: np.ndarray, length: int) -> np.ndarray:
    """The full frames (batch, channels, length) that hold each crop at its
    offset and zeros elsewhere."""
    frames = np.zeros((*crops.shape[:2], length))
    for row, offset in enumerate(offsets):
        frames[row, :, offset : offset + crops.shape[2]] = crops[row]
    return frames


def content_crop(x: np.ndarray, halo: tuple[int, int]) -> tuple[np.ndarray, int]:
    """(offsets, width) of the crops of full frames x: each row spans its
    first to last nonzero step, widened by halo = (before, after) and clamped
    to the frame; crops are padded to the widest row's, and each offset is
    clamped so that its crop stays inside the frame."""
    batch, _, length = x.shape
    nonzero = (x != 0.0).any(axis=1)  # (batch, length)
    first = np.argmax(nonzero, axis=1)
    end = length - np.argmax(nonzero[:, ::-1], axis=1)
    lo = np.maximum(first - halo[0], 0)
    hi = np.minimum(end + halo[1], length)
    width = max(1, int(np.max(hi - lo, initial=0, where=nonzero.any(axis=1))))
    return np.minimum(lo, length - width), width


def zero_offsets(x: np.ndarray) -> np.ndarray:
    """The offsets of whole frames x: every row is a crop of width L at 0."""
    return np.zeros(len(x), dtype=np.int64)


def forward(net: PatchNet, values: np.ndarray) -> np.ndarray:
    """Softmax prediction for a single whole patch array, shape (class_count,)."""
    return neuralnet.forward_all(net, [(values[None], zero_offsets(values[None]))])[0][0]


def backward(net: PatchNet, batch) -> dict[str, np.ndarray]:
    """Gradient of the mean cross-entropy of batch (x, y, offsets) w.r.t. every
    parameter, by name; the arrays view one gradient vector laid out like
    flat_params."""
    return net.views(neuralnet._loss_and_gradients(net, batch)[1])


def patch_cross_entropy(prediction: np.ndarray, label: int) -> float:
    """-log of the predicted probability of the label, clamped at 1e-12."""
    prediction = np.asarray(prediction)
    if not (0 <= label < prediction.shape[-1]):
        raise IndexError(f"label {label} outside [0, {prediction.shape[-1]})")
    return float(-np.log(max(float(prediction[label]), LOG_CLAMP)))


def extract_loop(
    softmaxes: np.ndarray, slot_configs, class_count: int, n_configs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Presence blocks and win counts of (n, P, class_count) softmaxes, one
    patch at a time: samples in row order, slots in order, argmax ties to the
    lowest class."""
    n = len(softmaxes)
    blocks = np.zeros((n, n_configs, class_count))
    counts = np.zeros((n, n_configs, class_count), dtype=np.int64)
    for i in range(n):
        for k, ci in enumerate(slot_configs):
            row = softmaxes[i, k]
            winner = min(np.flatnonzero(row == row.max()))
            blocks[i, ci, winner] += row[winner]
            counts[i, ci, winner] += 1
    return blocks, counts


def full_frame_forward(net: PatchNet, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Logits and caches of the conv stack run over every time step of x."""
    caches = []
    h = x
    for conv in net.convs:
        out, flat = conv.forward(h)
        out = np.maximum(out, 0.0)
        caches.append((h.shape, flat, out))
        h = out
    pooled = h.mean(axis=2)
    caches.append((h.shape, pooled))
    return net.dense.forward(pooled), caches


def full_frame_backward(net: PatchNet, dlogits: np.ndarray, caches: list) -> dict[str, np.ndarray]:
    """Parameter gradients of full_frame_forward."""
    grads: dict[str, np.ndarray] = {}
    conv_out_shape, pooled = caches[-1]
    dpooled, grads["dense.w"], grads["dense.b"] = net.dense.backward(dlogits, pooled)
    length = conv_out_shape[2]
    dh = np.repeat(dpooled[:, :, None] / length, length, axis=2)
    for i in range(len(net.convs) - 1, -1, -1):
        conv = net.convs[i]
        in_shape, flat, post = caches[i]
        dh = dh * (post > 0)
        dframe, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = conv.backward(dh, flat, in_shape)
        dh = dframe[:, :, conv.pad_left : conv.pad_left + length]
    return grads


def row_block_conv_forward(conv: Conv1d, x: np.ndarray, edges: np.ndarray | None = None,
                           relu: bool = False, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Conv1d.forward(x, edges=edges, relu=relu, out=out) with no scratch,
    its loop reading a broadcast bias row and a scalar zero and making a new
    product per tap."""
    batch, in_channels, length = x.shape
    xp = np.zeros((length + conv.kernel - 1, batch, in_channels))
    xp[conv.pad_left : conv.pad_left + length] = x.transpose(2, 0, 1)
    if edges is not None:
        xp[conv.edge_rows(length)] = edges
    flat = xp.reshape(-1, in_channels)
    taps = conv.w.transpose(2, 1, 0).copy()
    if out is None:
        out = np.empty((length, batch, len(conv.b)))
    acc = out.reshape(length * batch, -1)
    for lo in range(0, len(acc), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(acc))
        block = acc[lo:hi]
        np.matmul(flat[lo:hi], taps[0], out=block)
        for j in range(1, conv.kernel):
            block += flat[lo + j * batch : hi + j * batch] @ taps[j]
        block += conv.b
        if relu:
            np.maximum(block, 0.0, out=block)
    return out.transpose(1, 2, 0), flat


def crop_major_conv_forward(conv: Conv1d, x: np.ndarray, edges: np.ndarray | None = None,
                            relu: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Conv1d.forward over channels-last memory, with no scratch: the padded
    input is one flat (batch * (length + kernel - 1), in_channels) matrix,
    one crop's frame after another; tap j multiplies its rows [j, j + rows -
    kernel + 1), and the kernel - 1 result rows a crop that straddle two crops
    land in padding and are dropped. edges is (batch, pad rows, in_channels)."""
    batch, in_channels, length = x.shape
    framed = length + conv.kernel - 1
    xp = np.empty((batch, framed, in_channels))
    xp[:, : conv.pad_left] = xp[:, conv.pad_left + length :] = 0.0
    xp[:, conv.pad_left : conv.pad_left + length] = x.transpose(0, 2, 1)
    if edges is not None:
        xp[:, conv.edge_rows(length)] = edges
    flat = xp.reshape(-1, in_channels)
    taps = conv.w.transpose(2, 1, 0).copy()
    rows, out_channels = len(flat) - conv.kernel + 1, len(conv.b)
    block_shape = (min(ROW_BLOCK, max(rows, 0)), out_channels)
    zeros = conv.zeros[: block_shape[0]]
    acc = np.empty((len(flat), out_channels))
    bias, product = np.empty(block_shape), np.empty(block_shape)
    bias[...] = conv.b
    for lo in range(0, rows, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, rows)
        block = acc[lo:hi]
        if hi - lo < len(bias):
            bias, product, zeros = bias[: hi - lo], product[: hi - lo], zeros[: hi - lo]
        np.matmul(flat[lo:hi], taps[0], out=block)
        for j in range(1, conv.kernel):
            np.matmul(flat[lo + j : hi + j], taps[j], out=product)
            block += product
        block += bias
        if relu:
            np.maximum(block, zeros, out=block)
    return acc.reshape(batch, framed, -1)[:, :length].transpose(0, 2, 1), flat


def crop_major_conv_backward(conv: Conv1d, dout: np.ndarray, flat: np.ndarray, in_shape: tuple[int, int, int],
                             input_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Conv1d.backward of crop_major_conv_forward: dframe is (batch,
    in_channels, length + kernel - 1) over channels-last memory."""
    batch, in_channels, length = in_shape
    framed = length + conv.kernel - 1
    g = np.empty((batch, framed, len(conv.b)))
    g[:, :length] = dout.transpose(0, 2, 1)
    g[:, length:] = 0.0
    g = g.reshape(-1, len(conv.b))[: len(flat) - conv.kernel + 1]
    dw = np.stack([g.T @ flat[j : j + len(g)] for j in range(conv.kernel)], axis=2)
    db = np.ones(len(g)) @ g
    if not input_grad:
        return None, dw, db
    taps = conv.w.transpose(2, 0, 1).copy()
    dxp = np.zeros(flat.shape)
    for lo in range(0, len(g), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(g))
        for j in range(conv.kernel):
            dxp[lo + j : hi + j] += g[lo:hi] @ taps[j]
    return dxp.reshape(batch, framed, in_channels).transpose(0, 2, 1), dw, db


def crop_major_convolve(net: PatchNet, h: np.ndarray, offsets: np.ndarray | None = None,
                        empty: list | None = None) -> tuple[list, np.ndarray]:
    """PatchNet._convolve over crop_major_conv_forward: each layer copies the
    previous layer's output into a frame of its own."""
    caches = []
    for i, conv in enumerate(net.convs):
        edges = None
        if empty is not None and i > 0:
            edges = empty[i][1][offsets[:, None] + conv.edge_rows(h.shape[2])]
        out, flat = crop_major_conv_forward(conv, h, edges, relu=True)
        caches.append((h.shape, flat, out))
        h = out
    return caches, h


def crop_major_empty_frame(net: PatchNet) -> tuple[list, np.ndarray]:
    return crop_major_convolve(net, np.zeros((1, net.spec.input_channels, net.spec.input_length)))


def crop_major_forward_cached(net: PatchNet, x: np.ndarray, offsets: np.ndarray,
                              frame: tuple) -> tuple[np.ndarray, list]:
    """PatchNet._forward_cached over crop-major frames; it pools over the
    strided step axis of the last activation."""
    width, length = x.shape[2], net.spec.input_length
    steps = np.arange(length)
    outside = ((steps < offsets[:, None]) | (steps >= offsets[:, None] + width)).astype(float)
    caches, h = crop_major_convolve(net, x, offsets, frame[0])
    pooled = h.sum(axis=2)
    pooled += outside @ frame[1][0].T
    pooled /= length
    caches.append((h.shape, pooled, offsets, outside, frame))
    return net.dense.forward(pooled), caches


def crop_major_backward_from_logits(net: PatchNet, dlogits: np.ndarray, caches: list) -> np.ndarray:
    """PatchNet.backward_from_logits over crop-major frames."""
    grad = np.empty_like(net.flat_params)
    parts = net.views(grad)
    (batch, channels, width), pooled, offsets, outside, (empty, _) = caches[-1]
    dpooled, parts["dense.w"][...], parts["dense.b"][...] = net.dense.backward(dlogits, pooled)
    length = net.spec.input_length
    dpooled /= length
    dh = np.broadcast_to(dpooled[:, None, :], (batch, width, channels)).transpose(0, 2, 1)
    d0 = (outside.T @ dpooled).T[None]
    for i in range(len(net.convs) - 1, -1, -1):
        conv = net.convs[i]
        in_shape, flat, post = caches[i]
        shape0, flat0, post0 = empty[i]
        dh = dh * (post > 0)
        d0 = d0 * (post0 > 0)
        dframe, dw, db = crop_major_conv_backward(conv, dh, flat, in_shape, input_grad=i > 0)
        dframe0, dw0, db0 = crop_major_conv_backward(conv, d0, flat0, shape0, input_grad=i > 0)
        parts[f"conv{i}.w"][...] = dw + dw0
        parts[f"conv{i}.b"][...] = db + db0
        if i == 0:
            break
        dh = dframe[:, :, conv.pad_left : conv.pad_left + width]
        rows = conv.edge_rows(width)
        np.add.at(dframe0[0].T, offsets[:, None] + rows, dframe[:, :, rows].transpose(0, 2, 1))
        d0 = dframe0[:, :, conv.pad_left : conv.pad_left + length]
    return grad


def crop_major_softmax(net: PatchNet, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """forward_all(net, [(x, offsets)])[0] over crop-major frames, in slices
    of EVAL_BATCH crops."""
    frame = crop_major_empty_frame(net)
    return np.concatenate([
        softmax(crop_major_forward_cached(net, x[lo : lo + EVAL_BATCH], offsets[lo : lo + EVAL_BATCH], frame)[0])
        for lo in range(0, len(x), EVAL_BATCH)])


def crop_major_loss_and_gradients(net: PatchNet, batch) -> tuple[float, np.ndarray]:
    """neuralnet._loss_and_gradients over crop-major frames."""
    x, y, offsets = batch
    logits, caches = crop_major_forward_cached(net, x, offsets, crop_major_empty_frame(net))
    dlogits = softmax(logits)
    loss = batch_cross_entropy(dlogits, y)
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    return loss, crop_major_backward_from_logits(net, dlogits, caches)


def long_frame_convolve(net: PatchNet, h: np.ndarray, offsets: np.ndarray | None = None,
                        empty: list | None = None) -> tuple[list, np.ndarray]:
    """The conv blocks on h, each in a frame of its own; with the caches of
    the length-long empty frame, h holds crops at offsets and each layer's
    pad rows read that frame's activations at their steps."""
    caches = []
    for i, conv in enumerate(net.convs):
        edges = None
        if empty is not None and i > 0:
            edges = empty[i][1][conv.edge_rows(h.shape[2])[:, None] + offsets]
        post, flat = conv.forward(h, edges=edges, relu=True)
        caches.append((h.shape, flat, post))
        h = post
    return caches, h


def long_frame_loss_and_gradients(net: PatchNet, batch) -> tuple[float, np.ndarray]:
    """neuralnet._loss_and_gradients with a batch-1 pass of the length-long
    empty frame beside the crops, forward and backward."""
    x, y, offsets = batch
    (batch_size, _, width), length = x.shape, net.spec.input_length
    empty, frame = long_frame_convolve(net, np.zeros((1, net.spec.input_channels, length)))
    steps = np.arange(length)
    outside = ((steps < offsets[:, None]) | (steps >= offsets[:, None] + width)).astype(float)
    caches, h = long_frame_convolve(net, x, offsets, empty)
    pooled = h.transpose(2, 0, 1).sum(axis=0)
    pooled += outside @ frame[0].T
    pooled /= length
    dlogits = softmax(net.dense.forward(pooled))
    loss = batch_cross_entropy(dlogits, y)
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)

    grad = np.empty_like(net.flat_params)
    parts = net.views(grad)
    dpooled, parts["dense.w"][...], parts["dense.b"][...] = net.dense.backward(dlogits, pooled)
    dpooled /= length
    dh = np.broadcast_to(dpooled, (width, batch_size, dpooled.shape[1]))
    d0 = (outside.T @ dpooled)[:, None]  # (length, 1, channels): the empty frame's
    for i in range(len(net.convs) - 1, -1, -1):
        conv = net.convs[i]
        in_shape, flat, post = caches[i]
        shape0, flat0, post0 = empty[i]
        dh = dh * (post.transpose(2, 0, 1) > 0)
        d0 = d0 * (post0.transpose(2, 0, 1) > 0)
        dframe, dw, db = conv.backward(dh.transpose(1, 2, 0), flat, in_shape, input_grad=i > 0)
        dframe0, dw0, db0 = conv.backward(d0.transpose(1, 2, 0), flat0, shape0, input_grad=i > 0)
        parts[f"conv{i}.w"][...] = dw + dw0
        parts[f"conv{i}.b"][...] = db + db0
        if i == 0:
            break
        dframe, dframe0 = dframe.transpose(2, 0, 1), dframe0.transpose(2, 0, 1)
        dh, d0 = conv.inside(dframe), conv.inside(dframe0)
        rows = conv.edge_rows(width)  # the crops' pad rows were read from the empty frame
        np.add.at(dframe0[:, 0], offsets[:, None] + rows, dframe[rows].transpose(1, 0, 2))
    return loss, grad


def crop_major_scratch_entries(net: PatchNet, batch: int, width: int) -> int:
    """The entries of a forward-only PatchNet.scratch(batch, width) over
    crop-major frames: a crop buffer, and each conv's frame and output of
    batch * (width + kernel - 1) rows, beside the shared bias and product
    blocks."""
    entries, block = batch * width * net.spec.input_channels, 0
    for conv in net.convs:
        out_channels, in_channels, _ = conv.w.shape
        rows = batch * (width + conv.kernel - 1)
        entries += rows * (in_channels + out_channels)
        block = max(block, min(ROW_BLOCK, max(rows - conv.kernel + 1, 0)) * out_channels)
    return entries + 2 * block


def full_frame_softmax(net: PatchNet, x: np.ndarray) -> np.ndarray:
    return softmax(full_frame_forward(net, x)[0])


def full_frame_gradients(net: PatchNet, x: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of the mean batch cross-entropy, as backward."""
    logits, caches = full_frame_forward(net, x)
    dlogits = softmax(logits)
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    return full_frame_backward(net, dlogits, caches)


class NamedAdam:
    def __init__(self, params: list[tuple[str, np.ndarray]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in self.params:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class NamedSgdMomentum:
    def __init__(self, params: list[tuple[str, np.ndarray]], lr: float, momentum: float = 0.9):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(p) for name, p in params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, p in self.params:
            v = self.velocity[name]
            v *= self.momentum
            v -= self.lr * grads[name]
            p += v


def named_gradient_check(net: PatchNet, batch, tolerance: float = 1e-3,
                         step_scale: float = 1e-3) -> GradientCheckReport:
    """neuralnet.gradient_check, one named parameter and one entry at a time."""
    x, y, offsets = batch
    analytic = backward(net, batch)

    def loss() -> float:
        probs = neuralnet.forward_all(net, [(x, offsets)])[0]
        return batch_cross_entropy(probs, y)

    entries = []
    for name, p in net.parameters():
        grad = analytic[name]
        flat = p.reshape(-1)
        worst = GradientCheckEntry(name, 0.0, 0, 0.0, 0.0)
        for i in range(flat.size):
            original = flat[i]
            h = step_scale * max(1.0, abs(original))
            flat[i] = original + h
            plus = loss()
            flat[i] = original - h
            minus = loss()
            flat[i] = original
            numeric = (plus - minus) / (2 * h)
            a = grad.reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-8)
            rel = abs(a - numeric) / denom
            if rel > worst.max_rel_error:
                worst = GradientCheckEntry(name, rel, i, float(a), float(numeric))
        entries.append(worst)
    return GradientCheckReport(
        passed=all(e.max_rel_error < tolerance for e in entries),
        tolerance=tolerance,
        entries=entries,
    )


def blackbox_train(
    train: Dataset, val: Dataset, test: Dataset, net_spec: NetworkSpec, train_spec: TrainSpec,
    normalize: bool = True,
) -> tuple[PatchNet, float, float]:
    """The network trained on whole samples: (network, best validation
    accuracy, test accuracy)."""
    stats = normalization_stats(train) if normalize else None
    pack = lambda ds: (znormalize(ds.values_array(), stats) if stats else ds.values_array(), ds.labels_array(),
                       np.zeros(len(ds), dtype=np.int64))
    network = neuralnet.build_network(net_spec)
    log = neuralnet.train(network, pack(train), [pack(val)], train_spec)
    return network, log.best_val_accuracy, neuralnet.accuracy(network, [pack(test)])


def boundary_probe_loop(
    bundle: PatchXBundle, sample: TimeSeriesSample, position: tuple[int, int], factors: list[float],
    sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER,
) -> BoundaryProbeResult:
    """explain.boundary_probe, one perturbed sample and one explain_sample per factor."""
    channel, step = position
    tables, truths, predictions = [], [], []
    for factor in factors:
        values = sample.values.copy()
        values[channel, step] *= factor
        perturbed = TimeSeriesSample(id=sample.id, values=values, label=sample.label)
        records, prediction = explain_sample(bundle, perturbed)
        tables.append(records)
        truths.append(anomaly_label_one(values, sigma_multiplier))
        predictions.append(prediction)
    records = PatchRecords(np.concatenate([t.sample_ids for t in tables]), tables[0].spans,
                           np.concatenate([t.softmax for t in tables]))
    return BoundaryProbeResult(sample.id, position, np.array(factors, dtype=np.float64), np.array(truths),
                               np.array(predictions), records)


def anomaly_label_one(values: np.ndarray, sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER) -> int:
    """The anomaly label rule of one (channels, length) sample."""
    mean = values.mean(axis=1, keepdims=True)
    std = values.std(axis=1, keepdims=True)
    return int(np.any(values > mean + sigma_multiplier * std))


def generate_anomaly_loop(spec: AnomalyGenSpec) -> tuple[Dataset, Dataset, Dataset]:
    """data.generate_anomaly, one array and one label call per sample."""
    rng = np.random.default_rng(spec.seed)
    splits = []
    for split_name, count in (("train", spec.train_count), ("val", spec.val_count), ("test", spec.test_count)):
        samples = []
        for i in range(count):
            values = rng.normal(0.0, spec.noise_sigma, size=(spec.channels, spec.length))
            meta = None
            if rng.random() < 0.5:
                channel = int(rng.integers(0, spec.channels))
                step = int(rng.integers(2, spec.length - 1))
                amplitude = float(rng.uniform(*spec.peak_amplitude_range))
                values[channel, step] = amplitude
                meta = {"peak_channel": channel, "peak_step": step, "peak_value": amplitude}
            samples.append(TimeSeriesSample(i, values, anomaly_label_one(values, spec.sigma_multiplier), meta))
        splits.append(Dataset(samples=samples, class_count=2, split=split_name))
    return splits[0], splits[1], splits[2]


def one_width_patch_predictions(bundle: PatchXBundle, dataset: Dataset) -> np.ndarray:
    """PatchXBundle.patch_predictions with every slot cut at the layout's widest crop."""
    values = dataset.values_array()
    if bundle.norm_stats:
        values = znormalize(values, bundle.norm_stats)
    x, _, offsets = build_patch_arrays(values, dataset.labels_array(), bundle.patch_configs, bundle.network.halo)
    return neuralnet.forward_all(bundle.network, [(x, offsets)])[0].reshape(len(dataset), -1, bundle.class_count)


def per_config_patch_predictions(bundle: PatchXBundle, dataset: Dataset) -> np.ndarray:
    """PatchXBundle.patch_predictions with each config's crops built as one
    tensor by patch_tensor."""
    values = dataset.values_array()
    if bundle.norm_stats:
        values = znormalize(values, bundle.norm_stats)
    net, groups = bundle.network, []
    for config in bundle.patch_configs:
        x, _, offsets = patch_tensor(values, dataset.labels_array(), [config], net.halo)
        groups.append((x, offsets))
    return np.concatenate([probs.reshape(len(dataset), -1, bundle.class_count)
                           for probs in neuralnet.forward_all(net, groups)], axis=1)


def row_scan_decode(raw: bytes, origin: str | Path, split: str = "train") -> Dataset:
    try:
        lines = [line.rstrip("\n") for line in io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")]
    except UnicodeDecodeError as err:
        raise ParseError(f"{origin} is not UTF-8 text ({err.reason})") from None
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ParseError(f"{origin} is empty")
    header = lines[0].split(",")
    if len(header) != 3:
        raise ParseError("header must be 'channels,length,class_count'")
    try:
        channels, length, class_count = (int(v) for v in header)
    except ValueError:
        raise ParseError(f"non-integer header field in {lines[0]!r}") from None
    if channels < 1 or length < 1 or class_count < 2:
        raise ParseError(f"header {lines[0]!r} needs channels >= 1, length >= 1, class_count >= 2")
    expected = channels * length + 1
    samples = []
    for row_no, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != expected:
            raise ParseError(
                f"inconsistent length: expected {expected} fields "
                f"({channels}x{length} values + label), got {len(fields)}",
                row=row_no,
            )
        try:
            values = np.array([float(v) for v in fields[:-1]], dtype=np.float64)
        except ValueError:
            bad = next(v for v in fields[:-1] if not _is_number(v))
            raise ParseError(f"non-numeric value {bad!r}", row=row_no) from None
        if not np.all(np.isfinite(values)):
            raise ParseError("values contain NaN or Inf", row=row_no)
        try:
            label = int(fields[-1])
        except ValueError:
            raise ParseError(f"non-integer label {fields[-1]!r}", row=row_no) from None
        if not (0 <= label < class_count):
            raise ParseError(f"label {label} outside [0, {class_count})", row=row_no)
        samples.append(
            TimeSeriesSample(id=row_no - 1, values=values.reshape(channels, length), label=label)
        )
    if not samples:
        raise ParseError(f"{origin} has a header but no samples")
    return Dataset(samples=samples, class_count=class_count, split=split)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
