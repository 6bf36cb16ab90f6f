"""Persisted pipeline artifact and the single inference path.

Inference on any dataset, including a one-sample one built for an
explanation, runs the same four steps: patch arrays, network softmax of shape
(samples, slots, classes), the class-presence matrix (metadata.extract_all),
and the shallow model's predict_all. Every sample has the patch_spans layout,
so a patch is addressed by its (sample row, slot) position.

File layout (all little-endian):

    bytes 0-4   magic b"PCHX1"
    bytes 5-6   uint16 format version (currently 1)
    bytes 7-14  uint64 JSON header length
    ...         UTF-8 JSON header (specs, shallow metadata, array manifest)
    ...         raw array payload, float64/int64 buffers in manifest order

Header records are the dataclasses' fields: specs and configs via asdict, the
norm stats and shallow model via one field walk (_state) that puts each array
in the payload as <prefix><field>. Each restored object checks its own state in
its constructor, as a fitted one does; _check_parts then checks that they agree.
The shallow record alone holds the presence-feature layout (collapse,
normalize). The reader ignores header keys it does not read, so a file that
also carries an older second copy of that layout loads the same.

Round-trips are bitwise faithful: every numeric parameter travels through the
binary payload, never through JSON. A file that is cut short, whose lengths
disagree with its manifest, whose header lacks a key or has a value of the
wrong type, shape or state, or whose float arrays hold a NaN or an infinity
is rejected with a BundleError naming the cause.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, NormStats, TimeSeriesSample, znormalize
from .metadata import PresenceMatrix, extract_all
from .neuralnet import DimensionError, NetworkSpec, PatchNet, build_network, forward_all, parameter_shapes
from .patching import Crops, PatchConfig, _check_configs, build_patch_arrays, check_fits, patch_spans, value_table
from .shallow import ForestModel, SvmModel, TreeArrays, TrivialModel, predict_all

MAGIC = b"PCHX1"
FORMAT_VERSION = 1
_PREFIX = 15  # magic, version and header length


class BundleError(ValueError):
    pass


@dataclass(frozen=True)
class PatchXBundle:
    network: PatchNet
    patch_configs: list[PatchConfig]
    norm_stats: NormStats | None
    shallow_model: object

    @property
    def class_count(self) -> int:
        return self.network.spec.class_count

    # -- inference ---------------------------------------------------------

    def patch_groups(self, dataset: Dataset) -> list[tuple[Crops, np.ndarray, np.ndarray]]:
        """Every patch of the dataset as one (crops, patch_labels, offsets)
        group a config, in config order: each cut at its config's own widest
        crop, from one value table of the z-normalized samples."""
        spec = self.network.spec
        channels = spec.input_channels - (1 if self.patch_configs[0].attach else 0)
        if not dataset.samples:
            raise ValueError("dataset is empty")
        if (dataset.channels, dataset.length) != (channels, spec.input_length):
            raise DimensionError(
                f"dataset samples have (channels, length) {(dataset.channels, dataset.length)}, "
                f"the bundle expects {(channels, spec.input_length)}"
            )
        if dataset.class_count != self.class_count:
            raise DimensionError(
                f"dataset has {dataset.class_count} classes, the bundle {self.class_count}"
            )
        values = dataset.values_array()
        if self.norm_stats:
            values = znormalize(values, self.norm_stats)
        table, labels = value_table(values, self.patch_configs[0].attach), dataset.labels_array()
        return [build_patch_arrays(table, labels, [config], self.network.halo) for config in self.patch_configs]

    def patch_predictions(self, dataset: Dataset) -> np.ndarray:
        """Softmax of every patch, shape (n_samples, P, class_count): row i,
        slot k is patch patch_spans(length, patch_configs)[k] of sample i;
        one forward_all call, which owns the buffers, runs all patch_groups."""
        probs = forward_all(self.network, [(x, offsets) for x, _, offsets in self.patch_groups(dataset)])
        return np.concatenate([p.reshape(len(dataset), -1, self.class_count) for p in probs], axis=1)

    def presence(self, dataset: Dataset, softmaxes: np.ndarray) -> PresenceMatrix:
        """The class-presence matrix of the dataset's patch_predictions."""
        spans = patch_spans(dataset.length, self.patch_configs)
        return extract_all(
            softmaxes, [ci for ci, _, _, _ in spans], dataset.ids(), dataset.labels_array(),
            class_count=self.class_count, n_configs=len(self.patch_configs),
        )

    def vectors(self, dataset: Dataset) -> PresenceMatrix:
        return self.presence(dataset, self.patch_predictions(dataset))

    def predict_dataset(self, dataset: Dataset) -> tuple[np.ndarray, PresenceMatrix]:
        matrix = self.vectors(dataset)
        return predict_all(self.shallow_model, matrix), matrix

    def sample_patch_predictions(
        self, sample: TimeSeriesSample
    ) -> tuple[np.ndarray, int, PresenceMatrix]:
        """One sample through the dataset path: the softmax of each of its
        patches (rows in patch_spans order), its predicted label, and its
        one-row presence matrix."""
        dataset = Dataset([sample], self.class_count, split="sample")
        softmaxes = self.patch_predictions(dataset)
        matrix = self.presence(dataset, softmaxes)
        return softmaxes[0], int(predict_all(self.shallow_model, matrix)[0]), matrix

    def predict_sample(self, sample: TimeSeriesSample) -> tuple[int, PresenceMatrix]:
        _, label, matrix = self.sample_patch_predictions(sample)
        return label, matrix


# -- serialization -----------------------------------------------------------


_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_SHALLOW_KINDS = {model.kind: model for model in (SvmModel, ForestModel, TrivialModel)}


def _state(obj, prefix: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header meta and payload arrays of a dataclass, one per field: an
    array field is the payload array prefix + name, a scalar a meta key, and
    None is left out. A forest's trees travel as prefix + "offsets" plus the
    node arrays of all trees, concatenated."""
    meta, arrays = {}, {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, list):
            arrays[prefix + "offsets"] = np.cumsum([0] + [len(t.feature) for t in value]).astype(np.int64)
            for node in fields(value[0]):
                arrays[prefix + node.name] = np.concatenate([getattr(t, node.name) for t in value])
        elif isinstance(value, np.ndarray):
            arrays[prefix + f.name] = value
        elif value is not None:
            meta[f.name] = value
    return meta, arrays


def _shallow_state(model) -> tuple[dict, dict[str, np.ndarray]]:
    meta, arrays = _state(model, f"{model.kind}_")
    if model.kind == "svm":
        meta["standardized"] = model.feature_mean is not None
    return {"kind": model.kind, **meta}, arrays


def _restore(cls, prefix: str, meta: dict, arrays: dict[str, np.ndarray]):
    """cls built from its header meta and its prefix + field payload arrays."""
    state = {name[len(prefix):]: a for name, a in arrays.items() if name.startswith(prefix)}
    if "offsets" in state:
        offsets = state.pop("offsets")
        if not (offsets.ndim == 1 and len(offsets) > 1 and offsets[0] == 0 and np.all(np.diff(offsets) > 0)
                and {len(a) for a in state.values()} == {offsets[-1]}):
            raise ValueError(f"{prefix}offsets do not rise strictly from 0 to the node count")
        state = {"trees": [TreeArrays(**{k: a[lo:hi] for k, a in state.items()})
                           for lo, hi in zip(offsets[:-1], offsets[1:])]}
    return cls(**meta, **state)


def save_bundle(bundle: PatchXBundle, path: str | Path) -> None:
    arrays = {f"net/{name}": p for name, p in bundle.network.parameters()}
    if bundle.norm_stats is not None:
        arrays.update(_state(bundle.norm_stats, "norm_")[1])
    shallow_meta, shallow_arrays = _shallow_state(bundle.shallow_model)
    arrays.update(shallow_arrays)

    manifest, payload = [], bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _DTYPES:
            raise BundleError(f"array {name} has unsupported dtype {arr.dtype}")
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        payload.extend(arr.astype(dtype, copy=False).tobytes())

    header = {
        "network": asdict(bundle.network.spec),
        "patch_configs": [asdict(c) for c in bundle.patch_configs],
        "normalized": bundle.norm_stats is not None,
        "shallow": shallow_meta,
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(bytes(payload))


def load_bundle(path: str | Path) -> PatchXBundle:
    return decode_bundle(Path(path).read_bytes(), path)


def decode_bundle(raw: bytes, origin: str | Path) -> PatchXBundle:
    """The bundle in raw, the bytes of a bundle file; every BundleError names origin."""
    if raw[:5] != MAGIC:
        raise BundleError(f"{origin}: not a PatchX bundle (bad magic {raw[:5]!r})")
    if len(raw) < _PREFIX:
        raise BundleError(f"{origin}: truncated before the header length ({len(raw)} bytes)")
    (version,) = struct.unpack("<H", raw[5:7])
    if version != FORMAT_VERSION:
        raise BundleError(f"{origin}: unsupported bundle format version {version}")
    (header_len,) = struct.unpack("<Q", raw[7:_PREFIX])
    if header_len > len(raw) - _PREFIX:
        raise BundleError(
            f"{origin}: header length {header_len} exceeds the {len(raw) - _PREFIX} bytes "
            "after the prefix; the file is truncated or the length is corrupt"
        )
    try:
        header = json.loads(raw[_PREFIX : _PREFIX + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as err:  # UnicodeDecodeError, JSONDecodeError, deep nesting
        raise BundleError(f"{origin}: corrupt header ({err})") from None
    try:
        return _decode(raw, header, _PREFIX + header_len, origin)
    except KeyError as err:
        raise BundleError(f"{origin}: the header or its arrays lack the key {err.args[0]!r}") from None
    except BundleError:
        raise
    except (TypeError, ValueError) as err:  # wrong JSON types; spec, config and shape checks
        raise BundleError(f"{origin}: malformed header: {err}") from None


def _decode(raw: bytes, header: dict, offset: int, origin: str | Path) -> PatchXBundle:
    """The bundle described by a parsed header, its arrays read from offset on."""
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if entry["dtype"] not in _DTYPES:
            raise BundleError(f"{origin}: array {entry['name']!r} has unknown dtype {entry['dtype']!r}")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise BundleError(f"{origin}: array {entry['name']!r} has the bad shape {shape!r}")
        dtype = _DTYPES[entry["dtype"]]
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(raw):
            raise BundleError(
                f"{origin}: payload truncated: array {entry['name']!r} needs bytes "
                f"{offset}-{offset + nbytes}, the file has {len(raw)}"
            )
        arrays[entry["name"]] = np.frombuffer(raw[offset : offset + nbytes], dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise BundleError(f"{origin}: {len(raw) - offset} trailing bytes after array payload")

    net = header["network"]
    spec = NetworkSpec(**{**net, "conv_blocks": tuple(map(tuple, net["conv_blocks"]))})
    for name, shape in parameter_shapes(spec):  # before a network of that size is built
        if (found := arrays[f"net/{name}"].shape) != shape:
            raise DimensionError(f"parameter {name}: shape {found} != {shape}")
    network = build_network(spec)
    np.concatenate([arrays[f"net/{name}"].ravel() for name, _ in network.parameters()], out=network.flat_params)
    configs = [PatchConfig(**c) for c in header["patch_configs"]]
    stats = _restore(NormStats, "norm_", {}, arrays) if header["normalized"] else None
    meta = dict(header["shallow"])
    kind = meta.pop("kind")
    if kind not in _SHALLOW_KINDS:
        raise ValueError(f"unknown shallow kind {kind!r}")
    shallow = _restore(_SHALLOW_KINDS[kind], f"{kind}_", meta, arrays)
    for name, array in arrays.items():  # after the parts' own checks, which name their cause
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise BundleError(f"{origin}: array {name!r} holds a NaN or an infinity")
    _check_parts(spec, configs, stats, shallow)
    return PatchXBundle(network, configs, stats, shallow)


def _check_parts(spec: NetworkSpec, configs: list[PatchConfig], stats: NormStats | None, shallow) -> None:
    """The restored parts agree: patches that fit the network's input, norm
    stats per input channel, and a shallow model that scores the bundle's
    presence layout to the network's classes."""
    _check_configs(configs)  # a ConfigError if there are none or they disagree on attach
    for config in configs:
        check_fits(config, spec.input_length)
    channels = spec.input_channels - (1 if configs[0].attach else 0)
    if stats is not None and stats.mean.shape != (channels,):
        raise ValueError(f"norm stats are {stats.mean.shape}, the network takes {channels} data channels")
    if shallow.class_count != spec.class_count:
        raise ValueError(f"the shallow model has {shallow.class_count} classes, the network {spec.class_count}")
    k, c = len(configs), spec.class_count
    empty = PresenceMatrix(np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros((1, k, c)),
                           np.zeros((1, k, c), np.int64))
    shallow.decision_scores(empty)  # a ValueError on any other feature layout
