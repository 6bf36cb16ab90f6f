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

Round-trips are bitwise faithful: every numeric parameter travels through the
binary payload, never through JSON. A file that is cut short, whose lengths
disagree with its manifest, or whose header lacks a key or has a value of the
wrong type or shape is rejected with a BundleError naming the cause.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, NormStats, TimeSeriesSample, znormalize
from .metadata import PresenceMatrix, extract_all
from .neuralnet import DimensionError, NetworkSpec, PatchNet, build_network, forward_all
from .patching import PatchConfig, build_patch_arrays, patch_spans
from .shallow import ForestModel, SvmModel, TreeArrays, TrivialModel, predict_all

MAGIC = b"PCHX1"
FORMAT_VERSION = 1
_PREFIX = 15  # magic, version and header length


class BundleError(ValueError):
    pass


@dataclass
class PatchXBundle:
    network: PatchNet
    patch_configs: list[PatchConfig]
    norm_stats: NormStats | None
    shallow_model: object
    collapse: bool = False
    normalize_features: bool = False

    @property
    def class_count(self) -> int:
        return self.network.spec.class_count

    # -- inference ---------------------------------------------------------

    def patch_predictions(self, dataset: Dataset) -> np.ndarray:
        """Softmax of every patch, shape (n_samples, P, class_count): row i,
        slot k is patch patch_spans(length, patch_configs)[k] of sample i."""
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
        normalized = znormalize(dataset, self.norm_stats) if self.norm_stats else dataset
        x = build_patch_arrays(normalized, self.patch_configs)[0]
        return forward_all(self.network, x).reshape(len(dataset), -1, self.class_count)

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


def _shallow_state(model) -> tuple[dict, dict[str, np.ndarray]]:
    if isinstance(model, SvmModel):
        meta = {
            "kind": "svm",
            "class_count": model.class_count,
            "standardized": model.feature_mean is not None,
            "collapse": model.collapse,
            "normalize": model.normalize,
        }
        arrays = {"svm_weights": model.weights, "svm_biases": model.biases}
        if model.feature_mean is not None:
            arrays["svm_feature_mean"] = model.feature_mean
            arrays["svm_feature_std"] = model.feature_std
        return meta, arrays
    if isinstance(model, ForestModel):
        offsets = np.cumsum([0] + [len(t.feature) for t in model.trees]).astype(np.int64)
        arrays = {
            "forest_offsets": offsets,
            "forest_feature": np.concatenate([t.feature for t in model.trees]),
            "forest_threshold": np.concatenate([t.threshold for t in model.trees]),
            "forest_left": np.concatenate([t.left for t in model.trees]),
            "forest_right": np.concatenate([t.right for t in model.trees]),
            "forest_leaf": np.concatenate([t.leaf_class for t in model.trees]),
        }
        meta = {
            "kind": "forest",
            "class_count": model.class_count,
            "feature_dim": model.feature_dim,
            "collapse": model.collapse,
            "normalize": model.normalize,
        }
        return meta, arrays
    if isinstance(model, TrivialModel):
        meta = {
            "kind": "trivial",
            "mode": model.mode,
            "class_count": model.class_count,
            "n_configs": model.n_configs,
        }
        return meta, {}
    raise BundleError(f"cannot serialize shallow model of type {type(model).__name__}")


def _shallow_from_state(meta: dict, arrays: dict[str, np.ndarray]):
    kind = meta["kind"]
    if kind == "svm":
        return SvmModel(
            weights=arrays["svm_weights"],
            biases=arrays["svm_biases"],
            class_count=meta["class_count"],
            feature_mean=arrays.get("svm_feature_mean"),
            feature_std=arrays.get("svm_feature_std"),
            collapse=meta["collapse"],
            normalize=meta["normalize"],
        )
    if kind == "forest":
        offsets = arrays["forest_offsets"]
        trees = []
        for i in range(len(offsets) - 1):
            lo, hi = offsets[i], offsets[i + 1]
            trees.append(
                TreeArrays(
                    feature=arrays["forest_feature"][lo:hi],
                    threshold=arrays["forest_threshold"][lo:hi],
                    left=arrays["forest_left"][lo:hi],
                    right=arrays["forest_right"][lo:hi],
                    leaf_class=arrays["forest_leaf"][lo:hi],
                )
            )
        return ForestModel(
            trees=trees,
            class_count=meta["class_count"],
            feature_dim=meta["feature_dim"],
            collapse=meta["collapse"],
            normalize=meta["normalize"],
        )
    if kind == "trivial":
        return TrivialModel(
            mode=meta["mode"], class_count=meta["class_count"], n_configs=meta["n_configs"]
        )
    raise BundleError(f"unknown shallow kind {kind!r} in bundle")


def save_bundle(bundle: PatchXBundle, path: str | Path) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, p in bundle.network.parameters():
        arrays[f"net/{name}"] = p
    if bundle.norm_stats is not None:
        arrays["norm_mean"] = bundle.norm_stats.mean
        arrays["norm_std"] = bundle.norm_stats.std
    shallow_meta, shallow_arrays = _shallow_state(bundle.shallow_model)
    arrays.update(shallow_arrays)

    manifest = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.int64:
            dtype = "<i8"
        else:
            raise BundleError(f"array {name} has unsupported dtype {arr.dtype}")
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        payload.extend(arr.astype(_DTYPES[dtype], copy=False).tobytes())

    spec = bundle.network.spec
    header = {
        "network": {
            "input_channels": spec.input_channels,
            "input_length": spec.input_length,
            "class_count": spec.class_count,
            "conv_blocks": [list(b) for b in spec.conv_blocks],
            "seed": spec.seed,
        },
        "patch_configs": [
            {"stride": c.stride, "length": c.length, "zero": c.zero,
             "attach": c.attach, "notemp": c.notemp}
            for c in bundle.patch_configs
        ],
        "normalized": bundle.norm_stats is not None,
        "metadata_options": {"collapse": bundle.collapse, "normalize": bundle.normalize_features},
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
    raw = Path(path).read_bytes()
    if raw[:5] != MAGIC:
        raise BundleError(f"{path}: not a PatchX bundle (bad magic {raw[:5]!r})")
    if len(raw) < _PREFIX:
        raise BundleError(f"{path}: truncated before the header length ({len(raw)} bytes)")
    (version,) = struct.unpack("<H", raw[5:7])
    if version != FORMAT_VERSION:
        raise BundleError(f"{path}: unsupported bundle format version {version}")
    (header_len,) = struct.unpack("<Q", raw[7:_PREFIX])
    if header_len > len(raw) - _PREFIX:
        raise BundleError(
            f"{path}: header length {header_len} exceeds the {len(raw) - _PREFIX} bytes "
            "after the prefix; the file is truncated or the length is corrupt"
        )
    try:
        header = json.loads(raw[_PREFIX : _PREFIX + header_len].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError
        raise BundleError(f"{path}: corrupt header ({err})") from None
    try:
        return _decode(raw, header, _PREFIX + header_len, path)
    except KeyError as err:
        raise BundleError(f"{path}: the header or its arrays lack the key {err.args[0]!r}") from None
    except BundleError:
        raise
    except (TypeError, ValueError) as err:  # wrong JSON types; spec, config and shape checks
        raise BundleError(f"{path}: malformed header: {err}") from None


def _decode(raw: bytes, header: dict, offset: int, path: str | Path) -> PatchXBundle:
    """The bundle described by a parsed header, its arrays read from offset on."""
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if entry["dtype"] not in _DTYPES:
            raise BundleError(f"{path}: array {entry['name']!r} has unknown dtype {entry['dtype']!r}")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise BundleError(f"{path}: array {entry['name']!r} has the bad shape {shape!r}")
        dtype = _DTYPES[entry["dtype"]]
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(raw):
            raise BundleError(
                f"{path}: payload truncated: array {entry['name']!r} needs bytes "
                f"{offset}-{offset + nbytes}, the file has {len(raw)}"
            )
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=dtype).reshape(shape)
        arrays[entry["name"]] = arr.copy()
        offset += nbytes
    if offset != len(raw):
        raise BundleError(f"{path}: {len(raw) - offset} trailing bytes after array payload")

    net_meta = header["network"]
    spec = NetworkSpec(
        input_channels=net_meta["input_channels"],
        input_length=net_meta["input_length"],
        class_count=net_meta["class_count"],
        conv_blocks=tuple(tuple(b) for b in net_meta["conv_blocks"]),
        seed=net_meta["seed"],
    )
    network = build_network(spec)
    network.set_state({name: arrays[f"net/{name}"] for name, _ in network.parameters()})
    configs = [PatchConfig(**c) for c in header["patch_configs"]]
    for config in configs:
        config.validate(spec.input_length)
    stats = None
    if header["normalized"]:
        stats = NormStats(mean=arrays["norm_mean"], std=arrays["norm_std"])
    shallow = _shallow_from_state(header["shallow"], arrays)
    options = header["metadata_options"]
    return PatchXBundle(
        network=network,
        patch_configs=configs,
        norm_stats=stats,
        shallow_model=shallow,
        collapse=options["collapse"],
        normalize_features=options["normalize"],
    )
