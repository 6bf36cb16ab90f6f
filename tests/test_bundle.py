import json
import random
import struct

import numpy as np
import pytest

from patchx.bundle import BundleError, MAGIC, PatchXBundle, load_bundle, save_bundle
from patchx.data import Dataset, NormStats, TimeSeriesSample
from patchx.explain import mislabel_report
from patchx.metadata import PresenceMatrix
from patchx.neuralnet import DimensionError, NetworkSpec, build_network
from patchx.patching import PatchConfig
from patchx.shallow import ForestSpec, ShallowSpec, TrivialSpec, fit, predict_all


def make_vectors(seed=0, n=30):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    blocks = np.abs(rng.normal(size=(n, 2, 2))) + np.eye(2)[labels][:, None, :] * 2
    return PresenceMatrix(
        sample_ids=np.arange(n),
        labels=labels,
        blocks=blocks,
        counts=np.ceil(blocks).astype(np.int64),
        patch_counts=np.tile(np.array([10, 5], dtype=np.int64), (n, 1)),
    )


def make_bundle(shallow_kind="svm", stats=True):
    spec = NetworkSpec(4, 50, 2, conv_blocks=((4, 3, "relu"), (6, 3, "relu")), seed=9)
    network = build_network(spec)
    if shallow_kind == "forest":
        shallow_spec = ShallowSpec(kind="forest", forest=ForestSpec(trees=5, seed=3))
    elif shallow_kind == "trivial":
        shallow_spec = ShallowSpec(kind="trivial", trivial=TrivialSpec(mode="occurrence"))
    else:
        shallow_spec = ShallowSpec(kind="svm")
    model = fit(shallow_spec, make_vectors())
    norm = None
    if stats:
        rng = np.random.default_rng(4)
        norm = NormStats(mean=rng.normal(size=3), std=np.abs(rng.normal(size=3)) + 0.5)
    return PatchXBundle(
        network=network,
        patch_configs=[PatchConfig(5, 10), PatchConfig(10, 20)],
        norm_stats=norm,
        shallow_model=model,
        collapse=False,
        normalize_features=False,
    )


@pytest.mark.parametrize("kind", ["svm", "forest", "trivial"])
def test_round_trip_bitwise(tmp_path, kind):
    bundle = make_bundle(kind)
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    loaded = load_bundle(path)

    for (name_a, p_a), (_, p_b) in zip(bundle.network.parameters(), loaded.network.parameters()):
        np.testing.assert_array_equal(p_a, p_b, err_msg=name_a)
    assert loaded.patch_configs == bundle.patch_configs
    np.testing.assert_array_equal(loaded.norm_stats.mean, bundle.norm_stats.mean)
    np.testing.assert_array_equal(loaded.norm_stats.std, bundle.norm_stats.std)
    if kind == "svm":
        np.testing.assert_array_equal(loaded.shallow_model.weights, bundle.shallow_model.weights)
        np.testing.assert_array_equal(loaded.shallow_model.biases, bundle.shallow_model.biases)
    elif kind == "forest":
        for ta, tb in zip(bundle.shallow_model.trees, loaded.shallow_model.trees):
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.left, tb.left)
            np.testing.assert_array_equal(ta.right, tb.right)
            np.testing.assert_array_equal(ta.leaf_class, tb.leaf_class)
    else:
        assert loaded.shallow_model.mode == "occurrence"

    # a second save of the loaded bundle is byte-identical
    path2 = tmp_path / "model2.pchx"
    save_bundle(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_predictions_identical(tmp_path):
    bundle = make_bundle("svm")
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    matrix = make_vectors(seed=8, n=10)
    np.testing.assert_array_equal(
        predict_all(bundle.shallow_model, matrix), predict_all(loaded.shallow_model, matrix)
    )
    np.testing.assert_array_equal(
        bundle.shallow_model.decision_scores(matrix), loaded.shallow_model.decision_scores(matrix)
    )


def test_magic_is_pchx1(tmp_path):
    bundle = make_bundle()
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    assert path.read_bytes()[:5] == MAGIC == b"PCHX1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pchx"
    path.write_bytes(b"NOPE!" + b"\x00" * 32)
    with pytest.raises(BundleError, match="magic"):
        load_bundle(path)


def test_bad_version_rejected(tmp_path):
    bundle = make_bundle()
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    raw = bytearray(path.read_bytes())
    raw[5] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleError, match="version"):
        load_bundle(path)


def test_trailing_garbage_rejected(tmp_path):
    bundle = make_bundle()
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(BundleError, match="trailing"):
        load_bundle(path)


def _truncate_payload(raw):
    return raw[:-9]


def _truncate_header(raw):
    (header_len,) = struct.unpack("<Q", raw[7:15])
    return raw[: 15 + header_len // 2]


def _bogus_header_length(raw):
    (header_len,) = struct.unpack("<Q", raw[7:15])
    return raw[:7] + struct.pack("<Q", header_len + 40) + raw[15:]


def _short_header_length(raw):
    (header_len,) = struct.unpack("<Q", raw[7:15])
    return raw[:7] + struct.pack("<Q", header_len - 3) + raw[15:]


def _with_header(raw, header):
    """raw with its JSON header replaced by header, and the length to match."""
    (header_len,) = struct.unpack("<Q", raw[7:15])
    text = json.dumps(header).encode("utf-8")
    return raw[:7] + struct.pack("<Q", len(text)) + text + raw[15 + header_len :]


def _edit_header(edit):
    """A corruption that rewrites the parsed JSON header in place."""
    def corrupt(raw):
        (header_len,) = struct.unpack("<Q", raw[7:15])
        header = json.loads(raw[15 : 15 + header_len])
        edit(header)
        return _with_header(raw, header)
    return corrupt


def _f4_dtype(header):
    header["arrays"][0]["dtype"] = "<f4"


def _array(name, **entry):
    """An edit that updates the manifest entry of one array."""
    return _edit_header(lambda h: next(a for a in h["arrays"] if a["name"] == name).update(entry))


@pytest.mark.parametrize("corrupt, cause", [
    (_truncate_payload, "payload truncated"),
    (_truncate_header, "header length .* exceeds"),
    (_bogus_header_length, "corrupt header"),
    (_short_header_length, "corrupt header"),
    (lambda raw: raw[:10], "truncated before the header length"),
    (_edit_header(lambda h: h.pop("network")), "lack the key 'network'"),
    (_edit_header(lambda h: h.pop("arrays")), "lack the key 'arrays'"),
    (_edit_header(_f4_dtype), "unknown dtype '<f4'"),
    (lambda raw: _with_header(raw, []), "malformed header"),
    (lambda raw: _with_header(raw, {"arrays": 5}), "malformed header"),
    (_array("net/conv0.w", shape="ab"), "bad shape 'ab'"),
    (_array("net/conv0.w", shape=[-4, 4, 3]), r"bad shape \[-4, 4, 3\]"),
    (_edit_header(lambda h: h["patch_configs"][0].update(size=3)), "malformed header"),
    (_edit_header(lambda h: h["network"].update(conv_blocks=5)), "malformed header"),
    (_edit_header(lambda h: h["network"].update(class_count="2")), "malformed header"),
    (_edit_header(lambda h: h.update(shallow=None)), "malformed header"),
    (_edit_header(lambda h: h["network"].update(input_channels=5)), "parameter conv0.w: shape"),
    (_edit_header(lambda h: h["network"].update(input_length=12)), "exceeds sample length 12"),
], ids=["truncated-payload", "truncated-header", "bogus-header-length", "short-header-length",
        "truncated-prefix", "no-network-key", "no-arrays-key", "f4-dtype", "list-header",
        "int-arrays", "text-shape", "negative-shape", "unknown-patch-key", "int-conv-blocks",
        "text-class-count", "null-shallow", "spec-disagrees-with-parameters",
        "patch-longer-than-input"])
def test_corrupt_bundle_raises_bundle_error(tmp_path, corrupt, cause):
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(BundleError, match=cause):
        load_bundle(path)


def test_bundle_without_normalization(tmp_path):
    bundle = make_bundle(stats=False)
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.norm_stats is None


def test_bundle_byte_mutations_load_or_raise_bundle_error(tmp_path):
    """Seeded single-byte mutations: half anywhere in the file, half in the
    prefix and JSON header, where a change can alter the structure."""
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[7:15])
    rng = random.Random(5)
    for trial in range(600):
        mutant = bytearray(raw)
        position = rng.randrange(len(raw) if trial % 2 else 15 + header_len)
        mutant[position] = rng.randrange(256)
        path.write_bytes(bytes(mutant))
        try:
            load_bundle(path)
        except BundleError:
            pass
        except Exception as err:
            pytest.fail(f"byte {position} set to {mutant[position]}: {type(err).__name__}: {err}")


def test_dataset_class_count_must_match_bundle():
    bundle = make_bundle()
    dataset = Dataset([TimeSeriesSample(id=0, values=np.zeros((3, 50)), label=2)], class_count=3)
    with pytest.raises(DimensionError, match="3 classes, the bundle 2"):
        bundle.patch_predictions(dataset)
    with pytest.raises(DimensionError, match="3 classes, the bundle 2"):
        mislabel_report(bundle, dataset)
