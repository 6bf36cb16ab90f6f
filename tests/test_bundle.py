import json
import math
import random
import re
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from patchx import bundle as bundle_module, patching
from patchx.bundle import BundleError, MAGIC, PatchXBundle, decode_bundle, load_bundle, save_bundle
from patchx.data import Dataset, NormStats, TimeSeriesSample
from patchx.explain import mislabel_report
from patchx.metadata import PresenceMatrix
from patchx.neuralnet import EVAL_BATCH, Conv1d, DimensionError, NetworkSpec, PatchNet, TrainSpec, build_network, train
from patchx.patching import PatchConfig, build_patch_arrays, patch_spans
from patchx.shallow import ForestSpec, ShallowSpec, TreeArrays, TrivialSpec, fit, predict_all

from oracles import one_width_patch_predictions, per_config_patch_predictions


def make_vectors(seed=0, n=30):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    blocks = np.abs(rng.normal(size=(n, 2, 2))) + np.eye(2)[labels][:, None, :] * 2
    return PresenceMatrix(
        sample_ids=np.arange(n),
        labels=labels,
        blocks=blocks,
        counts=np.ceil(blocks).astype(np.int64),
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
        assert len(loaded.shallow_model.trees) == len(bundle.shallow_model.trees)
        for ta, tb in zip(bundle.shallow_model.trees, loaded.shallow_model.trees):
            for node in fields(TreeArrays):
                np.testing.assert_array_equal(getattr(ta, node.name), getattr(tb, node.name))
    else:
        assert loaded.shallow_model.mode == "occurrence"

    # a second save of the loaded bundle is byte-identical
    path2 = tmp_path / "model2.pchx"
    save_bundle(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_loaded_parameters_view_the_flat_vector(tmp_path):
    """load_bundle writes the parameters into the views of one flat vector."""
    bundle = make_bundle("svm")
    save_bundle(bundle, tmp_path / "model.pchx")
    network = load_bundle(tmp_path / "model.pchx").network
    for name, p in network.parameters():
        assert np.shares_memory(p, network.flat_params), name
    assert network.flat_params.tobytes() == bundle.network.flat_params.tobytes()


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


@pytest.mark.parametrize("options", [{"collapse": False, "normalize": False},
                                     {"collapse": True, "normalize": False}],
                         ids=["agrees", "disagrees"])
def test_older_layout_copy_is_ignored(tmp_path, options):
    """A header that also carries an older writer's copy of the feature layout,
    even one that disagrees with the shallow record, loads and predicts as the
    shallow record says."""
    path, older = tmp_path / "model.pchx", tmp_path / "older.pchx"
    save_bundle(make_bundle("svm"), path)
    older.write_bytes(_edit_header(lambda h: h.update(metadata_options=options))(path.read_bytes()))
    bundle, loaded = load_bundle(path), load_bundle(older)
    assert loaded.shallow_model.collapse is False
    rng = np.random.default_rng(6)
    dataset = Dataset([TimeSeriesSample(id=i, values=rng.normal(size=(3, 50)), label=i % 2)
                       for i in range(12)], class_count=2)
    labels, matrix = bundle.predict_dataset(dataset)
    loaded_labels, loaded_matrix = loaded.predict_dataset(dataset)
    np.testing.assert_array_equal(loaded_labels, labels)
    np.testing.assert_array_equal(loaded.shallow_model.decision_scores(loaded_matrix),
                                  bundle.shallow_model.decision_scores(matrix))


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


def _deep_nesting(raw):
    """raw with a header of JSON arrays nested far past the recursion limit."""
    (header_len,) = struct.unpack("<Q", raw[7:15])
    text = b"[" * 100_000 + b"]" * 100_000
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
    (_deep_nesting, "corrupt header"),
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
    (_edit_header(lambda h: h["patch_configs"][1].update(attach=False)), "agree on the attach flag"),
    (_edit_header(lambda h: h["patch_configs"][0].update(stride=2.5)), "malformed header: stride"),
    (_edit_header(lambda h: h["patch_configs"][0].update(length=4.5)), "malformed header: patch length"),
    (_edit_header(lambda h: h["patch_configs"][0].update(notemp="yes")), "malformed header: zero, attach and notemp"),
    (_edit_header(lambda h: [c.update(attach="yes") for c in h["patch_configs"]]),
     "malformed header: zero, attach and notemp"),
    (_edit_header(lambda h: h["network"].update(input_length=50.0)), "malformed header: input dimensions"),
], ids=["truncated-payload", "truncated-header", "bogus-header-length", "short-header-length",
        "deep-nesting", "truncated-prefix", "no-network-key", "no-arrays-key", "f4-dtype", "list-header",
        "int-arrays", "text-shape", "negative-shape", "unknown-patch-key", "int-conv-blocks",
        "text-class-count", "null-shallow", "spec-disagrees-with-parameters",
        "patch-longer-than-input", "configs-disagree-on-attach", "float-stride", "float-patch-length",
        "text-notemp", "text-attach", "float-input-length"])
def test_corrupt_bundle_raises_bundle_error(tmp_path, corrupt, cause):
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(BundleError, match=cause):
        load_bundle(path)


@pytest.mark.parametrize("edit, cause", [
    (lambda net: net["conv_blocks"][0].__setitem__(2, "linear"), "relu block, got activation 'linear'"),
    (lambda net: net.update(class_count=200_000), r"parameter dense.w: shape \(2, 6\) != \(200000, 6\)"),
    (lambda net: net["conv_blocks"][0].__setitem__(0, 20_000),
     r"parameter conv0.w: shape \(4, 4, 3\) != \(20000, 4, 3\)"),
], ids=["linear-block", "200000-classes", "20000-conv0-filters"])
def test_a_network_unlike_its_arrays_fails_before_it_is_built(tmp_path, edit, cause):
    """A header whose network is no relu stack, or is larger than its net/
    arrays, raises BundleError before a network is built: decoding peaks
    under 1 MB, where building the claimed network would draw its weights
    (and, for 20,000 filters, a ReLU zero block of ROW_BLOCK rows each)."""
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(), path)
    raw = _edit_header(lambda h: edit(h["network"]))(path.read_bytes())
    tracemalloc.start()
    try:
        with pytest.raises(BundleError, match=cause):
            decode_bundle(raw, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_decoding_enumerates_no_patches(tmp_path, monkeypatch):
    """Whether each config fits the input is read off its length: decoding
    builds no patch layout, whose size grows with the header's input_length."""
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(), path)
    raw = path.read_bytes()

    def refuse(*args):
        raise AssertionError("decoding enumerated the patch layout")

    monkeypatch.setattr(patching, "enumerate_patches", refuse)  # patch_spans calls it
    monkeypatch.setattr(bundle_module, "patch_spans", refuse)
    assert decode_bundle(raw, path).network.spec.input_length == make_bundle().network.spec.input_length
    too_long = _edit_header(lambda h: h["network"].update(input_length=12))(raw)
    with pytest.raises(BundleError, match="patch length .* exceeds sample length 12"):
        decode_bundle(too_long, path)


def _edit_arrays(edit):
    """A corruption that rewrites the payload arrays, a dict of name to array,
    and the manifest to match."""
    def corrupt(raw):
        (header_len,) = struct.unpack("<Q", raw[7:15])
        header = json.loads(raw[15 : 15 + header_len])
        arrays, offset = {}, 15 + header_len
        for entry in header["arrays"]:
            nbytes = math.prod(entry["shape"]) * 8
            arrays[entry["name"]] = np.frombuffer(
                raw[offset : offset + nbytes], dtype=entry["dtype"]).reshape(entry["shape"]).copy()
            offset += nbytes
        edit(arrays)
        names = sorted(arrays)
        header["arrays"] = [{"name": n, "dtype": arrays[n].dtype.str, "shape": list(arrays[n].shape)}
                            for n in names]
        return _with_header(raw[: 15 + header_len], header) + b"".join(arrays[n].tobytes() for n in names)
    return corrupt


def _set(name, index, value):
    """An edit that sets one element of one payload array."""
    return _edit_arrays(lambda arrays: arrays[name].__setitem__(index, value))


def _shallow(**meta):
    return _edit_header(lambda h: h["shallow"].update(meta))


@pytest.mark.parametrize("kind, corrupt, cause", [
    ("forest", _set("forest_left", 0, 0), "children must come after it"),
    ("forest", _set("forest_right", 0, 10**6), "children must come after it"),
    ("forest", _set("forest_feature", 0, 99), r"feature outside \[0, 4\)"),
    ("forest", _set("forest_leaf", -1, 2), r"leaf class is outside \[0, 2\)"),
    ("forest", _set("forest_offsets", 1, 0), "offsets do not rise strictly"),
    ("forest", _edit_arrays(lambda a: a["forest_offsets"].__setitem__(-1, a["forest_offsets"][-1] - 1)),
     "offsets do not rise strictly from 0 to the node count"),
    ("forest", _shallow(feature_dim=6), "feature dimension 4 does not match fitted dimension 6"),
    ("svm", _edit_arrays(lambda a: a.update(svm_weights=np.ones((1, 2)), svm_biases=np.zeros(4))),
     r"svm weights \(1, 2\) and biases \(4,\)"),
    ("svm", _shallow(standardized=True), "disagrees with its feature statistics"),
    ("svm", _edit_arrays(lambda a: a.update(norm_mean=np.zeros(4), norm_std=np.ones(4))),
     r"norm stats are \(4,\), the network takes 3"),
    ("svm", _set("norm_std", 1, 0.0), "finite positive std"),
    ("svm", _set("norm_std", 2, np.nan), "finite positive std"),
    ("trivial", _shallow(mode="bogus"), "unknown trivial mode 'bogus'"),
    ("trivial", _shallow(class_count=5), "5 classes, the network 2"),
    ("trivial", _shallow(n_configs=3), r"presence blocks \(2, 2\) do not match \(3, 2\)"),
    ("trivial", _shallow(kind="vote"), "unknown shallow kind 'vote'"),
], ids=["forest-root-to-root", "forest-child-past-end", "forest-feature-99", "forest-leaf-class-2",
        "forest-empty-tree", "forest-node-dropped", "forest-feature-dim", "svm-weight-shapes",
        "svm-standardized-without-stats", "norm-stats-shape", "norm-std-zero", "norm-std-nan",
        "trivial-bogus-mode", "trivial-class-count", "trivial-n-configs", "unknown-kind"])
def test_corrupt_state_raises_bundle_error(tmp_path, kind, corrupt, cause):
    """State that parses but that no fit can produce fails at load, not at predict."""
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(kind), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(BundleError, match="malformed header: .*" + cause):
        load_bundle(path)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["svm", "forest"])
def test_non_finite_float_raises_bundle_error(tmp_path, kind, value):
    """One NaN or infinity in any float array fails at load: the stds at their
    own check, every other array (network weights, norm mean, svm weights and
    biases, forest thresholds) at the payload's, which names it."""
    path = tmp_path / "model.pchx"
    save_bundle(make_bundle(kind), path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[7:15])
    names = [e["name"] for e in json.loads(raw[15 : 15 + header_len])["arrays"] if e["dtype"] == "<f8"]
    assert {"net/conv0.w", "net/dense.b", "norm_mean", "norm_std"} <= set(names)
    assert ({"svm_weights", "svm_biases"} if kind == "svm" else {"forest_threshold"}) <= set(names)
    for name in names:
        cause = "finite positive std" if name.endswith("std") else f"array '{name}' holds a NaN or an infinity"
        with pytest.raises(BundleError, match=re.escape(cause)):
            decode_bundle(_edit_arrays(lambda arrays: arrays[name].flat.__setitem__(0, value))(raw), path)


def test_a_built_bundle_is_never_reassigned():
    """A bundle with another part is a new bundle (dataclasses.replace)."""
    bundle = make_bundle()
    for field in fields(bundle):
        with pytest.raises(FrozenInstanceError):
            setattr(bundle, field.name, None)


def test_bundle_without_normalization(tmp_path):
    for kind in ("svm", "forest", "trivial"):
        path = tmp_path / f"{kind}.pchx"
        save_bundle(make_bundle(kind, stats=False), path)
        loaded = load_bundle(path)
        assert loaded.norm_stats is None
        save_bundle(loaded, tmp_path / "again.pchx")
        assert (tmp_path / "again.pchx").read_bytes() == path.read_bytes()


def test_specs_round_trip_with_every_option(tmp_path):
    """Blocks of two kernels, no attach channel and notemp come back equal,
    and the header records each spec and config as its dataclass fields."""
    spec = NetworkSpec(3, 50, 2, conv_blocks=((4, 3, "relu"), (6, 5, "relu")), seed=9)
    configs = [PatchConfig(5, 10, attach=False, notemp=True), PatchConfig(10, 20, attach=False)]
    bundle = replace(make_bundle(), network=build_network(spec), patch_configs=configs)
    path = tmp_path / "model.pchx"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.network.spec == spec
    assert loaded.patch_configs == configs
    (header_len,) = struct.unpack("<Q", path.read_bytes()[7:15])
    header = json.loads(path.read_bytes()[15 : 15 + header_len])
    assert header["network"] == {"input_channels": 3, "input_length": 50, "class_count": 2,
                                 "conv_blocks": [[4, 3, "relu"], [6, 5, "relu"]], "seed": 9}
    assert header["patch_configs"][0] == {"stride": 5, "length": 10, "zero": True,
                                          "attach": False, "notemp": True}


def _fuzz_fixtures(tmp_path):
    """(kind, bytes, length of the prefix and JSON header) of each shallow kind's bundle."""
    path = tmp_path / "model.pchx"
    for kind in ("svm", "forest", "trivial"):
        save_bundle(make_bundle(kind), path)
        raw = path.read_bytes()
        yield kind, raw, 15 + struct.unpack("<Q", raw[7:15])[0]


def _decodes_or_raises_bundle_error(mutant: bytearray, matrix, where: str) -> None:
    """The mutant decodes to a bundle that scores every row to a class, or raises BundleError."""
    try:
        labels = predict_all(decode_bundle(bytes(mutant), "model.pchx").shallow_model, matrix)
    except BundleError:
        return
    except Exception as err:
        pytest.fail(f"{where}: {type(err).__name__}: {err}")
    assert labels.shape == (len(matrix),) and np.all((labels >= 0) & (labels < 2)), where


def test_bundle_byte_mutations_load_or_raise_bundle_error(tmp_path):
    """Seeded single-byte mutations of each shallow kind's bundle: half
    anywhere in the file, half in the prefix and JSON header, where a change
    can alter the structure. A mutant that decodes scores every row to a class."""
    matrix = make_vectors()
    for kind, raw, structure in _fuzz_fixtures(tmp_path):
        rng = random.Random(5)
        for trial in range(600):
            mutant = bytearray(raw)
            position = rng.randrange(len(raw) if trial % 2 else structure)
            mutant[position] = rng.randrange(256)
            _decodes_or_raises_bundle_error(mutant, matrix, f"{kind}: byte {position} set to {mutant[position]}")


def test_every_header_byte_mutation_loads_or_raises_bundle_error(tmp_path):
    """Every byte of each fixture's prefix and JSON header set in turn to a
    NUL, a space, a quote, the digits 0 and 9, 0xFF and itself with its low
    bit flipped."""
    matrix = make_vectors()
    sizes = {}
    for kind, raw, structure in _fuzz_fixtures(tmp_path):
        sizes[kind] = structure
        for position in range(structure):
            for value in {0x00, ord(" "), ord('"'), ord("0"), ord("9"), 0xFF, raw[position] ^ 1} - {raw[position]}:
                mutant = bytearray(raw)
                mutant[position] = value
                _decodes_or_raises_bundle_error(mutant, matrix, f"{kind}: byte {position} set to {value}")
    assert sizes == {"svm": 905, "forest": 1115, "trivial": 788}


def test_dataset_class_count_must_match_bundle():
    bundle = make_bundle()
    dataset = Dataset([TimeSeriesSample(id=0, values=np.zeros((3, 50)), label=2)], class_count=3)
    with pytest.raises(DimensionError, match="3 classes, the bundle 2"):
        bundle.patch_predictions(dataset)
    with pytest.raises(DimensionError, match="3 classes, the bundle 2"):
        mislabel_report(bundle, dataset)


# -- evaluation cropped per config -----------------------------------------------

LENGTH = 23
FLAGS = [(False, False), (True, False), (False, True), (True, True)]
FLAG_IDS = ["plain", "attach", "notemp", "attach-notemp"]


def crop_bundle(attach, notemp, kernel, whole=False, stats=True, seed=0, depth=2):
    """A bundle of 2 data channels and depth (one to three) conv blocks with
    drawn biases (so the empty frame is not zero). The windows of 4:6 and 7:9
    start at step 0 and end at the last step, truncated there; whole adds a
    window that covers the frame. No shallow model: these tests stop at the
    patch softmax."""
    blocks = ((5, kernel, "relu"), (4, kernel, "relu"), (3, kernel, "relu"))[:depth]
    spec = NetworkSpec(2 + attach, LENGTH, 3, conv_blocks=blocks, seed=seed)
    network = build_network(spec)
    rng = np.random.default_rng(seed)
    for conv in network.convs:
        conv.b[...] = rng.normal(scale=0.5, size=conv.b.shape)
    tokens = [(4, 6), (7, 9)] + ([(LENGTH, LENGTH)] if whole else [])
    configs = [PatchConfig(stride, size, attach=attach, notemp=notemp) for stride, size in tokens]
    norm = NormStats(mean=rng.normal(size=2), std=np.abs(rng.normal(size=2)) + 0.5) if stats else None
    return PatchXBundle(network, configs, norm, None)


def crop_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset([TimeSeriesSample(id=i, values=rng.normal(size=(2, LENGTH)), label=i % 3) for i in range(n)],
                   class_count=3)


class TestPatchPredictionsPerConfig:
    """patch_predictions, each config cut at its own width, against the
    one-width oracle that cuts every slot at the layout's widest crop."""

    @staticmethod
    def check(bundle, dataset):
        got, want = bundle.patch_predictions(dataset), one_width_patch_predictions(bundle, dataset)
        assert got.shape == want.shape == (len(dataset), len(patch_spans(LENGTH, bundle.patch_configs)), 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # crops cut from one shared value table, against each config's tensor
        np.testing.assert_array_equal(got, per_config_patch_predictions(bundle, dataset))

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    @pytest.mark.parametrize("depth", [1, 2, 3], ids=["one-block", "two-blocks", "three-blocks"])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_matches_one_width(self, attach, notemp, kernel, depth):
        bundle = crop_bundle(attach, notemp, kernel, seed=kernel, depth=depth)
        halo = bundle.network.halo
        widths = [build_patch_arrays(np.zeros((1, 2, LENGTH)), np.zeros(1, np.int64), [c], halo)[0].shape[2]
                  for c in bundle.patch_configs]
        assert widths[0] < widths[1] < LENGTH  # each config has its own crop width
        self.check(bundle, crop_dataset(3, seed=kernel))

    @pytest.mark.parametrize("attach, notemp", FLAGS, ids=FLAG_IDS)
    def test_whole_frame_config(self, attach, notemp):
        """A config whose crop is the whole frame, beside two that crop."""
        self.check(crop_bundle(attach, notemp, 3, whole=True, stats=False), crop_dataset(3))

    @pytest.mark.parametrize("n", [1, 2 * EVAL_BATCH // 6 + 5])
    def test_one_sample_and_several_slices(self, n):
        """n = 1, and n large enough that each group spans several EVAL_BATCH slices."""
        bundle = crop_bundle(True, False, 5, seed=2)
        self.check(bundle, crop_dataset(n, seed=n))

    @staticmethod
    def first_conv_calls(monkeypatch, bundle, dataset) -> list:
        """(rows, width, whether the last row is all zero) of each first-conv
        call that patch_predictions makes."""
        forward, calls = Conv1d.forward, []

        def counting(conv, x, **kwargs):
            if conv is bundle.network.convs[0]:
                calls.append((len(x), x.shape[2], not x[-1].any()))
            return forward(conv, x, **kwargs)

        monkeypatch.setattr(Conv1d, "forward", counting)
        bundle.patch_predictions(dataset)
        monkeypatch.undo()
        return calls

    @staticmethod
    def slices(bundle, dataset) -> list:
        """first_conv_calls as forward_all should make them, one a slice of
        each config group: a slice of crops narrower than the frame is at
        most EVAL_BATCH - 1 of them and the all-zero crop after them; a slice
        of whole frames is at most EVAL_BATCH of them and no more."""
        calls = []
        for config in bundle.patch_configs:
            x = build_patch_arrays(dataset.values_array(), dataset.labels_array(), [config], bundle.network.halo)[0]
            crops = x.shape[2] < LENGTH
            step = EVAL_BATCH - crops
            calls += [(min(step, len(x) - lo) + crops, x.shape[2], crops) for lo in range(0, len(x), step)]
        return calls

    @pytest.mark.parametrize("n", [1, 2 * EVAL_BATCH // 6 + 5])
    def test_one_conv_pass_per_slice_and_none_on_the_empty_frame(self, monkeypatch, n):
        """Each slice carries the all-zero crop that its crops read outside
        themselves; no batch-1 pass computes the empty frame apart."""
        bundle = crop_bundle(True, False, 3, seed=3)
        dataset = crop_dataset(n)
        calls = self.first_conv_calls(monkeypatch, bundle, dataset)
        assert calls == self.slices(bundle, dataset)
        assert all(rows > 1 for rows, _, _ in calls)
        assert (calls[0][0] == EVAL_BATCH) is (n > 1)  # a full slice is EVAL_BATCH rows

    @pytest.mark.parametrize("n", [1, 2 * EVAL_BATCH // 6 + 5])
    def test_one_scratch_per_call(self, monkeypatch, n):
        """The config groups share one Scratch, made for the largest group's
        slice (at most EVAL_BATCH - 1 crops and the all-zero crop) and the
        widest crop."""
        bundle = crop_bundle(True, False, 3, seed=3)
        dataset = crop_dataset(n)
        want = bundle.patch_predictions(dataset)
        halo, labels = bundle.network.halo, dataset.labels_array()
        groups = [build_patch_arrays(dataset.values_array(), labels, [c], halo)[0] for c in bundle.patch_configs]
        made, make = [], PatchNet.scratch
        monkeypatch.setattr(PatchNet, "scratch",
                            lambda net, *args, **kwargs: made.append(make(net, *args, **kwargs)) or made[-1])
        np.testing.assert_array_equal(bundle.patch_predictions(dataset), want)
        monkeypatch.undo()
        sized = make(bundle.network, min(max(len(x) for x in groups), EVAL_BATCH - 1), max(x.shape[2] for x in groups))
        assert len(made) == 1
        assert {key: len(part) for key, part in made[0].buffers.items()} == \
            {key: len(part) for key, part in sized.buffers.items()}
        assert (len(groups[0]) > EVAL_BATCH) is (n > 1)

    def test_one_input_check_per_config_group(self, monkeypatch):
        """A one-sample call checks each group's crops once, in forward_all,
        and not again per slice."""
        bundle = crop_bundle(True, False, 3, seed=3)
        checked, check = [], PatchNet._check_input
        monkeypatch.setattr(PatchNet, "_check_input", lambda net, *args: checked.append(args) or check(net, *args))
        bundle.patch_predictions(crop_dataset(1))
        assert len(checked) == len(bundle.patch_configs) == 2

    def test_zero_blocks_stay_zero(self):
        """Training and evaluation only read each conv's zero block."""
        bundle = crop_bundle(True, False, 3, seed=3)
        dataset = crop_dataset(40)
        patches = build_patch_arrays(dataset.values_array(), dataset.labels_array(), bundle.patch_configs,
                                     bundle.network.halo)
        train(bundle.network, patches, patches, TrainSpec(epochs=2, batch_size=32, early_stopping_patience=0))
        bundle.patch_predictions(crop_dataset(3))
        for conv in bundle.network.convs:
            assert not conv.zeros.any() and not conv.zeros.flags.writeable

    def test_whole_frame_configs_carry_no_all_zero_crop(self, monkeypatch):
        """A whole-frame config reads nothing outside its frames, so its
        slices carry no all-zero crop, beside the configs that crop or alone."""
        bundle = crop_bundle(True, False, 3, whole=True, seed=3)
        dataset = crop_dataset(2)
        calls = self.first_conv_calls(monkeypatch, bundle, dataset)
        assert calls == self.slices(bundle, dataset) and calls[-1] == (2, LENGTH, False)
        bundle = replace(bundle, patch_configs=bundle.patch_configs[2:])  # the whole-frame window alone
        assert self.first_conv_calls(monkeypatch, bundle, dataset) == [(2, LENGTH, False)]

    def test_validation_is_the_bundles_evaluation(self, small_pipeline, anomaly_splits):
        """run_pipeline validates one group a config, each at its own crop
        width, as patch_predictions evaluates: the best validation accuracy
        is, bit for bit, the share of the val split's patches whose
        patch_predictions argmax is their sample's label."""
        val = anomaly_splits[1]
        probs = small_pipeline.bundle.patch_predictions(val)
        hits = np.argmax(probs, axis=2) == val.labels_array()[:, None]
        assert small_pipeline.train_log.best_val_accuracy == float(hits.mean())
