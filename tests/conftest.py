import os

# One BLAS thread unless the caller exports another count. Set before numpy
# loads: with a thread per core the suite slows several-fold once another
# process holds a core.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pytest

from patchx.data import AnomalyGenSpec, generate_anomaly
from patchx.neuralnet import NetworkSpec, PatchNet, TrainSpec, parameter_shapes
from patchx.patching import PatchConfig
from patchx.pipeline import run_pipeline
from patchx.shallow import ShallowSpec, SvmSpec

SMALL_NET = ((8, 3, "relu"), (16, 3, "relu"))


@pytest.fixture(scope="session", autouse=True)
def layouts_are_parameter_shapes():
    """Every network the suite builds lays its parameters out as
    neuralnet.parameter_shapes states for its spec."""
    init = PatchNet.__init__

    def checked(net, spec):
        init(net, spec)
        assert parameter_shapes(spec) == [(name, p.shape) for name, p in net.parameters()], spec

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PatchNet, "__init__", checked)
        yield


@pytest.fixture(scope="session")
def anomaly_splits():
    spec = AnomalyGenSpec(train_count=250, val_count=100, test_count=150, seed=123)
    return generate_anomaly(spec)


@pytest.fixture(scope="session")
def small_pipeline(anomaly_splits):
    """A quickly trained but functional pipeline over the anomaly task."""
    train, val, test = anomaly_splits
    configs = [PatchConfig(5, 10), PatchConfig(10, 20)]
    net_spec = NetworkSpec(
        input_channels=4, input_length=50, class_count=2, conv_blocks=SMALL_NET, seed=7
    )
    train_spec = TrainSpec(
        epochs=5, batch_size=64, learning_rate=2e-3, early_stopping_patience=4, seed=7
    )
    return run_pipeline(
        train, val, test, configs,
        net_spec=net_spec, train_spec=train_spec,
        shallow_spec=ShallowSpec(kind="svm", svm=SvmSpec(standardize=True)),
    )


@pytest.fixture(scope="session")
def small_bundle(small_pipeline):
    return small_pipeline.bundle
