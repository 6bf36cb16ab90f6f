"""One rule table for every field of the eight specs.

Every count, rate, choice and flag of a spec is checked by one of patching's
four require_ checks, and the few rules that are none of these (the peak
range, here) by the spec itself. Each case below is a bad value of one field;
building the spec with it raises a ConfigError whose message names the field
and the value. The guard at the end walks the specs' fields, so a field added
without a case here fails.
"""

import dataclasses
from typing import Any, NamedTuple

import numpy as np
import pytest

from patchx.data import AnomalyGenSpec
from patchx.neuralnet import NetworkSpec, TrainSpec
from patchx.patching import ConfigError, PatchConfig
from patchx.shallow import ForestSpec, ShallowSpec, SvmSpec, TrivialSpec

SPECS = (PatchConfig, NetworkSpec, TrainSpec, AnomalyGenSpec, SvmSpec, ForestSpec, ShallowSpec, TrivialSpec)
REQUIRED = {  # valid values of the fields without a default
    PatchConfig: {"stride": 5, "length": 10},
    NetworkSpec: {"input_channels": 1, "input_length": 8, "class_count": 2},
}
NAN, INF = float("nan"), float("inf")


class Case(NamedTuple):
    spec: type
    field: str
    value: Any
    label: str | None = None  # the field's name in the message, if not field
    shown: str | None = None  # the value as the message shows it, if not its repr

    def __str__(self) -> str:
        return f"{self.spec.__name__}.{self.field}={self.value!r}"


CASES = [
    Case(PatchConfig, "stride", True), Case(PatchConfig, "stride", 2.5), Case(PatchConfig, "stride", 0),
    Case(PatchConfig, "length", False, "patch length"), Case(PatchConfig, "length", 4.0, "patch length"),
    Case(PatchConfig, "zero", 1), Case(PatchConfig, "attach", "yes"), Case(PatchConfig, "notemp", 1.0),
    Case(NetworkSpec, "input_channels", True), Case(NetworkSpec, "input_channels", 2.0),
    Case(NetworkSpec, "input_length", 8.5), Case(NetworkSpec, "input_length", 0),
    Case(NetworkSpec, "class_count", 1), Case(NetworkSpec, "class_count", 2.0),
    Case(NetworkSpec, "seed", -1), Case(NetworkSpec, "seed", True),
    Case(NetworkSpec, "conv_blocks", ((4.0, 3, "relu"),), "conv_blocks[0] filters", "4.0"),
    Case(NetworkSpec, "conv_blocks", ((4, 3, "relu"), (8, True, "relu")), "conv_blocks[1] kernel", "True"),
    Case(TrainSpec, "epochs", True), Case(TrainSpec, "epochs", 2.5), Case(TrainSpec, "epochs", 0),
    Case(TrainSpec, "batch_size", 1.5), Case(TrainSpec, "batch_size", False),
    Case(TrainSpec, "learning_rate", NAN), Case(TrainSpec, "learning_rate", INF),
    Case(TrainSpec, "learning_rate", True), Case(TrainSpec, "learning_rate", -1e-3),
    Case(TrainSpec, "optimizer", "lbfgs"),
    Case(TrainSpec, "early_stopping_patience", -1), Case(TrainSpec, "early_stopping_patience", 1.0),
    Case(TrainSpec, "seed", -1), Case(TrainSpec, "seed", True),
    Case(AnomalyGenSpec, "train_count", 2.5), Case(AnomalyGenSpec, "train_count", True),
    Case(AnomalyGenSpec, "val_count", 0), Case(AnomalyGenSpec, "test_count", 1.5),
    Case(AnomalyGenSpec, "length", 5.5), Case(AnomalyGenSpec, "length", 4),
    Case(AnomalyGenSpec, "channels", 0), Case(AnomalyGenSpec, "channels", True),
    Case(AnomalyGenSpec, "noise_sigma", NAN), Case(AnomalyGenSpec, "noise_sigma", INF),
    Case(AnomalyGenSpec, "peak_amplitude_range", (NAN, 10.0)),
    Case(AnomalyGenSpec, "sigma_multiplier", NAN), Case(AnomalyGenSpec, "sigma_multiplier", INF),
    Case(AnomalyGenSpec, "sigma_multiplier", True),
    Case(AnomalyGenSpec, "seed", -1), Case(AnomalyGenSpec, "seed", 0.0),
    Case(SvmSpec, "c_reg", True), Case(SvmSpec, "c_reg", NAN), Case(SvmSpec, "epochs", 2.5),
    Case(SvmSpec, "learning_rate", INF), Case(SvmSpec, "seed", -1), Case(SvmSpec, "standardize", 1),
    Case(ForestSpec, "trees", 2.5), Case(ForestSpec, "trees", True),
    Case(ForestSpec, "max_depth", 2.0), Case(ForestSpec, "max_depth", 0),
    Case(ForestSpec, "min_leaf", 1.5), Case(ForestSpec, "feature_subsample", "log2"), Case(ForestSpec, "seed", -1),
    Case(TrivialSpec, "mode", "median", "trivial mode"),
    Case(ShallowSpec, "kind", "boosting", "shallow kind"),
    Case(ShallowSpec, "collapse", "no"), Case(ShallowSpec, "normalize", 1),
]


@pytest.mark.parametrize("case", CASES, ids=str)
def test_bad_field_raises_config_error_naming_field_and_value(case):
    with pytest.raises(ConfigError) as err:
        case.spec(**REQUIRED.get(case.spec, {}) | {case.field: case.value})
    message = str(err.value)
    assert (case.label or case.field) in message
    assert (case.shown or repr(case.value)) in message


@pytest.mark.parametrize("build", [
    lambda: SvmSpec(c_reg=np.float64(1.0), learning_rate=np.float64(0.1)),
    lambda: TrainSpec(learning_rate=np.float64(1e-3)),
    lambda: AnomalyGenSpec(noise_sigma=np.float64(1.0), sigma_multiplier=2),
], ids=["svm-numpy-rates", "train-numpy-rate", "generator-numpy-and-int-rates"])
def test_numpy_and_int_rates_accepted(build):
    build()


def test_generator_multiplier_past_the_z_score_bound_rejected():
    """No z-score among L values exceeds sqrt(L - 1); a multiplier at or
    above it would label every sample 0."""
    AnomalyGenSpec(length=17, sigma_multiplier=3.99)
    with pytest.raises(ConfigError, match=r"sigma_multiplier 4.0 >= sqrt\(length - 1\) = 4 for length 17"):
        AnomalyGenSpec(length=17, sigma_multiplier=4.0)


def _nested(field: dataclasses.Field) -> bool:
    """A field that holds another spec, whose own fields have their cases."""
    default = field.default_factory() if field.default_factory is not dataclasses.MISSING else field.default
    return isinstance(default, SPECS)


def test_every_spec_field_has_a_case():
    covered = {(case.spec, case.field) for case in CASES}
    missing = [f"{spec.__name__}.{f.name}" for spec in SPECS for f in dataclasses.fields(spec)
               if (spec, f.name) not in covered and not _nested(f)]
    assert not missing, f"spec fields without a case in the rule table: {missing}"
