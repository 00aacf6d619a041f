"""Property test: every spec's ``from_dict`` fails only as a named field.

Each :mod:`repro.api` spec validates eagerly and promises that a bad
payload raises :class:`~repro.api.specs.SpecValidationError` whose
``field`` names the offender.  Hypothesis perturbs a valid payload of each
spec with random keys and values (registry names and near misses, wrong
types, nested lists and dicts, axis and cell payloads); every draw must
either validate or raise that error with a non-empty ``field``.  Any other
exception (``AttributeError``, ``UnknownKeyError``, ``TypeError``) fails.

``derandomize=True`` and a bounded ``max_examples`` keep the run fast and
the same on every machine.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (BundleSpec, CampaignSpec, CorpusSpec, EvaluateSpec,
                       MatrixCampaignSpec, PredictSpec, ServeSpec,
                       SpecValidationError, TuneSpec)
from repro.campaigns.spec import AxisSpec

#: Registry keys, field and opcode names, and near misses of them.
NAMES = ["haswell", "haswel", "zen2", "skylake", "mca", "mcaa", "llvm_sim",
         "fast", "test", "paper", "fastt", "analytical", "pooled", "ithemal",
         "grid", "random", "adaptive", "gird", "inline", "pool", "remote",
         "train", "test", "validation", "DispatchWidth", "WriteLatency",
         "PortMap", "ReorderBufferSize", "ADD32rr", "ADD32r", "collect_dataset",
         "haswell__mca", "", " ", "x"]

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(NAMES))

AXES = st.fixed_dictionaries(
    {"field": st.one_of(st.sampled_from(NAMES), ATOMS)},
    optional={"opcode": st.one_of(st.sampled_from(NAMES), ATOMS),
              "port": ATOMS,
              "values": st.one_of(st.lists(ATOMS, max_size=3),
                                  st.lists(st.integers(0, 6), min_size=1,
                                           max_size=3), ATOMS),
              "low": ATOMS, "high": ATOMS, "step": ATOMS})

CELLS = st.fixed_dictionaries(
    {}, optional={"target": st.one_of(st.sampled_from(NAMES), ATOMS),
                  "simulator": st.one_of(st.sampled_from(NAMES), ATOMS)})

VALUES = st.recursive(
    st.one_of(ATOMS, AXES, CELLS),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(NAMES), st.integers(0, 3)),
                        children, max_size=3)),
    max_leaves=6)

_AXIS = {"field": "DispatchWidth", "values": [1, 2]}

#: A valid payload of each spec, which the draws perturb.
BASES = {
    TuneSpec: {},
    EvaluateSpec: {},
    CorpusSpec: {"directory": "corpus"},
    PredictSpec: {},
    BundleSpec: {},
    ServeSpec: {},
    CampaignSpec: {"axes": [dict(_AXIS)]},
    AxisSpec: dict(_AXIS),
    MatrixCampaignSpec: {"campaign": {"axes": [dict(_AXIS)]},
                         "targets": ["haswell"], "simulators": ["mca"]},
}


def _payloads(spec_class):
    """The spec's valid payload with one or two keys set to drawn values."""
    names = [spec_field.name for spec_field in dataclasses.fields(spec_class)]
    changes = st.lists(st.tuples(st.sampled_from(names + ["bogus"]), VALUES),
                       min_size=1, max_size=2)
    return changes.map(lambda pairs: {**BASES[spec_class], **dict(pairs)})


@pytest.mark.parametrize("spec_class", list(BASES), ids=lambda cls: cls.__name__)
def test_base_payloads_validate(spec_class):
    spec_class.from_dict(dict(BASES[spec_class]))


@pytest.mark.parametrize("spec_class", list(BASES), ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_from_dict_validates_or_names_the_field(spec_class, data):
    payload = data.draw(_payloads(spec_class))
    try:
        spec_class.from_dict(payload)
    except SpecValidationError as error:
        assert error.field, f"{spec_class.__name__}: empty field for {payload!r}"
