"""Property test: config resolution ends in a RunConfig or a ConfigError.

Arbitrary JSON values are placed as a whole scenario block, or under one
key of a valid block (a listed key, a nested one, or an unknown one).
Only resolution is exercised: running an arbitrary ``count`` or
``points`` would allocate without bound.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from momflow.cli import SCENARIOS, ConfigError, RunConfig, config_from_dict

VALID_BLOCKS = {
    "field-scan": [{}],
    "evolve": [{"t_end": 1.0}],
    "ensemble": [{"region": [0.8, 1.2]}],
    "reconstruct": [{}],
    "twobody": [{}, {"kind": "rotation"}],
    "oracle": [{}],
}

# Keys the tables list, including optional and per-kind ones that a
# resolved default block leaves out.
KEYS = sorted({
    "field", "potential", "region", "samples", "tol", "x0", "t_end", "scheme", "dt",
    "max_displacement_tol", "count", "distribution", "seed", "dump_trajectories", "bins",
    "histogram_times", "born_reference", "path", "amplitude", "kind", "radius", "gamma",
    "mass", "p1_0", "p2_0", "closed_form_derivatives", "rate", "amplitudes", "x_min",
    "x_max", "points", "states", "field_check", "check_lo", "check_hi", "check_tol",
})
NESTED_KEYS = sorted({"kind", "level", "coefficients", "value", "mean", "sigma",
                      "start", "stop", "nodes"})

names = st.text(max_size=6)
edges = st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400, -(10 ** 400), -1, 0, 1.5])
json_values = st.recursive(
    edges | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(names, inner, max_size=4)),
    max_leaves=12)
values = edges | json_values


@st.composite
def documents(draw, scenario):
    value = draw(values)
    block = dict(draw(st.sampled_from(VALID_BLOCKS[scenario])))
    own_keys = sorted(config_from_dict({"scenario": scenario,
                                        scenario.replace("-", "_"): block}).params)
    place = draw(st.sampled_from(["block", "own", "known", "unknown", "nested"]))
    if place == "block":
        block = value
    elif place != "nested":
        keys = {"own": st.sampled_from(own_keys), "known": st.sampled_from(KEYS),
                "unknown": names}[place]
        block[draw(keys)] = value
    else:
        outer = draw(st.sampled_from(["field", "potential", "distribution", "path",
                                      "born_reference"]))
        inner = draw(st.sampled_from(NESTED_KEYS) | names)
        block[outer] = {**draw(st.sampled_from([{}, {"kind": "polynomial"},
                                                {"kind": "constant"}])), inner: value}
    return {"scenario": scenario, scenario.replace("-", "_"): block}


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_resolution_gives_a_run_config_or_a_config_error(scenario, data):
    document = data.draw(documents(scenario))
    try:
        cfg = config_from_dict(document)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert config_from_dict(cfg.to_dict()) == cfg
    # The resolved config is strict JSON, so its hash is defined.
    json.dumps(cfg.to_dict(), allow_nan=False)
    assert len(cfg.config_hash) == 16
