"""Config validation: defaults, echo round trip, every rejection path, and
a caller outside the tests for every config key and command-line option."""

import argparse
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from golden import runs  # noqa: E402

from memheat import ConfigError  # noqa: E402
from memheat.cli import build_parser  # noqa: E402
from memheat.config import (  # noqa: E402
    _BIORTH_KEYS,
    _CONTROL_KEYS,
    _TOP_LEVEL_KEYS,
    MAX_BIORTH_FAMILY,
    MAX_CONTROL_FAMILY,
    MAX_MODES,
    MAX_SCOPE,
    MAX_STEPS,
    MIN_STEPS,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from memheat.kernels import ConstantKernel, ExpSumKernel  # noqa: E402


def test_defaults():
    cfg = config_from_dict({})
    assert isinstance(cfg.kernel, ConstantKernel)
    assert cfg.kernel.value == 1.0
    assert cfg.horizon == 1.0
    assert cfg.steps == 1000
    assert cfg.modes == 12
    assert cfg.precision == 256
    assert cfg.seed == 0
    assert cfg.initial.rule == "inverse_index"
    assert cfg.scope == "auto"
    assert (cfg.control_family, cfg.control_active) == (40, 12)
    assert cfg.biorth_family == 1000
    assert cfg.fit_window == (10, 30)
    assert cfg.verify_modes == 20


def test_full_parse():
    cfg = config_from_dict(
        {
            "kernel": {"type": "exp_sum", "terms": [{"c": 2.0, "b": 0.5}]},
            "horizon": 0.75,
            "steps": 400,
            "modes": 6,
            "precision": 128,
            "seed": 3,
            "initial": {"rule": "explicit", "values": [1.0, -0.5]},
            "scope": 2,
            "control": {"family": 10, "active": 4},
            "biorth": {"family": 64, "fit_window": [5, 20], "verify_modes": 10},
        }
    )
    assert isinstance(cfg.kernel, ExpSumKernel)
    assert cfg.horizon == 0.75
    assert cfg.steps == 400
    assert cfg.scope == 2
    assert cfg.initial.value(2) == -0.5
    assert cfg.control_family == 10
    assert cfg.fit_window == (5, 20)


def test_echo_round_trip():
    cfg = config_from_dict(
        {
            "kernel": {"type": "zero"},
            "steps": 200,
            "initial": {"rule": "explicit", "values": [0.5]},
            "biorth": {"family": 40, "fit_window": [3, 12], "verify_modes": 8},
        }
    )
    echo = cfg.echo()
    # the echo is valid JSON and a fixed-point of validation
    rebuilt = config_from_dict(json.loads(json.dumps(echo)))
    assert rebuilt == cfg
    assert rebuilt.echo() == echo


HUGE = 10**400  # a JSON integer; float() overflows on it


def rejected(data) -> str:
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    return str(info.value)


def test_root_and_unknown_keys():
    assert "<root>" in rejected([1, 2])
    assert "stepz" in rejected({"stepz": 100})
    assert "control.extra" in rejected({"control": {"extra": 1}})
    assert "biorth.extra" in rejected({"biorth": {"extra": 1}})
    assert "initial.extra" in rejected({"initial": {"rule": "zero", "extra": 1}})


@pytest.mark.parametrize(
    "data, key",
    [
        ({"horizon": 0.0}, "horizon"),
        ({"horizon": True}, "horizon"),
        ({"horizon": float("nan")}, "horizon"),
        ({"horizon": "1.0"}, "horizon"),
        ({"steps": 50}, "steps"),
        ({"steps": 3.5}, "steps"),
        ({"steps": True}, "steps"),
        ({"modes": 0}, "modes"),
        ({"precision": 8}, "precision"),
        ({"precision": 2048}, "precision"),
        ({"seed": -1}, "seed"),
        ({"series_tol": 0.0}, "series_tol"),
        ({"scope": "first"}, "scope"),
        ({"scope": 0}, "scope"),
        ({"scope": True}, "scope"),
        ({"initial": {"rule": "ones"}}, "initial.rule"),
        ({"initial": {"rule": "explicit", "values": []}}, "initial.values"),
        ({"initial": {"rule": "explicit", "values": [1.0, "x"]}}, "initial.values[1]"),
        ({"initial": "zero"}, "initial"),
        ({"control": [1, 2]}, "control"),
        ({"control": {"family": 0}}, "control.family"),
        ({"control": {"active": 0}}, "control.active"),
        ({"control": {"family": 4, "active": 6}}, "control.active"),
        ({"biorth": "defaults"}, "biorth"),
        ({"biorth": {"family": 7}}, "biorth.family"),
        ({"biorth": {"verify_modes": 1}}, "biorth.verify_modes"),
        ({"biorth": {"verify_modes": 65}}, "biorth.verify_modes"),
        ({"biorth": {"fit_window": "10-30"}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [10]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [10, 20, 30]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [10.5, 30]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [True, 30]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [0, 10]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [10, 10]}}, "biorth.fit_window"),
        ({"biorth": {"fit_window": [10, 16]}}, "biorth.fit_window"),
        ({"biorth": {"family": 20, "fit_window": [10, 25]}}, "biorth.fit_window"),
        ({"biorth": {"family": 20}}, "biorth.fit_window"),
        ({"kernel": {"type": "polynomial", "coeffs": [0.5, float("nan")]}}, "kernel.coeffs[1]"),
        ({"kernel": {"type": ["constant"]}}, "kernel.type"),
        # integers too large for a double
        ({"horizon": HUGE}, "horizon: must be finite"),
        # the series route's tolerance is a module constant, not a key
        ({"series_tol": 1e-12}, "series_tol: unknown key"),
        ({"kernel": {"type": "constant", "value": HUGE}}, "kernel.value: must be finite"),
        (
            {"kernel": {"type": "exp_sum", "terms": [{"c": 1.0, "b": HUGE}]}},
            "kernel.terms[0].b: must be finite",
        ),
        ({"kernel": {"type": "polynomial", "coeffs": [1.0, HUGE]}}, "kernel.coeffs[1]: must be finite"),
        ({"initial": {"rule": "explicit", "values": [HUGE]}}, "initial.values[0]: must be finite"),
        ({"steps": 100_001}, "steps: must be at most 100000"),
        ({"modes": MAX_MODES + 1}, f"modes: must be at most {MAX_MODES}"),
        (
            {"control": {"family": MAX_CONTROL_FAMILY + 1}},
            f"control.family: must be at most {MAX_CONTROL_FAMILY}",
        ),
        (
            {"biorth": {"family": MAX_BIORTH_FAMILY + 1}},
            f"biorth.family: must be at most {MAX_BIORTH_FAMILY}",
        ),
        ({"scope": MAX_SCOPE + 1}, f"scope: must be at most {MAX_SCOPE}"),
    ],
)
def test_rejections(data, key):
    assert key in rejected(data)


def test_window_edge_cases():
    # exactly eight indices is the smallest legal window
    cfg = config_from_dict({"biorth": {"family": 64, "fit_window": [10, 17]}})
    assert cfg.fit_window == (10, 17)
    # shrinking the family without moving the default window is caught, and
    # the fix is to move the window along
    cfg = config_from_dict({"biorth": {"family": 20, "fit_window": [5, 20]}})
    assert cfg.biorth_family == 20


def test_control_family_shrink_needs_active_shrink():
    with pytest.raises(ConfigError, match="control.active"):
        config_from_dict({"control": {"family": 8}})
    cfg = config_from_dict({"control": {"family": 8, "active": 8}})
    assert (cfg.control_family, cfg.control_active) == (8, 8)


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kernel": {"type": "zero"}, "modes": 2}))
    cfg = load_config(path)
    assert cfg.modes == 2
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    # past Python's 4300-digit limit json.loads raises a plain ValueError
    bad.write_text('{"steps": 1%s}' % ("0" * 5000))
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    bad.write_bytes(b'{"steps": \xff}')
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(bad)


def test_config_is_frozen():
    cfg = config_from_dict({})
    with pytest.raises(AttributeError):
        cfg.steps = 7
    assert isinstance(cfg, ExperimentConfig)


# ---------------------------------------------------------------------------
# Every option has a caller outside the tests: a value that only tests set
# is not shipped
# ---------------------------------------------------------------------------


def _workload_commands(tmp_path):
    """The benchmark's commands, with the configs they write."""
    return [c for name in ("march", "gram") for c in workloads.build(name, 1, tmp_path / name)]


def test_every_config_key_is_set_by_a_shipped_or_benchmark_config(tmp_path):
    configs = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]
    configs += [json.loads(c.config.read_text()) for c in _workload_commands(tmp_path)]
    set_keys = set()
    for data in configs:
        set_keys |= set(data)
        for record in ("control", "biorth"):
            set_keys |= {f"{record}.{key}" for key in data.get(record, {})}
    schema = set(_TOP_LEVEL_KEYS)
    schema |= {f"control.{key}" for key in _CONTROL_KEYS}
    schema |= {f"biorth.{key}" for key in _BIORTH_KEYS}
    assert sorted(schema - set_keys) == []


def test_every_cli_option_is_passed_by_a_golden_or_benchmark_run(tmp_path):
    argvs = [argv + ["--out"] for _, argv in runs()]
    argvs += [list(c.argv) for c in _workload_commands(tmp_path)]
    passed = {(argv[0], arg) for argv in argvs for arg in argv[1:] if arg.startswith("--")}
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        (command, option)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if not isinstance(action, argparse._HelpAction)
    }
    assert sorted(options - passed) == []


# ---------------------------------------------------------------------------
# Properties over generated configs
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**300), 10**300),
)
kernels = st.one_of(
    st.just({"type": "zero"}),
    st.builds(lambda v: {"type": "constant", "value": v}, finite),
    st.lists(
        st.fixed_dictionaries(
            {"c": finite, "b": st.floats(min_value=0.0, allow_infinity=False)}
        ),
        min_size=1,
        max_size=3,
    ).map(lambda terms: {"type": "exp_sum", "terms": terms}),
    st.lists(finite, min_size=1, max_size=4).map(
        lambda coeffs: {"type": "polynomial", "coeffs": coeffs}
    ),
)
initials = st.one_of(
    st.sampled_from([{"rule": "zero"}, {"rule": "inverse_index"}]),
    st.lists(finite, min_size=1, max_size=4).map(
        lambda values: {"rule": "explicit", "values": values}
    ),
)
positive = st.floats(min_value=5e-324, allow_infinity=False)


@st.composite
def controls(draw):
    family = draw(st.integers(1, MAX_CONTROL_FAMILY))
    return {"family": family, "active": draw(st.integers(1, family))}


@st.composite
def biorths(draw):
    family = draw(st.integers(8, MAX_BIORTH_FAMILY))
    hi = draw(st.integers(8, family))
    lo = draw(st.integers(1, hi - 7))
    return {
        "family": family,
        "fit_window": [lo, hi],
        "verify_modes": draw(st.integers(2, 64)),
    }


valid_configs = st.fixed_dictionaries(
    {},
    optional={
        "kernel": kernels,
        "horizon": positive,
        "steps": st.integers(MIN_STEPS, MAX_STEPS),
        "modes": st.integers(1, MAX_MODES),
        "precision": st.integers(16, 1024),
        "seed": st.integers(0, 10**30),
        "initial": initials,
        "scope": st.one_of(st.just("auto"), st.integers(1, 10**30)),
        "control": controls(),
        "biorth": biorths(),
    },
)


@PROPERTY
@given(valid_configs)
def test_echo_reaches_a_fixed_point(data):
    echo = config_from_dict(data).echo()
    cfg = config_from_dict(json.loads(json.dumps(echo)))
    assert cfg.echo() == echo
    assert config_from_dict(cfg.echo()) == cfg


SCHEMA_KEYS = sorted(
    {
        "kernel", "horizon", "steps", "modes", "precision", "seed", "series_tol",
        "initial", "scope", "control", "biorth", "type", "value", "terms", "c", "b",
        "coeffs", "rule", "values", "family", "active", "fit_window", "verify_modes",
        "stepz",
    }
)
json_trees = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.integers(),
        st.sampled_from([10**400, -(10**400), 2**1024]),
        st.sampled_from(["auto", "zero", "constant", "exp_sum", "polynomial", "explicit"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(SCHEMA_KEYS), children, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def mutated_configs(draw):
    """A valid config with one entry, at any depth, replaced by an arbitrary tree."""
    data = json.loads(json.dumps(config_from_dict(draw(valid_configs)).echo()))
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            node[key] = draw(json_trees)
            return data
        node = child


@PROPERTY
@given(st.one_of(json_trees, mutated_configs()))
def test_any_json_tree_is_a_config_or_a_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert "series_tol" not in data  # no longer a key: a tree that sets it is refused
