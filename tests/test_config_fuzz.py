"""Config fuzzing: generated scenario sections, well-typed or not, through
cli.main(["replay-trace", "--chain-hops", "2", ...]).

A section mixes well-typed values, values of the wrong type, null, nested
objects (the nested relay policy object of earlier versions among them), the
flat relay policy fields and the fields the chain testbed sets itself.  Every
run exits 0 with a trace on stdout, 2 with a config error and nothing on
stdout, or 1 with a runtime error (such as NoPathError when both interfaces
are off) and nothing on stdout; no exception escapes cli.main.

Every run is small: block_size <= 32, slot_budget <= 500 (always set) and
block_target <= 3, so no drawn size allocates without bound.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

from hypothesis import HealthCheck, event, given, settings, strategies as st

from hetnetcode import cli
from hetnetcode.config import LOADING_MODES, RELAY_POLICIES, ScenarioConfig

# any JSON value, nested objects and lists included; its ints stay small
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
# the nested relay policy object that the flat relay_policy and relay_p replaced
OLD_POLICY = st.fixed_dictionaries({
    "mode": st.sampled_from(["wifi-only", "cellular-only", "both"]),
    "both_mode": st.sampled_from(["round-robin", "duplicate", "probabilistic"]),
    "p": st.floats(0, 1)})
# ints past the int64 range or Python's float range, for fields that size nothing
BIG = st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**400])
NUMBER = st.floats() | st.integers(-3, 40) | st.sampled_from([1e-300, 1e300, 1e308])
BOOL = st.booleans()

# each field's JSON values of its declared type, in range or not
TYPED = {
    "cell_radius": NUMBER, "wifi_range": NUMBER, "delta": NUMBER, "r_cell": NUMBER,
    "rate_tiers": st.lists(st.lists(st.floats(-1, 2) | st.integers(0, 2), max_size=3),
                           max_size=4),
    "backbone_fraction": NUMBER, "backbone_rate": NUMBER,
    "node_count": st.integers(-1, 40), "block_size": st.integers(-1, 32),
    "buffer_capacity": st.integers(-1, 16) | BIG, "link_rate_override": NUMBER | st.none(),
    "users_per_cell": st.integers(-1, 8) | BIG,
    "loading_mode": st.sampled_from((*LOADING_MODES, "bogus")),
    "ack_delay": st.integers(-1, 5) | BIG, "processing_delay": st.integers(-1, 5) | BIG,
    "min_hops": st.integers(-1, 4) | BIG, "slot_budget": st.integers(-1, 500),
    "block_target": st.integers(-1, 3),
    "relay_policy": st.sampled_from((*RELAY_POLICIES, "both", "bogus")), "relay_p": NUMBER,
    "wifi_enabled": BOOL, "cellular_enabled": BOOL, "wired_relay_rate": NUMBER,
    "seed": st.integers(-2, 2**40) | BIG,
}
assert set(TYPED) == {f.name for f in fields(ScenarioConfig)}


@st.composite
def scenarios(draw) -> dict:
    """A scenario section: a few fields, most of their declared type, some
    of any JSON value (relay_policy also the old nested object), at times a
    key that names no field; slot_budget always set."""
    names = draw(st.lists(st.sampled_from(sorted(TYPED)), unique=True, max_size=6))
    section = {}
    for name in names:
        wrong = ANY | OLD_POLICY if name == "relay_policy" else ANY
        # hypothesis favours the bounds of a range, so the rare branches are inside it
        section[name] = draw(wrong if draw(st.integers(0, 5)) == 3 else TYPED[name])
    if draw(st.integers(0, 9)) == 7:
        section["definitely_not_a_field"] = draw(ANY)
    section.setdefault("slot_budget", draw(st.integers(1, 500)))
    return section


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_any_scenario_section_exits_0_1_or_2_with_its_message(tmp_path_factory, scenario):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps({"scenario": scenario}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["replay-trace", "--chain-hops", "2", "--config", str(path)])
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {status}")  # their shares: pytest --hypothesis-show-statistics
    if status == 0:
        assert out and not err
    else:
        assert (status, out) in ((1, ""), (2, ""))
        assert err.startswith("config error: " if status == 2 else "error: ")
