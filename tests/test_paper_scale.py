"""The paper's claims, read off the paper-scale figures: the five presets'
CSVs at their default specs (750 nodes, 50 trials) in tests/paper_scale/.
Nothing here runs a simulation.

- Poor channel: rate-sweep's combined/cellular-only ratio never rises with
  the rate ratio r (5.39 at r = 0.1, 1.14 at r = 2.0).
- Heavy load: load-sweep's ratio rises with the users per cell (1.86 at 1,
  30.2 at 32).  The ratio is the measure, since the absolute gain is not
  monotone and per-user cellular throughput halves with each doubling.
- Combined is never below cellular-only, in rate-sweep, load-sweep and
  topo1; topo1 reads 1.875 for both at r = 2.0, so the check is >=.
- infra-sweep is non-decreasing in k/n, and topo2 in the relay count at
  every link rate and in the link rate at every relay count.
"""

import csv
import itertools
from pathlib import Path

import pytest

from hetnetcode import presets

FIGURES = Path(__file__).resolve().parent / "paper_scale"


def figure(name: str) -> list[dict[str, float]]:
    with open(FIGURES / f"{name}.csv", newline="", encoding="utf-8") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


def column(rows, key: str) -> list[float]:
    return [row[key] for row in rows]


def non_decreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def test_the_paper_scale_figures_show_the_papers_claims():
    rate, load, topo1 = figure("rate-sweep"), figure("load-sweep"), figure("topo1")
    infra, topo2 = figure("infra-sweep"), figure("topo2")
    for rows, x in ((rate, "rate_ratio"), (load, "users_per_cell"), (topo1, "rate_ratio"),
                    (infra, "k_over_n")):
        assert increasing(column(rows, x))

    rate_gain = [row["rel_tput_combined"] / row["rel_tput_cellular"] for row in rate]
    assert non_decreasing(rate_gain[::-1])
    assert rate_gain[0] == pytest.approx(5.39, abs=0.01)
    assert rate_gain[-1] == pytest.approx(1.14, abs=0.01)
    load_gain = [row["rel_tput_combined"] / row["rel_tput_cellular"] for row in load]
    assert increasing(load_gain)
    assert load_gain[0] == pytest.approx(1.86, abs=0.01)
    assert load_gain[-1] == pytest.approx(30.2, abs=0.1)

    for rows, cellular in ((rate, "rel_tput_cellular"), (load, "rel_tput_cellular"),
                           (topo1, "rel_tput_wimax")):
        assert all(row["rel_tput_combined"] >= row[cellular] for row in rows)

    assert non_decreasing(column(infra, "rel_tput"))
    throughput = {(row["link_rate"], row["n_relays"]): row["throughput"] for row in topo2}
    rates = sorted({r for r, _ in throughput})
    relays = sorted({n for _, n in throughput})
    assert len(throughput) == len(topo2) == len(rates) * len(relays)
    for r in rates:
        assert non_decreasing([throughput[r, n] for n in relays])
    for n in relays:
        assert non_decreasing([throughput[r, n] for r in rates])


# each preset's point columns, and the axes its default points combine
DEFAULT_POINTS = {
    "rate-sweep": (("rate_ratio",), (presets.DEFAULT_RATE_RATIOS,)),
    "load-sweep": (("users_per_cell",), (presets.DEFAULT_LOAD_USERS,)),
    "infra-sweep": (("k_over_n",), (presets.DEFAULT_INFRA_FRACS,)),
    "topo1": (("rate_ratio",), (presets.DEFAULT_TOPO1_RATIOS,)),
    "topo2": (("link_rate", "n_relays"), (presets.TOPO2_RATES, presets.DEFAULT_TOPO2_RELAYS)),
}


@pytest.mark.parametrize("name", DEFAULT_POINTS)
def test_each_presets_default_points_are_its_figures_points(name):
    """A preset run with no --values sweeps the points its paper-scale CSV
    was recorded at, in order: each combination of its axes, the first
    slowest."""
    keys, axes = DEFAULT_POINTS[name]
    rows = [tuple(row[key] for key in keys) for row in figure(name)]
    assert rows == [tuple(map(float, point)) for point in itertools.product(*axes)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the credit clip releases one packet "
                   "per ceil(1/r) slots below r = 1 and floor(r) per slot above it")
def test_distinct_rates_give_distinct_cellular_only_rows():
    for name, cellular in (("rate-sweep", "rel_tput_cellular"), ("topo1", "rel_tput_wimax")):
        values = column(figure(name), cellular)
        assert len(set(values)) == len(values), name
