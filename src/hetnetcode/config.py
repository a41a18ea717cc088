"""Every config class, the one JSON reader of them and the declared-type check.

Every field is flat: a number, bool, string, list or null, never another
config object.  Each config class is frozen and checked when made, by
__init__, replace or config_from_dict(cls, section), the one reader, which
reads a JSON section by the fields' declared types: __post_init__ checks
each value against its type (check_types), then the value itself.  So a
config that exists is valid, and nothing checks it again.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Invalid scenario, sweep, or topology parameters."""


def finite_number(x) -> bool:
    """x is a real number other than a bool with a finite float value."""
    try:
        # float and int first: they answer without numbers.Real's ABC check
        return (isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:  # an int too large for a float
        return False


# the values a declared field type accepts, and their name in errors; a JSON
# list is read as a tuple
_ACCEPTS = {bool: (bool, "true or false"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "a string"),
            type(None): (type(None), "null"), tuple: ((list, tuple), "a list"),
            dict: (dict, "an object")}


@functools.cache
def declared_types(cls) -> dict:
    """Per field of the config dataclass cls: the members of its declared
    type, the types a value other than a bool may have, and the declared
    type's name in errors, read once per class."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        accepts = [_ACCEPTS[kind] for kind in kinds]
        table[f.name] = (kinds, tuple(t for t, _ in accepts if t is not bool),
                         " or ".join(label for _, label in accepts))
    return table


def check_types(config):
    """ConfigError unless every field of config holds a value of its declared
    type, a bool being no number, every float, or int in a float field, has a
    finite float value, and every int in an int field other than a seed fits
    in an int64: those are counts, sizes and delays that numpy may take as an
    index, while a seed goes to numpy's SeedSequence, which takes any int
    >= 0."""
    for name, (kinds, accepted, expected) in declared_types(type(config)).items():
        value = getattr(config, name)
        if not (bool in kinds if isinstance(value, bool) else isinstance(value, accepted)):
            raise ConfigError(f"{name} must be {expected}, not {value!r}")
        number = isinstance(value, float) or float in kinds and type(value) is int
        if number and not finite_number(value):
            raise ConfigError(f"{name} must be a finite number")
        if int in kinds and type(value) is int:
            if name == "seed" and value < 0:
                raise ConfigError("seed must be >= 0")
            if name != "seed" and not -2**63 <= value < 2**63:
                raise ConfigError(f"{name} must be a 64-bit integer")


# cellular rate tiers: (upper bound on d/R, fraction of the cell max rate);
# the last tier catches everything up to the cell edge
DEFAULT_RATE_TIERS = ((0.25, 1.0), (0.5, 0.5), (0.75, 0.25), (1.0, 0.125))


@dataclass(frozen=True)
class TopologyParams:
    cell_radius: float = 1000.0
    wifi_range: float = 100.0
    delta: float = 0.2
    r_cell: float = 1.0  # cell maximum, packets per slot (one WiFi link moves one per slot)
    rate_tiers: tuple = DEFAULT_RATE_TIERS
    backbone_fraction: float = 0.0  # k/n, applied per cell
    backbone_rate: float = 100.0  # wired bus capacity, packets per slot

    def __post_init__(self):
        """Every field's type (a subclass's too), then the topology's own
        ranges."""
        check_types(self)
        if self.cell_radius <= 0 or self.wifi_range <= 0:
            raise ConfigError("cell_radius and wifi_range must be positive")
        # topology.place draws from the cells' bounding box, 5 r by span =
        # 2 (1 + sqrt 3) r, and squares distances in it, so span^2 must be
        # finite.  _bucket_neighbors cuts it into buckets wider than
        # wifi_range w: its offsets kx and ky - 1 lie in [0, b], b = span / w
        # + 1, height <= b + 3, and the largest code it searches, kx * height
        # + ky + height + 1 <= b^2 + 5 b + 5, is below (b + 3)^2.  That fits
        # an int64 when b + 3 < 2^31.5, which span / w < 2^31 ensures.
        span = 2 * (1 + math.sqrt(3)) * self.cell_radius
        if not (math.isfinite(span * span) and span / self.wifi_range < 2**31):
            raise ConfigError("cell_radius / wifi_range is too large: the cells must span "
                              "fewer than 2**31 WiFi ranges, and their squared span be finite")
        # place assigns a node to its nearest base station by squared
        # distance.  A node on the border of two cells lies sqrt(3) r / 2 >
        # r / 2 from both stations, so the squares it compares stay normal
        # floats (>= 2**-1022), held at full precision, when r >= 2**-510.
        # Far below that they underflow to 0 and every node lands in cell 0.
        if self.cell_radius < 2.0**-510:
            raise ConfigError("cell_radius is too small: it must be at least 2**-510, "
                              "so that squared distances in the cells are normal floats")
        if self.delta < 0:
            raise ConfigError("delta must be non-negative")
        if self.r_cell <= 0 or self.backbone_rate <= 0:
            raise ConfigError("rates must be positive")
        if not 0.0 <= self.backbone_fraction <= 1.0:
            raise ConfigError("backbone_fraction must be in [0, 1]")
        tiers = self.rate_tiers
        if not (tiers and all(
                isinstance(t, (list, tuple)) and len(t) == 2 and all(map(finite_number, t))
                and t[1] > 0 for t in tiers)):
            raise ConfigError("rate_tiers must be a non-empty list of [bound, fraction] "
                              "pairs of finite numbers, with positive fractions")


LOADING_MODES = ("equal-rate", "equal-time")
# a relay's interfaces for each packet it sends, applied by _Session._interfaces
RELAY_POLICIES = ("wifi-only", "cellular-only", "round-robin", "duplicate", "probabilistic")


def _tupled(value):
    """value with every list or tuple in it, itself included, a tuple."""
    return tuple(map(_tupled, value)) if isinstance(value, (list, tuple)) else value


def config_from_dict(cls, values):
    """Dataclass cls from JSON-style values, the one reader of every config
    section: each key must be a field of cls.  A list for a tuple field
    becomes a tuple; cls's __post_init__ checks each value against the
    field's declared type, then the value itself."""
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} settings must be an object")
    declared = declared_types(cls)
    kwargs = {}
    for key, value in values.items():
        if key not in declared:
            raise ConfigError(f"unknown {cls.__name__} field {key!r}")
        kwargs[key] = _tupled(value) if tuple in declared[key][0] else value
    return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioConfig(TopologyParams):
    """A session: the topology fields it inherits, whose r_cell is also the
    cell maximum of the loading model, and the session's own."""

    node_count: int = 750
    # coding
    block_size: int = 20  # M packets per block
    buffer_capacity: int = 8  # N_buf at relays
    # rates in packets per slot (one WiFi link moves one per slot)
    link_rate_override: float | None = None  # pin the S-D cellular link rate
    users_per_cell: int = 1
    loading_mode: str = "equal-rate"
    # transport timing (slots)
    ack_delay: int = 1
    processing_delay: int = 0
    min_hops: int = 2
    slot_budget: int = 5000
    block_target: int = 3
    # forwarding: a relay's interfaces per packet, one of RELAY_POLICIES
    relay_policy: str = "wifi-only"
    relay_p: float = 0.5  # chance of cellular per packet, read by probabilistic only
    # False switches off every non-cellular interface: WiFi, the wired access
    # links and the backbone bus, as compare_modes' cellular-only half needs
    wifi_enabled: bool = True
    cellular_enabled: bool = True
    wired_relay_rate: float = 1.0  # wired forwards per slot a relay can process
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.node_count < 2:
            raise ConfigError("need at least a source and a destination")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if self.link_rate_override is not None and self.link_rate_override < 0:
            raise ConfigError("link_rate_override must be >= 0")
        if self.users_per_cell < 1:
            raise ConfigError("users_per_cell must be >= 1")
        if self.loading_mode not in LOADING_MODES:
            raise ConfigError(f"unknown loading mode {self.loading_mode!r}")
        if self.ack_delay < 0 or self.processing_delay < 0:
            raise ConfigError("delays must be >= 0")
        if self.min_hops < 1:
            raise ConfigError("min_hops must be >= 1")
        if self.slot_budget < 1:
            raise ConfigError("slot_budget must be >= 1")
        if self.block_target < 1:
            raise ConfigError("block_target must be >= 1")
        if self.wired_relay_rate <= 0:
            raise ConfigError("wired_relay_rate must be positive")
        if self.relay_policy not in RELAY_POLICIES:
            raise ConfigError(f"unknown relay policy {self.relay_policy!r}")
        if not 0.0 <= self.relay_p <= 1.0:
            raise ConfigError("relay_p must lie in [0, 1]")
        if not self.cellular_enabled and self.relay_policy != "wifi-only":
            raise ConfigError(f"relay policy {self.relay_policy!r} needs the "
                              "cellular interface, which is disabled")

    def topology_params(self) -> TopologyParams:
        return TopologyParams(**{f.name: getattr(self, f.name) for f in fields(TopologyParams)})


# trial t of a sweep with seed s runs at seed s * TRIAL_SEED_STRIDE + t, so
# sweeps of consecutive seeds share no trial seed while trials <= the stride
TRIAL_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class SweepSpec:
    values: tuple | None = None  # explicit sweep points, else the preset's defaults
    trials: int = 50
    seed: int = 0
    out: str | None = None
    workers: int = 1
    scenario: dict = field(default_factory=dict)  # ScenarioConfig overrides

    def __post_init__(self):
        check_types(self)
        if not 1 <= self.trials <= TRIAL_SEED_STRIDE:
            raise ConfigError(f"trials must lie in [1, {TRIAL_SEED_STRIDE}]")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not all(map(finite_number, self.values or ())):
            raise ConfigError("sweep values must be finite numbers")
        if self.values is not None and len(self.values) == 0:
            raise ConfigError("explicit sweep values must be non-empty")

    def sweep_values(self, default):
        return list(default if self.values is None else self.values)
