"""Random linear network coding over parallel cellular and WiFi paths."""

from . import config, gf256, rlnc, routing, simengine, topology
from .config import ConfigError, ScenarioConfig, TopologyParams
from .rlnc import CodedPacket, DecoderState, RecodeBuffer, SourceBlock
from .simengine import (
    EventTrace,
    NoPathError,
    SessionStats,
    compare_modes,
    loaded_cellular_rate,
    run_session,
    schedule_wifi_slot,
)
from .topology import HetNetTopology, generate

__version__ = "0.1.0"
