"""Random linear network coding over parallel cellular and WiFi paths."""

from . import gf256, rlnc, routing, simengine, topology
from .errors import ConfigError, NoPathError
from .rlnc import CodedPacket, DecoderState, RecodeBuffer, SourceBlock
from .simengine import (
    EventTrace,
    ForwardPolicy,
    ScenarioConfig,
    SessionStats,
    compare_modes,
    loaded_cellular_rate,
    run_session,
    schedule_wifi_slot,
)
from .topology import HetNetTopology, TopologyParams, generate

__version__ = "0.1.0"
