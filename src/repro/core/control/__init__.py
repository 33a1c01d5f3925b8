"""The control plane: :mod:`.plane` (every decision of the query server,
as one synchronous object that returns its I/O as :mod:`.effects`),
:mod:`.fleet` (membership, canary rollout), :mod:`.controller` (the
``TARGET CI`` rate controller; docs/SCALING.md "Closed-loop sampling"),
:mod:`.journal` (the crash-recovery record format) and :mod:`.hostside`
(the one handler that applies a pushed message to a host agent)."""

from .controller import (
    STATE_FROZEN,
    STATE_RATE_LIMITED,
    STATE_TRACKING,
    STATE_WARMUP,
    ControllerConfig,
    RateUpdate,
    SamplingController,
)
from .effects import Evict, Journal, MsgType, Push, Reply
from .fleet import Session
from .plane import ControlPlane

__all__ = [
    "STATE_FROZEN",
    "STATE_RATE_LIMITED",
    "STATE_TRACKING",
    "STATE_WARMUP",
    "ControlPlane",
    "ControllerConfig",
    "Evict",
    "Journal",
    "MsgType",
    "Push",
    "RateUpdate",
    "Reply",
    "SamplingController",
    "Session",
]
