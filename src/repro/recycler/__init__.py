"""The recycler: intermediate-result recycling for pipelined engines."""

from .benefit import BenefitModel
from .cache import CacheCounters, CacheEntry, RecyclerCache
from .config import (ALL_MODES, MODE_HIST, MODE_OFF, MODE_PA, MODE_SPEC,
                     RecyclerConfig)
from .graph import GraphNode, RecyclerGraph
from .inflight import InFlightRegistry
from .maintenance import MaintenanceManager, MaintenanceStats
from .matching import MatchResult, NodeMatch, match_tree
from .proactive import ProactiveRewriter
from .recycler import PreparedQuery, QueryRecord, Recycler
from .rewriter import ReuseInfo, StorePlanner, substitute_reuse
from .striping import LockStripes, plan_fingerprint
from .subsumption import SubsumptionIndex, build_compensation, subsumes

__all__ = [
    "ALL_MODES", "BenefitModel", "CacheCounters", "CacheEntry",
    "GraphNode", "InFlightRegistry", "LockStripes", "MODE_HIST",
    "MODE_OFF", "MODE_PA", "MODE_SPEC", "MaintenanceManager",
    "MaintenanceStats", "MatchResult", "NodeMatch", "PreparedQuery",
    "ProactiveRewriter", "QueryRecord", "Recycler", "RecyclerCache",
    "RecyclerConfig", "RecyclerGraph", "ReuseInfo", "StorePlanner",
    "SubsumptionIndex", "build_compensation", "match_tree",
    "plan_fingerprint", "subsumes", "substitute_reuse",
]
