"""Pre-alignment filters: GateKeeper-GPU and the published comparators.

Every filter has two implementations: the per-base scalar reference
``estimate_edits_codes`` (the test oracle) and the one batch method
``estimate_edits_words`` over packed ``uint64`` word arrays, which the engine
and the mapper run (:mod:`repro.filters.packed` kernels, with the Numba tier
of :mod:`repro.filters.native` as an optional accelerator).
"""

from .base import FilterDecision, FilterResult, PreAlignmentFilter
from .bitvector import (
    amend_mask,
    count_one_runs,
    count_set_windows,
    hamming_mask,
    longest_zero_run,
    shifted_mask,
    zero_run_lengths,
)
from .gatekeeper import GateKeeperFilter
from .packed import (
    count_lane_windows,
    count_set_lanes,
    lane_span_mask,
    mismatch_lanes,
    neighborhood_lanes,
    pack_lanes,
    popcount,
    shift_lanes_left,
    shift_lanes_right,
    unpack_lanes,
    zero_run_markers,
)
from .gatekeeper_gpu import GateKeeperGPUFilter
from .magnet import MagnetFilter
from .masks import EdgePolicy, MaskSet, build_mask_set, final_bitvector
from .shd import SHDFilter
from .shouji import ShoujiFilter, neighborhood_map, neighborhood_map_batch
from .sneakysnake import SneakySnakeFilter

#: All comparator filters by their display name, in the order the paper plots
#: them.  Kept as a static display-name map for the benchmark harness; the
#: extensible, string-keyed source of truth is :mod:`repro.engine.registry`
#: (which cannot be imported here without a cycle).
FILTER_REGISTRY = {
    "GateKeeper-GPU": GateKeeperGPUFilter,
    "GateKeeper": GateKeeperFilter,
    "SHD": SHDFilter,
    "MAGNET": MagnetFilter,
    "Shouji": ShoujiFilter,
    "SneakySnake": SneakySnakeFilter,
}

__all__ = [
    "FilterDecision",
    "FilterResult",
    "PreAlignmentFilter",
    "amend_mask",
    "count_one_runs",
    "count_set_windows",
    "hamming_mask",
    "longest_zero_run",
    "shifted_mask",
    "zero_run_lengths",
    "count_lane_windows",
    "count_set_lanes",
    "lane_span_mask",
    "mismatch_lanes",
    "neighborhood_lanes",
    "pack_lanes",
    "popcount",
    "shift_lanes_left",
    "shift_lanes_right",
    "unpack_lanes",
    "zero_run_markers",
    "GateKeeperFilter",
    "GateKeeperGPUFilter",
    "MagnetFilter",
    "EdgePolicy",
    "MaskSet",
    "build_mask_set",
    "final_bitvector",
    "SHDFilter",
    "ShoujiFilter",
    "neighborhood_map",
    "neighborhood_map_batch",
    "SneakySnakeFilter",
    "FILTER_REGISTRY",
]
