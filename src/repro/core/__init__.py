"""GateKeeper-GPU core: configuration, buffers, preprocessing, kernel and pipeline."""

from .buffers import BufferPlan, FiltrationBuffers, plan_buffers
from .config import EncodingActor, SystemConfiguration
from .filter import GateKeeperGPU
from .kernel import device_encode
# Public compatibility re-export of the package's own defining module, not a
# new internal call site on the deprecated façade.
from .pipeline import FilteringPipeline, PipelineReport  # reprolint: disable=deprecated-facade-imports
from .preprocess import PreparedBatch, encode_pair_arrays, prepare_batches
from .results import FilterRunResult

__all__ = [
    "BufferPlan",
    "FiltrationBuffers",
    "plan_buffers",
    "EncodingActor",
    "SystemConfiguration",
    "GateKeeperGPU",
    "device_encode",
    "FilteringPipeline",
    "PipelineReport",
    "PreparedBatch",
    "encode_pair_arrays",
    "prepare_batches",
    "FilterRunResult",
]
