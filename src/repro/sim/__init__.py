"""GPU + encrypted-memory-system simulator (GPGPU-Sim-style substrate)."""

from .config import (
    GTX480_CONFIG,
    EncryptionConfig,
    EncryptionMode,
    GpuConfig,
    gtx480_config,
)
from .engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    CompiledKernel,
    compile_streams,
    resolve_sim_backend,
    run_vector,
)
from .gpu import GpuSimulator, SimResult
from .memctrl import MemoryController, MemoryControllerStats
from .parallel import (
    SimUnit,
    SimulationCache,
    cache_key,
    clear_default_cache,
    default_cache,
    run_units,
    simulate_unit,
)
from .request import Access, MemRequest
from .runner import (
    SCHEMES,
    ModelRunResult,
    compare_schemes,
    fully_encrypted,
    layer_unit,
    plaintext_traffic,
    run_layer,
    run_model,
    scheme_config,
)
from .sm import LoweredStreams, SmState, SmStats, TileStep
from .roofline import RooflinePrediction, predict_streams
from .trace import TraceStats, dump_streams, load_streams, trace_stats
from .workloads import (
    DEFAULT_TILE,
    gemm_layer_streams,
    layer_streams,
    matmul_streams,
    matmul_traffic,
    pool_layer_streams,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CompiledKernel",
    "compile_streams",
    "resolve_sim_backend",
    "run_vector",
    "GTX480_CONFIG",
    "EncryptionConfig",
    "EncryptionMode",
    "GpuConfig",
    "gtx480_config",
    "GpuSimulator",
    "SimResult",
    "MemoryController",
    "MemoryControllerStats",
    "Access",
    "MemRequest",
    "SimUnit",
    "SimulationCache",
    "cache_key",
    "clear_default_cache",
    "default_cache",
    "run_units",
    "simulate_unit",
    "SCHEMES",
    "ModelRunResult",
    "compare_schemes",
    "fully_encrypted",
    "layer_unit",
    "plaintext_traffic",
    "run_layer",
    "run_model",
    "scheme_config",
    "RooflinePrediction",
    "predict_streams",
    "TraceStats",
    "dump_streams",
    "load_streams",
    "trace_stats",
    "SmState",
    "SmStats",
    "TileStep",
    "LoweredStreams",
    "DEFAULT_TILE",
    "gemm_layer_streams",
    "layer_streams",
    "matmul_streams",
    "matmul_traffic",
    "pool_layer_streams",
]
