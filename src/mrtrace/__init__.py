"""mrtrace: workload characterization, synthesis, and replay simulation
for MapReduce-style job traces."""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the caller chose a count. The k-means restarts
# run on a thread pool, and BLAS worker threads would contend with it for
# the cores; a threaded dot product also sums in an order that depends on
# the thread count. Set before anything imports numpy, which reads it when
# OpenBLAS loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    EmptyPath,
    EmptyTrace,
    InsufficientData,
    InvalidBucketWidth,
    KTooLarge,
    MalformedRecord,
    MedianZero,
    MissingRequiredField,
    MRTraceError,
    NoCompleteJobs,
    NoData,
    ScaledValueTooLarge,
    SimTimeOverflow,
    SpanTooLong,
    SumOverflow,
    TooManyBuckets,
    TooShort,
    UnsortedStream,
    WriteTimeOverflow,
    ZeroVariance,
)
from .trace import (
    FIELD_NAMES,
    JobRecord,
    Trace,
    ValidationReport,
    hash_path,
    parse_trace,
    serialize_trace,
    validate,
)
from .data_access import (
    EmpiricalCDF,
    FileSide,
    FileTable,
    ReaccessStats,
    ZipfFit,
    access_frequency_rank,
    access_vs_size_curves,
    data_size_cdf,
    eighty_x_rule,
    file_table,
    fit_zipf,
    reaccess_intervals,
    tail_trimmed,
)
from .temporal import (
    BurstinessCurve,
    CorrelationMatrix,
    SpectralPeaks,
    TimeSeries,
    bucket_time_series,
    burstiness_curve,
    occupancy_series,
    peak_to_median,
    periodogram,
    sine_reference,
    zero_runs,
)
from .compute_patterns import (
    ClusterModel,
    JobFeatureMatrix,
    NameBreakdown,
    elbow_fit,
    first_word,
    fit_best,
    job_feature_vectors,
    kmeans,
    name_breakdown,
    summarize_clusters,
)
from .synthesis import (
    DataPlan,
    SyntheticWorkload,
    WorkloadModel,
    build_workload_model,
    data_prepopulation_plan,
    synthesize,
)
from .replay_sim import SimConfig, SimResult, sim_occupancy_series, simulate
from .cache_sim import (
    AccessStream,
    CacheConfig,
    CacheReport,
    access_stream,
    simulate_cache,
)
