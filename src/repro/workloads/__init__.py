"""Synthetic workload generation: request traces and arrival processes.

The paper evaluates three applications -- chatbot (ShareGPT), code completion
(HumanEval), and long-document summarization (LongBench).  The actual text is
irrelevant to the serving systems; only the joint distribution of prompt and
output lengths and the arrival process matter.  This subpackage generates
synthetic traces whose length distributions match the published summary
statistics of those datasets, plus Poisson and piecewise-constant (bursty)
arrival processes.
"""

from repro.workloads.datasets import (
    DatasetSpec,
    DATASETS,
    get_dataset_spec,
    sample_requests,
    RequestSample,
)
from repro.workloads.arrivals import (
    poisson_arrivals,
    poisson_arrival_stream,
    piecewise_rate_arrival_stream,
    diurnal_phases,
    spike_phases,
    RatePhase,
)
from repro.workloads.trace import (
    StreamingTrace,
    Trace,
    generate_trace,
    generate_trace_stream,
)

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "get_dataset_spec",
    "sample_requests",
    "RequestSample",
    "poisson_arrivals",
    "poisson_arrival_stream",
    "piecewise_rate_arrival_stream",
    "diurnal_phases",
    "spike_phases",
    "RatePhase",
    "StreamingTrace",
    "Trace",
    "generate_trace",
    "generate_trace_stream",
]
