"""NFPA-style forwarding measurement.

Named after the authors' Network Function Performance Analyzer [Csikor
et al., NFV-SDN 2015]: wire a device-under-test topology, send a
reproducible workload through it with :func:`measure_forwarding`, and
read delivered rate, loss and latency at a :func:`make_sink` endpoint.
Here the DUT is simulated, so rates come from the simulated clock that
the calibrated cost model drives — absolute numbers are model outputs,
but ratios between configurations (HARMLESS vs native software switch
vs legacy) are meaningful.  The analytic single-core ceiling of a
pipeline shape is ``DatapathCostModel.peak_pps``, not a measurement.
"""

from repro.nfpa.harness import (
    LatencyStats,
    MeasurementResult,
    make_sink,
    measure_forwarding,
)

__all__ = [
    "MeasurementResult",
    "LatencyStats",
    "make_sink",
    "measure_forwarding",
]
