"""Secret key extraction from channel state information, at desk scale.

Subpackages cover the full pipeline: channel simulation and trace files
(:mod:`skece.channel`), adaptive quantization (:mod:`skece.quantizer`),
truncated-hash consistency validation (:mod:`skece.validation`), weighted
key recombination (:mod:`skece.recombine`), the interactive Cascade
baseline (:mod:`skece.cascade`), the two-party protocol with transcript
capture (:mod:`skece.protocol`), key-quality metrics (:mod:`skece.analysis`)
and reproducible experiment drivers (:mod:`skece.experiments`).
"""

from .channel import (
    CsiTrace,
    PairedTraceSet,
    ScenarioConfig,
    load_trace,
    save_trace,
    simulate,
)
from .errors import (
    ConfigError,
    DesyncError,
    InsufficientBitsError,
    ProtocolError,
    SkeceError,
    TraceFormatError,
    WireFormatError,
)
from .quantizer import (
    BitStream,
    extract_bits,
    extract_streams,
    keep_mask,
    merge_kept,
    quantize_matrix,
)
from .validation import ValidationTag, checking_length, make_tag, validate
# the recombine() operation itself stays namespaced (skece.recombine.recombine)
# so the submodule attribute is not shadowed by a same-named function
from .recombine import (
    allocate,
    difference_degree,
    edit_distance,
    plan,
    success_probability,
    weights,
)
from .cascade import CascadeConfig, ReconciliationOutcome, cascade_reconcile
from .protocol import (
    EveView,
    KeyAgreementResult,
    MsgType,
    ProtocolMessage,
    ProtocolParams,
    decode,
    encode,
    eve_attempt,
    run_key_agreement,
)
from .analysis import (
    TestReport,
    nist_approx_entropy,
    nist_fft,
    nist_frequency,
    nist_longest_run,
    pearson,
    secret_bit_rate,
)

__version__ = "0.1.0"

__all__ = [
    "CsiTrace", "PairedTraceSet", "ScenarioConfig", "load_trace", "save_trace", "simulate",
    "ConfigError", "DesyncError", "InsufficientBitsError", "ProtocolError",
    "SkeceError", "TraceFormatError", "WireFormatError",
    "BitStream", "extract_bits", "extract_streams", "keep_mask", "merge_kept",
    "quantize_matrix",
    "ValidationTag", "checking_length", "make_tag", "validate",
    "allocate", "difference_degree", "edit_distance", "plan", "success_probability",
    "weights",
    "CascadeConfig", "ReconciliationOutcome", "cascade_reconcile",
    "EveView", "KeyAgreementResult", "MsgType", "ProtocolMessage", "ProtocolParams",
    "decode", "encode", "eve_attempt", "run_key_agreement",
    "TestReport", "nist_approx_entropy", "nist_fft", "nist_frequency", "nist_longest_run",
    "pearson", "secret_bit_rate",
]
