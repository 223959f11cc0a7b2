"""Desk-scale simulator and analysis toolkit for a time-bin decoy-state
QKD transmitter: pattern generation, modulation, lossy channel, gated
detection, sifting, and finite-key secret-key-rate analysis."""

from .config import (
    SCHEMA_VERSION,
    ScenarioConfig,
    load_preset,
    load_scenario,
    preset_names,
    save_scenario,
)
from .errors import (
    ConfigError,
    DelayMismatchError,
    DomainError,
    EmptyGridError,
    EmptyTallyError,
    EncodingOverflowError,
    InvalidWordError,
    ScheduleViolationError,
    TbqkdError,
    TimelineMismatchError,
    UnmatchedEventError,
)
from .keyrate import (
    DecoyBounds,
    KeyRateReport,
    SecurityParams,
    decoy_bounds,
    error_correction_leakage,
    finite_bounds,
    finite_key_cost,
    gamma_penalty,
    hoeffding_delta,
    keyrate,
    phase_error_upper,
    secret_key_length,
)
from .link import (
    ChannelModel,
    DetectionEvent,
    DetectorModel,
    InterferometerModel,
    StabilizeResult,
    detect,
    detect_x,
    detect_z,
    interfere,
    receiver_basis,
    stabilize,
    transmit,
)
from .optimize import (
    GridPoint,
    GridResult,
    GridSpec,
    expected_keyrate,
    expected_tally_counts,
    optimize_params,
)
from .pipeline import (
    RunOutcome,
    run_simulation,
    run_simulation_reference,
    simulate_and_analyze,
)
from .ppg import (
    ClockConfig,
    Framing,
    Pulse,
    decode_word,
    encode_state,
    pattern_timeline,
    serialize_word,
)
from .protocol import (
    Basis,
    Bin,
    IntensityClass,
    ProtocolParams,
    State,
    Symbol,
    binary_entropy,
    sample_symbol,
    tau_n,
)
from .sift import (
    TALLY_KEYS,
    SiftResult,
    TallyCounts,
    qber_x,
    qber_z,
    sift,
)
from .slotmodel import (
    ExpectedTallies,
    LinkModel,
    analytic_expected_tallies,
    build_link_model,
)
from .source import OpticalPulse, SourceConfig, modulate

__version__ = "0.1.0"
