//! # tcp-trace
//!
//! Sender-side trace records and the paper's §III analysis programs.
//!
//! The paper gathered measurement data "by running tcpdump at the sender,
//! and analyzing its output with a set of analysis programs developed by
//! us". This crate is those programs:
//!
//! * [`record`] — the trace format (the `tcpdump` stand-in): timestamped
//!   data-segment departures and ACK arrivals, serializable as JSON lines
//!   or a compact binary framing;
//! * [`stream`] — incremental (streaming) analysis: the [`TraceSink`] seam
//!   and the [`StreamAnalyzer`] that reduces wire events to the paper's
//!   statistics with O(window) state, bit-identical to the batch path
//!   (every batch function below is a thin fold of its streaming core);
//! * [`analyzer`] — loss-indication extraction and TD-vs-TO classification
//!   (with the Linux dupack-threshold-2 correction of §III), including
//!   timeout-sequence lengths for Table II's T0…T5+ columns;
//! * [`karn`] — RTT estimation under Karn's algorithm and `T0` estimation;
//! * [`intervals`] — the 100-second interval segmentation behind Figs. 7–10;
//! * [`metrics`] — the average-error metric of §III;
//! * [`table`] — Table II row assembly and formatting;
//! * [`summary`] — `tcptrace`-style whole-trace reports;
//! * [`import`] — a plain-text dump format so externally captured traces
//!   (e.g. converted `tcpdump` output) can feed the same pipeline;
//! * [`validate`](mod@validate) — internal-consistency checks that catch the usual
//!   conversion bugs in imported dumps before they skew the statistics.
//!
//! The analyzer deliberately uses only wire-visible information (sequence
//! repetition, duplicate-ACK counts) and is validated against the
//! simulator's ground-truth counters in the workspace integration tests —
//! mirroring how the original programs were "verified by checking them
//! against tcptrace and ns".

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyzer;
pub mod health;
pub mod import;
pub mod intervals;
pub mod karn;
pub mod metrics;
pub mod record;
pub mod stream;
pub mod summary;
pub mod table;
pub mod validate;

pub use analyzer::{analyze, Analysis, AnalyzerConfig, Classifier, IndicationKind, LossIndication};
pub use health::{HealthIssue, HealthWarning, TraceHealth};
pub use import::{export_text, import_text, import_text_strict, Import, ImportError};
pub use intervals::{
    split_intervals, split_intervals_bounded, IntervalCategory, IntervalCore, IntervalStats,
};
pub use karn::{estimate_timing, rtt_window_correlation, CorrCore, KarnCore, TimingEstimates};
pub use metrics::{average_error, Observation};
pub use record::{Trace, TraceEvent, TraceRecord};
pub use stream::{AnalyzerPool, LogMark, StreamAnalysis, StreamAnalyzer, StreamConfig, TraceSink};
pub use summary::TraceSummary;
pub use table::{format_table, TableRow};
pub use validate::{conservation, validate, Conservation, Finding, Problem, ValidateConfig};
