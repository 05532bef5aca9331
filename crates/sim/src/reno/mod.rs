//! TCP Reno sender-side machinery: timeout estimation and the sans-I/O
//! sender state machine. The window laws live in [`crate::cc`].

pub mod rto;
pub mod sender;

pub use rto::{RtoConfig, RtoEstimator};
pub use sender::{Sender, SenderConfig, SenderOutput, TimerCmd};
