//! The crate-level error type.
//!
//! Each layer of the stack reports precise, typed errors
//! ([`ParseBenchError`], [`ScanError`], [`ConfigError`], …). Callers
//! that drive the whole flow — the CLI, and above all the serving layer
//! — need one type that any step can fail with, carrying enough
//! structure to map onto a machine-readable response. [`Error`] wraps
//! every failure the pipeline surface can produce, implements
//! `std::error::Error` with [`source`](std::error::Error::source)
//! pointing at the underlying typed error, and names its category via
//! [`kind`](Error::kind) (the `error.kind` field of the server's 4xx
//! JSON bodies).

use std::fmt;

use fscan_netlist::{NetlistError, ParseBenchError};
use fscan_scan::ScanError;

use crate::json::JsonError;
use crate::pipeline::ConfigError;

/// Any failure the functional-scan flow can produce, from `.bench`
/// parsing through scan insertion and configuration to JSON decoding.
///
/// # Examples
///
/// ```
/// use fscan::Error;
///
/// let err: Error = fscan_netlist::parse_bench("INPUT(", "bad").unwrap_err().into();
/// assert_eq!(err.kind(), "bench_parse");
/// assert!(std::error::Error::source(&err).is_some());
/// ```
#[derive(Clone, Debug)]
pub enum Error {
    /// A `.bench` netlist failed to parse.
    BenchParse(ParseBenchError),
    /// A circuit violated a structural invariant.
    Netlist(NetlistError),
    /// Scan insertion or chain verification failed.
    Scan(ScanError),
    /// A pipeline configuration was rejected.
    Config(ConfigError),
    /// A JSON document was malformed or had the wrong shape.
    Json(JsonError),
}

impl Error {
    /// A stable, lowercase category label — the discriminant the
    /// serving layer exposes as `error.kind` so clients can branch
    /// without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            Error::BenchParse(_) => "bench_parse",
            Error::Netlist(_) => "netlist",
            Error::Scan(_) => "scan",
            Error::Config(_) => "config",
            Error::Json(_) => "json",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BenchParse(e) => write!(f, "bench parse error: {e}"),
            Error::Netlist(e) => write!(f, "netlist error: {e}"),
            Error::Scan(e) => write!(f, "scan error: {e}"),
            Error::Config(e) => write!(f, "config error: {e}"),
            Error::Json(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::BenchParse(e) => Some(e),
            Error::Netlist(e) => Some(e),
            Error::Scan(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Json(e) => Some(e),
        }
    }
}

impl From<ParseBenchError> for Error {
    fn from(e: ParseBenchError) -> Error {
        Error::BenchParse(e)
    }
}

impl From<NetlistError> for Error {
    fn from(e: NetlistError) -> Error {
        Error::Netlist(e)
    }
}

impl From<ScanError> for Error {
    fn from(e: ScanError) -> Error {
        Error::Scan(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Error {
        Error::Config(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Error {
        Error::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_kind_display_and_source() {
        let cases: Vec<Error> = vec![
            fscan_netlist::parse_bench("INPUT(", "bad")
                .unwrap_err()
                .into(),
            Error::Scan(ScanError::NoFlipFlops),
            Error::Config(ConfigError::EmptyPodemBudget),
            Error::Json(JsonError::new("bad")),
        ];
        let mut kinds = Vec::new();
        for err in &cases {
            assert!(!err.to_string().is_empty());
            assert!(std::error::Error::source(err).is_some(), "{err}");
            kinds.push(err.kind());
        }
        assert_eq!(kinds, vec!["bench_parse", "scan", "config", "json"]);
    }
}
