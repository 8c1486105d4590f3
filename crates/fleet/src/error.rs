//! Fleet-level error taxonomy.

use std::fmt;
use std::path::PathBuf;
use tagger_ctrl::{CtrlError, JournalError, TraceError};

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum FleetError {
    /// A fabric name was registered twice.
    DuplicateFabric(String),
    /// Two fabrics resolved to the same journal path — concurrent
    /// fabrics interleaving writes into one journal file would corrupt
    /// both, so registration refuses outright.
    DuplicateJournalPath {
        /// The contested path.
        path: PathBuf,
        /// The fabric that already owns it.
        owner: String,
        /// The fabric that tried to claim it.
        claimant: String,
    },
    /// An ingest or query referenced a fabric the fleet does not host.
    UnknownFabric(String),
    /// A fabric's bounded ingest queue is full; drain before retrying.
    QueueFull {
        /// The saturated fabric.
        fabric: String,
        /// Its configured queue capacity.
        cap: usize,
    },
    /// An ingest line failed trace parsing against its fabric's
    /// topology.
    Trace(TraceError),
    /// The fabric's controller rejected the event as malformed.
    Ctrl(CtrlError),
    /// The fabric's journal could not be written or recovered.
    Journal(JournalError),
    /// Filesystem trouble below the fleet directory.
    Io(std::io::Error),
    /// The network ingest front hit a state it cannot recover from
    /// (a panicked or already stopped ingest loop).
    Protocol(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::DuplicateFabric(name) => {
                write!(f, "fabric {name:?} is already registered")
            }
            FleetError::DuplicateJournalPath {
                path,
                owner,
                claimant,
            } => write!(
                f,
                "fabric {claimant:?} wants journal {}, already owned by fabric {owner:?}",
                path.display()
            ),
            FleetError::UnknownFabric(name) => write!(f, "no fabric named {name:?}"),
            FleetError::QueueFull { fabric, cap } => {
                write!(f, "fabric {fabric:?} ingest queue is full (cap {cap})")
            }
            FleetError::Trace(e) => write!(f, "ingest parse: {e}"),
            FleetError::Ctrl(e) => write!(f, "controller: {e}"),
            FleetError::Journal(e) => write!(f, "journal: {e}"),
            FleetError::Io(e) => write!(f, "fleet io: {e}"),
            FleetError::Protocol(msg) => write!(f, "ingest protocol: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Trace(e) => Some(e),
            FleetError::Ctrl(e) => Some(e),
            FleetError::Journal(e) => Some(e),
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<JournalError> for FleetError {
    /// A controller error that surfaced through the journaled rollout
    /// step stays a controller error.
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Ctrl(e) => FleetError::Ctrl(e),
            e => FleetError::Journal(e),
        }
    }
}

impl From<TraceError> for FleetError {
    fn from(e: TraceError) -> Self {
        FleetError::Trace(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_variant_displays_its_context() {
        let cases: Vec<(FleetError, &str)> = vec![
            (
                FleetError::DuplicateFabric("east".into()),
                "\"east\" is already registered",
            ),
            (
                FleetError::DuplicateJournalPath {
                    path: PathBuf::from("/j/a.journal"),
                    owner: "a".into(),
                    claimant: "b".into(),
                },
                "already owned by fabric \"a\"",
            ),
            (FleetError::UnknownFabric("ghost".into()), "no fabric named"),
            (
                FleetError::QueueFull {
                    fabric: "east".into(),
                    cap: 8,
                },
                "queue is full (cap 8)",
            ),
            (
                FleetError::Io(std::io::Error::other("socket hangup")),
                "fleet io: socket hangup",
            ),
            (
                FleetError::Protocol("frame kind 99".into()),
                "ingest protocol: frame kind 99",
            ),
        ];
        for (err, needle) in cases {
            let shown = err.to_string();
            assert!(
                shown.contains(needle),
                "{err:?} renders {shown:?}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn wrapped_errors_expose_their_source() {
        let io: FleetError = std::io::Error::other("refused").into();
        assert!(io.source().is_some(), "Io must chain to the io::Error");
        assert_eq!(io.source().unwrap().to_string(), "refused");
        assert!(
            FleetError::UnknownFabric("x".into()).source().is_none(),
            "leaf variants have no source"
        );
        assert!(FleetError::Protocol("p".into()).source().is_none());
    }

    #[test]
    fn trace_errors_convert_and_chain() {
        use tagger_topo::ClosConfig;
        let topo = ClosConfig::small().build();
        let trace_err = tagger_ctrl::parse_trace(&topo, "downn L1 T1").unwrap_err();
        let err: FleetError = trace_err.into();
        assert!(matches!(err, FleetError::Trace(_)));
        assert!(err.source().is_some(), "Trace must chain to the TraceError");
        assert!(err.to_string().starts_with("ingest parse: "));
    }
}
