//! Error types for the simulator.

use std::fmt;

/// Errors produced while building or running a simulation.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration file could not be parsed.
    Config {
        /// Which input (e.g. `service.json`) failed.
        source_name: String,
        /// Human-readable parse failure.
        detail: String,
    },
    /// A scenario is structurally invalid (bad DAG, empty path, overlapping
    /// core assignment, probability not summing to one, …).
    InvalidScenario(String),
    /// An I/O failure while loading configuration inputs.
    Io(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config {
                source_name,
                detail,
            } => {
                write!(f, "invalid configuration in {source_name}: {detail}")
            }
            SimError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            SimError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl SimError {
    /// The I/O failure `e` on the file or directory at `path`, its message
    /// naming the path: `i/o error: <path>: <what failed>`.
    pub fn io_at(path: &std::path::Path, e: std::io::Error) -> Self {
        let detail = format!("{}: {e}", path.display());
        SimError::Io(std::io::Error::new(e.kind(), detail))
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e)
    }
}

/// Convenience alias for simulator results.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = SimError::Config {
            source_name: "graph.json".into(),
            detail: "instances[0].service: unknown service `nginx`".into(),
        };
        assert_eq!(
            e.to_string(),
            "invalid configuration in graph.json: instances[0].service: unknown service `nginx`"
        );
        let e = SimError::InvalidScenario("path probabilities sum to 0.9".into());
        assert!(e.to_string().starts_with("invalid scenario"));
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let e = SimError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert!(e.source().is_some());
    }

    #[test]
    fn an_io_error_at_a_path_names_it_and_keeps_its_kind() {
        let e = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = SimError::io_at(std::path::Path::new("/d/machines.json"), e);
        assert_eq!(e.to_string(), "i/o error: /d/machines.json: gone");
        assert!(matches!(&e, SimError::Io(io) if io.kind() == std::io::ErrorKind::NotFound));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
