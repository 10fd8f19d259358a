use std::error::Error;
use std::fmt;

use sabre_verify::VerifyError;

/// Errors produced when constructing a router or routing a circuit.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// The device has fewer physical qubits than the circuit has logical
    /// qubits — the one hard constraint of the problem ("the number of
    /// physical qubits cannot be smaller than that of logical qubits",
    /// paper §VII).
    DeviceTooSmall {
        /// Logical qubits required.
        required: u32,
        /// Physical qubits available.
        available: u32,
    },
    /// The coupling graph is disconnected; some qubit pairs could never be
    /// brought together by SWAPs.
    DisconnectedDevice,
    /// A configuration field was out of range.
    InvalidConfig {
        /// Description of the offending field.
        reason: String,
    },
    /// The routed plan failed its proof against the input circuit
    /// ([`sabre_verify::verify_routed`]), so it was neither cached nor
    /// served.
    Unverified(VerifyError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DeviceTooSmall {
                required,
                available,
            } => write!(
                f,
                "circuit needs {required} qubits but the device has only {available}"
            ),
            RouteError::DisconnectedDevice => {
                write!(f, "coupling graph is disconnected; routing cannot succeed")
            }
            RouteError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            RouteError::Unverified(source) => {
                write!(f, "routed plan failed verification: {source}")
            }
        }
    }
}

impl Error for RouteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = RouteError::DeviceTooSmall {
            required: 25,
            available: 20,
        };
        let msg = e.to_string();
        assert!(msg.contains("25"));
        assert!(msg.contains("20"));
    }

    #[test]
    fn implements_std_error() {
        fn check<E: Error + Send + Sync + 'static>(_: E) {}
        check(RouteError::DisconnectedDevice);
    }
}
