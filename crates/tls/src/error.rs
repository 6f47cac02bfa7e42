//! TLS errors.

use crate::alert::AlertDescription;
use ts_crypto::CryptoError;
use ts_x509::TrustError;

/// Errors produced by the TLS state machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A record or handshake message failed to parse.
    Decode(&'static str),
    /// The peer sent a message that is illegal in the current state.
    UnexpectedMessage {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// What arrived instead.
        got: &'static str,
    },
    /// No mutually supported cipher suite.
    NoCommonSuite,
    /// A cryptographic operation failed.
    Crypto(CryptoError),
    /// Certificate chain validation failed.
    Trust(TrustError),
    /// The peer sent a fatal alert.
    PeerAlert(AlertDescription),
    /// The Finished MAC did not verify.
    BadFinished,
    /// Data arrived on a connection that was closed or failed.
    ConnectionClosed,
    /// Handshake API used out of order (e.g. app data before completion).
    NotReady,
    /// A handshake message header declared a body longer than
    /// [`crate::wire::handshake::MAX_HANDSHAKE_LEN`].
    HandshakeTooLong {
        /// The body length the header declared.
        declared: usize,
    },
}

impl From<CryptoError> for TlsError {
    fn from(e: CryptoError) -> Self {
        TlsError::Crypto(e)
    }
}

impl From<TrustError> for TlsError {
    fn from(e: TrustError) -> Self {
        TlsError::Trust(e)
    }
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Decode(what) => write!(f, "decode error: {what}"),
            TlsError::UnexpectedMessage { expected, got } => {
                write!(f, "unexpected message: wanted {expected}, got {got}")
            }
            TlsError::NoCommonSuite => write!(f, "no common cipher suite"),
            TlsError::Crypto(e) => write!(f, "crypto failure: {e}"),
            TlsError::Trust(e) => write!(f, "certificate validation failed: {e}"),
            TlsError::PeerAlert(d) => write!(f, "peer sent fatal alert: {d:?}"),
            TlsError::BadFinished => write!(f, "Finished verification failed"),
            TlsError::ConnectionClosed => write!(f, "connection closed"),
            TlsError::NotReady => write!(f, "operation before handshake completion"),
            TlsError::HandshakeTooLong { declared } => write!(
                f,
                "handshake message declares {declared} bytes, above the {} limit",
                crate::wire::handshake::MAX_HANDSHAKE_LEN
            ),
        }
    }
}

impl std::error::Error for TlsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TlsError::Crypto(e) => Some(e),
            TlsError::Trust(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TlsError::Decode("bad length");
        assert!(e.to_string().contains("bad length"));
        let e = TlsError::UnexpectedMessage {
            expected: "ServerHello",
            got: "Finished",
        };
        assert!(e.to_string().contains("ServerHello"));
        assert!(e.to_string().contains("Finished"));
    }

    #[test]
    fn source_chains_reach_inner_errors() {
        use std::error::Error;
        let e = TlsError::Crypto(CryptoError::BadMac);
        assert!(e.source().is_some(), "crypto cause exposed");
        let e = TlsError::Trust(TrustError::EmptyChain);
        assert!(e.source().is_some(), "trust cause exposed");
        assert!(TlsError::NoCommonSuite.source().is_none());
    }

    #[test]
    fn conversions() {
        let e: TlsError = CryptoError::BadMac.into();
        assert_eq!(e, TlsError::Crypto(CryptoError::BadMac));
        let e: TlsError = TrustError::EmptyChain.into();
        assert_eq!(e, TlsError::Trust(TrustError::EmptyChain));
    }
}
