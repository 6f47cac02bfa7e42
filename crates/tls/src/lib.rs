//! # ts-tls — a white-box TLS 1.2 implementation for measurement research
//!
//! A from-scratch TLS 1.2 stack built specifically so the crypto-shortcuts
//! study can *observe and manipulate* handshake internals that production
//! libraries hide: session-ID caches, RFC 5077 session tickets and their
//! encryption keys (STEKs), and cached ephemeral Diffie-Hellman values.
//!
//! ## Layout
//!
//! * [`suites`] — cipher suites (RSA / DHE_RSA / ECDHE_RSA key exchange ×
//!   AES-128-CBC-HMAC / ChaCha20-Poly1305 record protection)
//! * [`wire`] — record framing, handshake messages, and extensions
//!   (smoltcp-style typed views: parse borrows, emit appends)
//! * [`keys`] — the TLS 1.2 key schedule (master secret, key block,
//!   Finished verify-data)
//! * [`session`] — resumable session state
//! * [`cache`] — server-side session-ID caches (shareable across servers —
//!   the paper's §5.1 "service groups")
//! * [`ticket`] — RFC 5077 tickets, STEKs, rotation policies, and the
//!   SChannel/mbedTLS ticket-shape variants the scanner must parse
//! * [`ephemeral`] — DHE/ECDHE value caching and reuse policies (§2.3)
//! * [`config`] — client and server configuration
//! * [`conn`] — the sans-I/O connection core: `read_tls` / `write_tls`
//!   byte ports, `process_new_packets()`, and readiness queries
//! * [`client`] / [`server`] — the two protocol sides over that core
//! * [`pump`] — an in-memory driver that polls two endpoints' readiness
//! * [`alert`] / [`error`] — alerts and errors
//! * [`tls13`] — the TLS 1.3 PSK / 0-RTT resumption model (§2.4)
//!
//! ## Protocol fidelity
//!
//! The handshake flights, message encodings, session-resumption semantics,
//! and ticket format follow RFC 5246/5077 closely. Record protection uses
//! encrypt-then-MAC CBC (not TLS 1.2's MAC-then-encrypt) and ChaCha20-
//! Poly1305 — a deliberate, documented simplification that is invisible to
//! every measurement the study performs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
mod bufpool;
pub mod cache;
pub mod client;
pub mod config;
pub mod conn;
pub mod ephemeral;
pub mod error;
pub mod keys;
pub mod pump;
pub mod server;
pub mod session;
pub mod suites;
pub mod ticket;
pub mod tls13;
pub mod wire;

pub use client::ClientConn;
pub use config::{ClientConfig, ServerConfig};
pub use conn::{ConnectionCommon, IoState};
pub use error::TlsError;
pub use server::ServerConn;
pub use suites::CipherSuite;
