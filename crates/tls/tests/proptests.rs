//! Property-based tests for the TLS wire formats and ticket machinery:
//! every encoder/decoder pair must round-trip arbitrary inputs, records
//! must survive arbitrary fragmentation, and tickets must round-trip
//! arbitrary session state under any format.

use proptest::prelude::*;
use ts_crypto::drbg::HmacDrbg;
use ts_tls::session::SessionState;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{Stek, TicketFormat};
use ts_tls::wire::extensions::{decode_extensions, encode_extensions, Extension};
use ts_tls::wire::handshake::{
    ClientHello, HandshakeMessage, HandshakeReassembler, NewSessionTicket, ServerHello,
};
use ts_tls::wire::record::{ContentType, RecordLayer};

fn suite_strategy() -> impl Strategy<Value = CipherSuite> {
    prop_oneof![
        Just(CipherSuite::RsaAes128CbcSha256),
        Just(CipherSuite::DheRsaAes128CbcSha256),
        Just(CipherSuite::EcdheRsaAes128CbcSha256),
        Just(CipherSuite::DheRsaChaCha20Poly1305),
        Just(CipherSuite::EcdheRsaChaCha20Poly1305),
    ]
}

fn hostname_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,30}\\.sim"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_survive_arbitrary_fragmentation(
        payload in proptest::collection::vec(any::<u8>(), 0..40_000),
        cuts in proptest::collection::vec(1usize..500, 0..20),
    ) {
        let mut writer = RecordLayer::new();
        let mut wire = Vec::new();
        writer.write_record(ContentType::ApplicationData, &payload, &mut wire);
        // Feed the wire bytes in arbitrary chunk sizes.
        let mut reader = RecordLayer::new();
        let mut reassembled = Vec::new();
        let mut pos = 0;
        let mut cut_iter = cuts.into_iter().cycle();
        while pos < wire.len() {
            let take = cut_iter.next().unwrap_or(64).min(wire.len() - pos);
            reader.feed(&wire[pos..pos + take]);
            pos += take;
            while let Some(rec) = reader.next_record().unwrap() {
                prop_assert_eq!(rec.content_type, ContentType::ApplicationData);
                reassembled.extend_from_slice(&rec.payload);
            }
        }
        prop_assert_eq!(reassembled, payload);
    }

    #[test]
    fn extensions_roundtrip(
        host in hostname_strategy(),
        ticket in proptest::collection::vec(any::<u8>(), 0..200),
        groups in proptest::collection::vec(any::<u16>(), 0..8),
        unknown in proptest::collection::vec(any::<u8>(), 0..50),
        unknown_type in 100u16..60_000,
    ) {
        let exts = vec![
            Extension::ServerName(host),
            Extension::SessionTicket(ticket),
            Extension::SupportedGroups(groups),
            Extension::Unknown { ext_type: unknown_type, data: unknown },
        ];
        let mut buf = Vec::new();
        encode_extensions(&exts, &mut buf);
        prop_assert_eq!(decode_extensions(&buf).unwrap(), exts);
    }

    #[test]
    fn client_hello_roundtrips(
        random in proptest::collection::vec(any::<u8>(), 32..=32),
        session_id in proptest::collection::vec(any::<u8>(), 0..=32),
        suites in proptest::collection::vec(any::<u16>(), 1..20),
        host in hostname_strategy(),
    ) {
        let msg = HandshakeMessage::ClientHello(ClientHello {
            random: random.try_into().unwrap(),
            session_id,
            cipher_suites: suites,
            extensions: vec![Extension::ServerName(host)],
        });
        let enc = msg.encode();
        let (decoded, used) = HandshakeMessage::decode(&enc, None).unwrap().unwrap();
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn server_hello_roundtrips(
        random in proptest::collection::vec(any::<u8>(), 32..=32),
        session_id in proptest::collection::vec(any::<u8>(), 0..=32),
        suite in any::<u16>(),
        with_ticket_ext in any::<bool>(),
    ) {
        let extensions = if with_ticket_ext {
            vec![Extension::SessionTicket(Vec::new())]
        } else {
            vec![]
        };
        let msg = HandshakeMessage::ServerHello(ServerHello {
            random: random.try_into().unwrap(),
            session_id,
            cipher_suite: suite,
            extensions,
        });
        let enc = msg.encode();
        let (decoded, _) = HandshakeMessage::decode(&enc, None).unwrap().unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn nst_roundtrips(
        hint in any::<u32>(),
        ticket in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let msg = HandshakeMessage::NewSessionTicket(NewSessionTicket {
            lifetime_hint: hint,
            ticket,
        });
        let enc = msg.encode();
        let (decoded, _) = HandshakeMessage::decode(&enc, None).unwrap().unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_messages_never_panic_and_never_parse(
        random in proptest::collection::vec(any::<u8>(), 32..=32),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = HandshakeMessage::ClientHello(ClientHello {
            random: random.try_into().unwrap(),
            session_id: vec![1, 2, 3],
            cipher_suites: vec![0xc02f, 0x003c],
            extensions: vec![Extension::SessionTicket(vec![9; 40])],
        });
        let enc = msg.encode();
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < enc.len());
        // Either "need more data" (None) or a clean decode error.
        match HandshakeMessage::decode(&enc[..cut], None) {
            Ok(None) | Err(_) => {}
            Ok(Some((_, used))) => prop_assert!(used <= cut),
        }
    }

    #[test]
    fn reassembler_handles_arbitrary_message_streams(
        hints in proptest::collection::vec(any::<u32>(), 1..6),
        chunk in 1usize..40,
    ) {
        let messages: Vec<HandshakeMessage> = hints
            .iter()
            .map(|&h| {
                HandshakeMessage::NewSessionTicket(NewSessionTicket {
                    lifetime_hint: h,
                    ticket: vec![h as u8; (h % 64) as usize],
                })
            })
            .collect();
        let mut stream = Vec::new();
        for m in &messages {
            stream.extend_from_slice(&m.encode());
        }
        let mut reasm = HandshakeReassembler::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            reasm.feed(piece).unwrap();
            while let Some(m) = reasm.next(None).unwrap() {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, messages);
        prop_assert!(reasm.is_empty());
    }

    #[test]
    fn session_state_roundtrips(
        master in proptest::collection::vec(any::<u8>(), 48..=48),
        suite in suite_strategy(),
        established_at in any::<u64>(),
        host in hostname_strategy(),
    ) {
        let state = SessionState {
            master_secret: master.try_into().unwrap(),
            cipher_suite: suite,
            established_at,
            server_name: host,
        };
        prop_assert_eq!(SessionState::from_bytes(&state.to_bytes()), Some(state));
    }

    #[test]
    fn tickets_roundtrip_any_state_any_format(
        master in proptest::collection::vec(any::<u8>(), 48..=48),
        suite in suite_strategy(),
        established_at in any::<u64>(),
        host in hostname_strategy(),
        seed in any::<u64>(),
        format_pick in 0u8..3,
    ) {
        let format = match format_pick {
            0 => TicketFormat::Rfc5077,
            1 => TicketFormat::MbedTls,
            _ => TicketFormat::SChannel,
        };
        let state = SessionState {
            master_secret: master.try_into().unwrap(),
            cipher_suite: suite,
            established_at,
            server_name: host,
        };
        let mut rng = HmacDrbg::from_seed_label(seed, "prop-ticket");
        let stek = Stek::generate(&mut rng, 0);
        let ticket = stek.seal(&state, format, &mut rng);
        prop_assert_eq!(stek.open(&ticket, format).unwrap(), state);
        // The STEK id is recoverable and has the format's length.
        let id = ts_tls::ticket::extract_stek_id(&ticket, format).unwrap();
        prop_assert_eq!(id.len(), format.key_name_len());
    }

    #[test]
    fn tampered_tickets_never_open(
        seed in any::<u64>(),
        flip in any::<usize>(),
    ) {
        let state = SessionState {
            master_secret: [9; 48],
            cipher_suite: CipherSuite::EcdheRsaChaCha20Poly1305,
            established_at: 1,
            server_name: "t.sim".into(),
        };
        let mut rng = HmacDrbg::from_seed_label(seed, "prop-tamper");
        let stek = Stek::generate(&mut rng, 0);
        let mut ticket = stek.seal(&state, TicketFormat::Rfc5077, &mut rng);
        // Flip one bit anywhere beyond the key name — the sealed body must
        // reject; flipping the key name makes it a different key's ticket.
        let idx = 16 + (flip % (ticket.len() - 16));
        ticket[idx] ^= 1;
        prop_assert!(stek.open(&ticket, TicketFormat::Rfc5077).is_err());
    }
}
