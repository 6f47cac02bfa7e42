//! Hello-message extensions (RFC 6066, RFC 5077).
//!
//! The study needs three: server_name (SNI — terminators route on it),
//! session_ticket (RFC 5077 §3.2 — empty to signal support, non-empty to
//! offer resumption), and supported_groups. Unknown extensions round-trip
//! as raw bytes, as a real implementation must.

use crate::error::TlsError;

/// A hello extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// server_name(0) — a single DNS hostname.
    ServerName(String),
    /// supported_groups(10) — named group code points.
    SupportedGroups(Vec<u16>),
    /// session_ticket(35) — empty = "I support tickets"; non-empty = offer.
    SessionTicket(Vec<u8>),
    /// Anything else, preserved verbatim.
    Unknown {
        /// Extension type code point.
        ext_type: u16,
        /// Raw extension data.
        data: Vec<u8>,
    },
}

impl Extension {
    /// The extension's type code point.
    pub fn ext_type(&self) -> u16 {
        match self {
            Extension::ServerName(_) => 0,
            Extension::SupportedGroups(_) => 10,
            Extension::SessionTicket(_) => 35,
            Extension::Unknown { ext_type, .. } => *ext_type,
        }
    }

    fn data_bytes(&self) -> Vec<u8> {
        match self {
            Extension::ServerName(name) => {
                // ServerNameList: u16 list len, type 0 (host_name), u16 name len, name.
                let mut out = Vec::with_capacity(name.len() + 5);
                out.extend_from_slice(&(name.len() as u16 + 3).to_be_bytes());
                out.push(0);
                out.extend_from_slice(&(name.len() as u16).to_be_bytes());
                out.extend_from_slice(name.as_bytes());
                out
            }
            Extension::SupportedGroups(groups) => {
                let mut out = Vec::with_capacity(groups.len() * 2 + 2);
                out.extend_from_slice(&(groups.len() as u16 * 2).to_be_bytes());
                for g in groups {
                    out.extend_from_slice(&g.to_be_bytes());
                }
                out
            }
            Extension::SessionTicket(ticket) => ticket.clone(),
            Extension::Unknown { data, .. } => data.clone(),
        }
    }

    /// Encode this extension (type, length, data) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let data = self.data_bytes();
        out.extend_from_slice(&self.ext_type().to_be_bytes());
        out.extend_from_slice(&(data.len() as u16).to_be_bytes());
        out.extend_from_slice(&data);
    }

    fn decode_one(ext_type: u16, data: &[u8]) -> Result<Extension, TlsError> {
        match ext_type {
            0 => {
                if data.len() < 5 {
                    return Err(TlsError::Decode("short server_name"));
                }
                let list_len = u16::from_be_bytes([data[0], data[1]]) as usize;
                if list_len + 2 != data.len() || data[2] != 0 {
                    return Err(TlsError::Decode("malformed server_name list"));
                }
                let name_len = u16::from_be_bytes([data[3], data[4]]) as usize;
                if 5 + name_len != data.len() {
                    return Err(TlsError::Decode("server_name length mismatch"));
                }
                let name = std::str::from_utf8(&data[5..])
                    .map_err(|_| TlsError::Decode("server_name not UTF-8"))?;
                Ok(Extension::ServerName(name.to_string()))
            }
            10 => {
                if data.len() < 2 {
                    return Err(TlsError::Decode("short supported_groups"));
                }
                let list_len = u16::from_be_bytes([data[0], data[1]]) as usize;
                if list_len + 2 != data.len() || list_len % 2 != 0 {
                    return Err(TlsError::Decode("malformed supported_groups"));
                }
                let groups = data[2..]
                    .chunks_exact(2)
                    .map(|c| u16::from_be_bytes([c[0], c[1]]))
                    .collect();
                Ok(Extension::SupportedGroups(groups))
            }
            35 => Ok(Extension::SessionTicket(data.to_vec())),
            other => Ok(Extension::Unknown {
                ext_type: other,
                data: data.to_vec(),
            }),
        }
    }
}

/// Encode an extensions block (u16 total length + extensions). Omitted
/// entirely when `exts` is empty, per RFC 5246.
pub fn encode_extensions(exts: &[Extension], out: &mut Vec<u8>) {
    if exts.is_empty() {
        return;
    }
    let mut body = Vec::new();
    for e in exts {
        e.encode(&mut body);
    }
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(&body);
}

/// Decode an extensions block from the tail of a hello message. An empty
/// slice means "no extensions". Rejects trailing garbage.
pub fn decode_extensions(data: &[u8]) -> Result<Vec<Extension>, TlsError> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    if data.len() < 2 {
        return Err(TlsError::Decode("truncated extensions length"));
    }
    let total = u16::from_be_bytes([data[0], data[1]]) as usize;
    if total + 2 != data.len() {
        return Err(TlsError::Decode("extensions length mismatch"));
    }
    let mut rest = &data[2..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(TlsError::Decode("truncated extension header"));
        }
        let ext_type = u16::from_be_bytes([rest[0], rest[1]]);
        let len = u16::from_be_bytes([rest[2], rest[3]]) as usize;
        if rest.len() < 4 + len {
            return Err(TlsError::Decode("truncated extension body"));
        }
        out.push(Extension::decode_one(ext_type, &rest[4..4 + len])?);
        rest = &rest[4 + len..];
    }
    Ok(out)
}

/// Find the session_ticket extension in a decoded list.
pub fn find_session_ticket(exts: &[Extension]) -> Option<&[u8]> {
    exts.iter().find_map(|e| match e {
        Extension::SessionTicket(t) => Some(t.as_slice()),
        _ => None,
    })
}

/// Find the SNI hostname in a decoded list.
pub fn find_server_name(exts: &[Extension]) -> Option<&str> {
    exts.iter().find_map(|e| match e {
        Extension::ServerName(n) => Some(n.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(exts: Vec<Extension>) -> Vec<Extension> {
        let mut buf = Vec::new();
        encode_extensions(&exts, &mut buf);
        decode_extensions(&buf).unwrap()
    }

    #[test]
    fn empty_block_roundtrip() {
        assert_eq!(roundtrip(vec![]), vec![]);
    }

    #[test]
    fn sni_roundtrip() {
        let exts = vec![Extension::ServerName("www.example.sim".into())];
        assert_eq!(roundtrip(exts.clone()), exts);
    }

    #[test]
    fn ticket_roundtrip_empty_and_full() {
        let exts = vec![Extension::SessionTicket(vec![])];
        assert_eq!(roundtrip(exts.clone()), exts);
        let exts = vec![Extension::SessionTicket(vec![1, 2, 3, 4])];
        assert_eq!(roundtrip(exts.clone()), exts);
    }

    #[test]
    fn groups_roundtrip() {
        let exts = vec![Extension::SupportedGroups(vec![0x001d, 0x0100])];
        assert_eq!(roundtrip(exts.clone()), exts);
    }

    #[test]
    fn unknown_preserved() {
        let exts = vec![Extension::Unknown {
            ext_type: 0xff01,
            data: vec![9, 9],
        }];
        assert_eq!(roundtrip(exts.clone()), exts);
    }

    #[test]
    fn mixed_extension_list_order_preserved() {
        let exts = vec![
            Extension::ServerName("a.sim".into()),
            Extension::SessionTicket(vec![]),
            Extension::SupportedGroups(vec![29]),
            Extension::Unknown {
                ext_type: 1234,
                data: vec![],
            },
        ];
        assert_eq!(roundtrip(exts.clone()), exts);
    }

    #[test]
    fn finders() {
        let exts = vec![
            Extension::ServerName("host.sim".into()),
            Extension::SessionTicket(vec![7, 7]),
        ];
        assert_eq!(find_server_name(&exts), Some("host.sim"));
        assert_eq!(find_session_ticket(&exts), Some(&[7u8, 7][..]));
        assert_eq!(find_server_name(&[]), None);
        assert_eq!(find_session_ticket(&[]), None);
    }

    #[test]
    fn malformed_blocks_rejected() {
        assert!(decode_extensions(&[0]).is_err(), "1-byte block");
        assert!(
            decode_extensions(&[0, 10, 0, 0]).is_err(),
            "length mismatch"
        );
        // Truncated extension body.
        let mut buf = Vec::new();
        encode_extensions(&[Extension::SessionTicket(vec![1, 2, 3])], &mut buf);
        buf.truncate(buf.len() - 1);
        buf[1] -= 1; // fix outer length so the inner body is short
        assert!(decode_extensions(&buf).is_err());
    }

    #[test]
    fn malformed_sni_rejected() {
        // server_name with wrong inner lengths.
        let bad = [0u8, 0, 0, 4, 0, 0, 0, 9]; // type 0, len 4, garbage
        assert!(decode_extensions(&{
            let mut b = vec![0, 8];
            b.extend_from_slice(&bad);
            b
        })
        .is_err());
    }
}
