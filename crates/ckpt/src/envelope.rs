//! The workspace's one reader for "a small JSON head of scalars, then
//! raw little-endian sections".
//!
//! Checkpoint payloads and fleet frames share the layout:
//!
//! ```text
//! <head JSON>\n<section 0><section 1>…
//! ```
//!
//! The head is one line of JSON holding scalars and the element count of
//! every section; the sections follow in the order the head declares
//! them, with no separators. Bulk bytes never travel inside the JSON.
//! [`split_head`] cuts the head line off — refusing one that runs past
//! the caller's cap before it is UTF-8-checked or parsed — and
//! [`Sections`] hands out the raw sections front to back, comparing each
//! declared count against the bytes present before anything is sized by
//! it. [`parse_object`] and [`parse_hex_u64`] are the head's two JSON
//! helpers. Every failure is a [`SectionError`], which each caller maps
//! to its own type (`CkptError::State`, `FleetError::Protocol`).

use serde::de::{self, Parser};

/// Why a payload's head line or sections could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionError {
    /// What the reader refused.
    pub reason: String,
}

fn refuse(reason: String) -> SectionError {
    SectionError { reason }
}

/// Splits a payload into its head line and the raw sections after it.
/// The head line, its newline included, must end within the first
/// `limit` bytes; only then is it checked for UTF-8.
///
/// # Errors
///
/// A [`SectionError`] when no newline ends the head within `limit`
/// bytes or the head is not UTF-8.
pub fn split_head(payload: &[u8], limit: usize) -> Result<(&str, Sections<'_>), SectionError> {
    let window = &payload[..payload.len().min(limit)];
    let Some(split) = window.iter().position(|&b| b == b'\n') else {
        return Err(refuse(if payload.len() >= limit {
            format!("the payload head runs past {limit} bytes")
        } else {
            "the payload has no head line".to_string()
        }));
    };
    let head = std::str::from_utf8(&payload[..split])
        .map_err(|_| refuse("the payload head is not UTF-8".to_string()))?;
    Ok((head, Sections(&payload[split + 1..])))
}

/// The raw sections after a head line, consumed front to back.
#[derive(Debug)]
pub struct Sections<'a>(&'a [u8]);

impl<'a> Sections<'a> {
    /// Takes `count` elements of `width` bytes. The declared count is
    /// only ever compared against the bytes present, never allocated.
    ///
    /// # Errors
    ///
    /// A [`SectionError`] when `count × width` overflows or exceeds the
    /// bytes left.
    pub fn take(&mut self, count: usize, width: usize) -> Result<&'a [u8], SectionError> {
        let bytes = count
            .checked_mul(width)
            .filter(|&bytes| bytes <= self.0.len())
            .ok_or_else(|| {
                refuse(format!(
                    "sections declare {count} x {width} bytes, the payload has {} left",
                    self.0.len()
                ))
            })?;
        let (section, rest) = self.0.split_at(bytes);
        self.0 = rest;
        Ok(section)
    }

    /// Requires every byte to have been taken.
    ///
    /// # Errors
    ///
    /// A [`SectionError`] naming the trailing bytes.
    pub fn finish(self) -> Result<(), SectionError> {
        if self.0.is_empty() {
            return Ok(());
        }
        Err(refuse(format!(
            "sections declare {} bytes fewer than the payload carries",
            self.0.len()
        )))
    }
}

/// Parses a `u64` carried as a 16-digit hex string — the workspace's one
/// reader for integers the vendored JSON layer cannot carry as numbers.
///
/// # Errors
///
/// A parse error unless the next value is a string of exactly 16 hex
/// digits.
pub fn parse_hex_u64(parser: &mut Parser<'_>) -> Result<u64, de::Error> {
    let hex = parser.parse_string()?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(parser.error("expected a 16-digit hex string"));
    }
    u64::from_str_radix(&hex, 16).map_err(|_| parser.error("expected a 16-digit hex string"))
}

/// Walks one JSON object, handing each key to `field` with the parser
/// positioned at its value. Keys `field` declines (returns `false`) are
/// skipped, so a reader tolerates head fields it does not know.
///
/// # Errors
///
/// A parse error on malformed JSON, or whatever `field` returns.
pub fn parse_object(
    parser: &mut Parser<'_>,
    mut field: impl FnMut(&str, &mut Parser<'_>) -> Result<bool, de::Error>,
) -> Result<(), de::Error> {
    parser.expect_char('{')?;
    if parser.consume_char('}') {
        return Ok(());
    }
    loop {
        let key = parser.parse_string()?;
        parser.expect_char(':')?;
        if !field(&key, parser)? {
            parser.skip_value()?;
        }
        if !parser.consume_char(',') {
            return parser.expect_char('}');
        }
    }
}
