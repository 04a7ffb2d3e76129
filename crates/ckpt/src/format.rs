//! The on-disk checkpoint format (v2): header line, checksum, raw
//! sections.
//!
//! A checkpoint file is a one-line canonical *header* followed by exactly
//! `length` payload bytes:
//!
//! ```text
//! {"version":2,"length":<decimal>,"checksum":"<16 hex digits>"}\n
//! <head JSON>\n<labels><energy trace><histograms>
//! ```
//!
//! The checksum is FNV-1a-64 over the payload bytes as they sit in the
//! file — nothing is escaped, so sealing and opening are one hash pass
//! each. The payload is a small one-line JSON *head* (caller meta,
//! [`StateBinding`], sweep cursor, kernel faults, fault-runtime record,
//! sink state, and the element count of each section) and then the bulk
//! state as raw little-endian sections in fixed order: the label plane
//! at one byte per site, the energy trace as 8-byte IEEE-754 bit
//! patterns, the mode histograms as 4-byte counts. Encoding is the head
//! plus `extend_from_slice`; decoding is bounds-checked slicing.
//!
//! Reads verify in trust order. The version comes first (any other
//! format — including the retired v1 envelope, which also opens with
//! `{"version":` — is [`CkptError::VersionMismatch`], never misparsed),
//! then the declared length against the bytes present (a short file is
//! [`CkptError::Truncated`]), then the checksum (bit rot is
//! [`CkptError::ChecksumMismatch`], never a confusing shape error), and
//! only then the state. Section counts are checked against the binding
//! (`sites`, `shard.owned`, `sites × labels`) and against the bytes
//! actually present *before* anything is allocated, so no declared
//! length can size an allocation beyond the file itself; a disagreement
//! is [`CkptError::State`]. Any other deviation from the canonical
//! header is [`CkptError::Malformed`] with the byte offset.
//!
//! There is one format and one reader: a v1 file is refused rather than
//! dual-read, because a checkpoint only ever serves the restart of the
//! build that wrote it, and a second decoder would be a second trust
//! boundary to fuzz for a file nobody can still need.
//!
//! Inside the head, `u64` seeds and fingerprints (and the one `f64`
//! fault rate) travel as 16-digit hex strings: the vendored serde routes
//! every JSON number through `f64` (see `third_party/serde/src/lib.rs`),
//! which corrupts integers above 2⁵³. Energies never touch JSON at all —
//! their raw bit patterns round-trip negative zero, infinities, and NaN
//! payloads exactly, which bit-identical resume requires.

use mogs_engine::{Degraded, FaultState, JobState, ShardBinding, StateBinding};
use mogs_gibbs::kernel::UnitFault;
use mogs_mrf::{fnv1a, Label};
use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};

use crate::error::CkptError;

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 2;

/// One durable checkpoint: the engine's captured [`JobState`] plus an
/// opaque caller blob (`mogs-serve` stores the original request JSON so
/// a recovery scan can rebuild the spec without a database).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Caller-owned context, stored and returned verbatim.
    pub meta: String,
    /// The engine's resumable state.
    pub state: JobState,
}

/// Encodes a checkpoint into its complete file bytes.
#[must_use]
pub fn encode(checkpoint: &Checkpoint) -> Vec<u8> {
    encode_parts(&checkpoint.meta, &checkpoint.state)
}

/// [`encode`] over borrowed parts, so the store's engine-facing writer
/// never clones a [`JobState`] just to frame it.
pub(crate) fn encode_parts(meta: &str, state: &JobState) -> Vec<u8> {
    let histograms = state.histograms.as_deref().unwrap_or(&[]);
    let mut head = String::with_capacity(512 + meta.len());
    write_head(meta, state, &mut head);
    let mut payload = head.into_bytes();
    payload.reserve(1 + state.labels.len() + 8 * state.energy_trace.len() + 4 * histograms.len());
    payload.push(b'\n');
    payload.extend_from_slice(&state.labels);
    for energy in &state.energy_trace {
        payload.extend_from_slice(&energy.to_bits().to_le_bytes());
    }
    for count in histograms {
        payload.extend_from_slice(&count.to_le_bytes());
    }
    seal(&payload)
}

/// Prefixes arbitrary payload bytes with the versioned, checksummed
/// header.
///
/// This is the header half of [`encode`], exposed so tests (and tools)
/// can seal payloads that are *not* valid checkpoints and prove the
/// decoder rejects them as [`CkptError::State`] rather than blaming the
/// header.
#[must_use]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{{\"version\":{FORMAT_VERSION},\"length\":{},\"checksum\":\"{:016x}\"}}\n",
        payload.len(),
        fnv1a(payload)
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes complete file bytes back into a checkpoint.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], [`CkptError::ChecksumMismatch`], or
/// [`CkptError::State`] — see the module docs for the verification
/// order.
pub fn decode(input: &[u8]) -> Result<Checkpoint, CkptError> {
    parse_payload(open_envelope(input)?)
}

/// Verifies the header (version, length, checksum) and returns the
/// payload bytes, borrowed from `input`, without decoding them.
///
/// # Errors
///
/// [`CkptError::Truncated`], [`CkptError::Malformed`],
/// [`CkptError::VersionMismatch`], or [`CkptError::ChecksumMismatch`].
pub fn open_envelope(input: &[u8]) -> Result<&[u8], CkptError> {
    let mut scan = Scan {
        bytes: input,
        pos: 0,
    };
    scan.lit(b"{\"version\":")?;
    let found = scan.digits()?;
    if found != u64::from(FORMAT_VERSION) {
        return Err(CkptError::VersionMismatch {
            found: u32::try_from(found).unwrap_or(u32::MAX),
            supported: FORMAT_VERSION,
        });
    }
    scan.lit(b",\"length\":")?;
    let length = scan.digits()?;
    scan.lit(b",\"checksum\":\"")?;
    let stored = scan.hex16()?;
    scan.lit(b"\"}\n")?;
    let payload = &input[scan.pos..];
    // The declared length is only ever compared, never allocated.
    let Some(extra) = usize::try_from(length)
        .ok()
        .and_then(|length| payload.len().checked_sub(length))
    else {
        return Err(CkptError::Truncated);
    };
    if extra > 0 {
        let offset = input.len() - extra;
        return Err(CkptError::Malformed { offset });
    }
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(CkptError::ChecksumMismatch {
            stored: format!("{stored:016x}"),
            computed: format!("{computed:016x}"),
        });
    }
    Ok(payload)
}

/// Checks that a decoded state belongs under `expected`'s spec facts.
///
/// The engine re-validates at [`Engine::resume`](mogs_engine::Engine),
/// but callers that want to *select* among checkpoints (the serve
/// recovery scan) use this to get the typed
/// [`CkptError::BindingMismatch`] without constructing a job.
///
/// # Errors
///
/// [`CkptError::BindingMismatch`] naming the first differing field.
pub fn verify_binding(state: &JobState, expected: &StateBinding) -> Result<(), CkptError> {
    state
        .binding
        .matches(expected)
        .map_err(|reason| CkptError::BindingMismatch { reason })
}

// ---------------------------------------------------------------------
// Header scanner: strict canonical layout, byte-accurate errors.
// ---------------------------------------------------------------------

struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Scan<'_> {
    /// `Truncated` at end of input, `Malformed` at the current byte.
    fn unexpected(&self) -> CkptError {
        if self.pos >= self.bytes.len() {
            CkptError::Truncated
        } else {
            CkptError::Malformed { offset: self.pos }
        }
    }

    /// Consumes `lit` exactly. A proper prefix at end-of-input is
    /// `Truncated`; any diverging byte is `Malformed` at its offset.
    fn lit(&mut self, lit: &[u8]) -> Result<(), CkptError> {
        for &want in lit {
            if self.bytes.get(self.pos) != Some(&want) {
                return Err(self.unexpected());
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// A non-empty run of ASCII digits that fits a `u64`.
    fn digits(&mut self) -> Result<u64, CkptError> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(digit) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit - b'0')))
                .ok_or(CkptError::Malformed { offset: start })?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.unexpected());
        }
        Ok(value)
    }

    /// Exactly 16 hex digits.
    fn hex16(&mut self) -> Result<u64, CkptError> {
        let mut value = 0u64;
        for _ in 0..16 {
            let digit = self
                .bytes
                .get(self.pos)
                .and_then(|&b| char::from(b).to_digit(16))
                .ok_or_else(|| self.unexpected())?;
            value = (value << 4) | u64::from(digit);
            self.pos += 1;
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------
// Payload codec: JSON head (vendored-serde Parser) + raw sections.
// ---------------------------------------------------------------------

fn state_error(reason: impl ToString) -> CkptError {
    CkptError::State {
        reason: reason.to_string(),
    }
}

fn parse_payload(payload: &[u8]) -> Result<Checkpoint, CkptError> {
    let split = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| state_error("payload has no head line"))?;
    let head = std::str::from_utf8(&payload[..split])
        .map_err(|_| state_error("payload head is not UTF-8"))?;
    let mut parser = Parser::new(head);
    let (mut checkpoint, counts) = parse_head(&mut parser).map_err(state_error)?;
    parser.expect_end().map_err(state_error)?;
    counts.seat(&payload[split + 1..], &mut checkpoint.state)?;
    Ok(checkpoint)
}

/// Element counts of the raw sections, as declared by the head.
struct SectionCounts {
    labels: usize,
    energy_trace: usize,
    histograms: Option<usize>,
}

impl SectionCounts {
    /// Checks the declared counts against the binding and against the
    /// bytes actually present — before allocating anything — then
    /// slices the sections into `state`.
    fn seat(&self, sections: &[u8], state: &mut JobState) -> Result<(), CkptError> {
        let binding = &state.binding;
        let want_labels = binding.shard.map_or(binding.sites, |shard| shard.owned);
        if self.labels != want_labels {
            return Err(state_error(format!(
                "label section holds {} sites, the binding covers {want_labels}",
                self.labels
            )));
        }
        if let Some(histograms) = self.histograms {
            if Some(histograms) != binding.sites.checked_mul(binding.labels) {
                return Err(state_error(format!(
                    "histogram section holds {histograms} counts, the binding has {} sites x {} labels",
                    binding.sites, binding.labels
                )));
            }
        }
        let energy_bytes = self.energy_trace.checked_mul(8);
        let histogram_bytes = self.histograms.unwrap_or(0).checked_mul(4);
        let declared = energy_bytes
            .zip(histogram_bytes)
            .and_then(|(e, h)| self.labels.checked_add(e)?.checked_add(h));
        if declared != Some(sections.len()) {
            return Err(state_error(format!(
                "sections declare {} labels + {} energies + {:?} counts, the payload carries {} bytes",
                self.labels,
                self.energy_trace,
                self.histograms,
                sections.len()
            )));
        }
        let (labels, rest) = sections.split_at(self.labels);
        let (energies, counts) = rest.split_at(self.energy_trace * 8);
        state.labels = labels.to_vec();
        state.energy_trace = energies
            .as_chunks::<8>()
            .0
            .iter()
            .map(|word| f64::from_bits(u64::from_le_bytes(*word)))
            .collect();
        state.histograms = self.histograms.map(|_| {
            let words = counts.as_chunks::<4>().0;
            words.iter().map(|word| u32::from_le_bytes(*word)).collect()
        });
        Ok(())
    }
}

fn push_hex_u64(out: &mut String, value: u64) {
    out.push('"');
    out.push_str(&format!("{value:016x}"));
    out.push('"');
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

/// `null`, or whatever `parse` reads.
fn parse_nullable<T>(
    parser: &mut Parser<'_>,
    parse: impl FnOnce(&mut Parser<'_>) -> Result<T, de::Error>,
) -> Result<Option<T>, de::Error> {
    if parser.consume_literal("null") {
        Ok(None)
    } else {
        parse(parser).map(Some)
    }
}

fn parse_array<T>(
    parser: &mut Parser<'_>,
    mut parse: impl FnMut(&mut Parser<'_>) -> Result<T, de::Error>,
) -> Result<Vec<T>, de::Error> {
    parser.expect_char('[')?;
    let mut out = Vec::new();
    if parser.consume_char(']') {
        return Ok(out);
    }
    loop {
        out.push(parse(parser)?);
        if !parser.consume_char(',') {
            parser.expect_char(']')?;
            return Ok(out);
        }
    }
}

fn write_head(meta: &str, state: &JobState, out: &mut String) {
    out.push_str("{\"meta\":");
    meta.serialize_json(out);
    out.push_str(",\"binding\":");
    write_binding(&state.binding, out);
    out.push_str(",\"next_sweep\":");
    state.next_sweep.serialize_json(out);
    out.push_str(",\"kernel_faults\":[");
    for (i, fault) in state.kernel_faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_fault(out, fault.as_ref());
    }
    out.push_str("],\"fault\":");
    match &state.fault {
        None => out.push_str("null"),
        Some(fault) => write_fault_state(fault, out),
    }
    out.push_str(",\"sink_state\":");
    state.sink_state.serialize_json(out);
    out.push_str(",\"sections\":{\"labels\":");
    state.labels.len().serialize_json(out);
    out.push_str(",\"energy_trace\":");
    state.energy_trace.len().serialize_json(out);
    out.push_str(",\"histograms\":");
    state.histograms.as_ref().map(Vec::len).serialize_json(out);
    out.push_str("}}");
}

/// Parses the head into a checkpoint whose bulk fields (`labels`,
/// `energy_trace`, `histograms`) are still empty, plus the section
/// counts [`SectionCounts::seat`] fills them from.
fn parse_head(parser: &mut Parser<'_>) -> Result<(Checkpoint, SectionCounts), de::Error> {
    let mut meta: Option<String> = None;
    let mut binding: Option<StateBinding> = None;
    let mut next_sweep: Option<usize> = None;
    let mut kernel_faults: Option<Vec<Option<UnitFault>>> = None;
    let mut fault: Option<Option<FaultState>> = None;
    let mut sink_state: Option<Option<String>> = None;
    let mut sections: Option<SectionCounts> = None;
    parse_object(parser, |key, parser| {
        match key {
            "meta" => meta = Some(parser.parse_string()?),
            "binding" => binding = Some(parse_binding(parser)?),
            "next_sweep" => next_sweep = Some(usize::deserialize_json(parser)?),
            "kernel_faults" => kernel_faults = Some(parse_array(parser, parse_fault)?),
            "fault" => fault = Some(parse_nullable(parser, parse_fault_state)?),
            "sink_state" => sink_state = Some(Option::deserialize_json(parser)?),
            "sections" => sections = Some(parse_sections(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let state = JobState {
        binding: binding.ok_or_else(|| parser.error("head: binding"))?,
        next_sweep: next_sweep.ok_or_else(|| parser.error("head: next_sweep"))?,
        labels: Vec::new(),
        energy_trace: Vec::new(),
        histograms: None,
        kernel_faults: kernel_faults.ok_or_else(|| parser.error("head: kernel_faults"))?,
        fault: fault.ok_or_else(|| parser.error("head: fault"))?,
        sink_state: sink_state.ok_or_else(|| parser.error("head: sink_state"))?,
    };
    let meta = meta.ok_or_else(|| parser.error("head: meta"))?;
    let sections = sections.ok_or_else(|| parser.error("head: sections"))?;
    Ok((Checkpoint { meta, state }, sections))
}

fn parse_sections(parser: &mut Parser<'_>) -> Result<SectionCounts, de::Error> {
    let mut labels: Option<usize> = None;
    let mut energy_trace: Option<usize> = None;
    let mut histograms: Option<Option<usize>> = None;
    parse_object(parser, |key, parser| {
        match key {
            "labels" => labels = Some(usize::deserialize_json(parser)?),
            "energy_trace" => energy_trace = Some(usize::deserialize_json(parser)?),
            "histograms" => histograms = Some(Option::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(SectionCounts {
        labels: labels.ok_or_else(|| parser.error("sections: labels"))?,
        energy_trace: energy_trace.ok_or_else(|| parser.error("sections: energy_trace"))?,
        histograms: histograms.ok_or_else(|| parser.error("sections: histograms"))?,
    })
}

fn write_binding(binding: &StateBinding, out: &mut String) {
    out.push_str("{\"sites\":");
    binding.sites.serialize_json(out);
    out.push_str(",\"width\":");
    binding.width.serialize_json(out);
    out.push_str(",\"height\":");
    binding.height.serialize_json(out);
    out.push_str(",\"labels\":");
    binding.labels.serialize_json(out);
    out.push_str(",\"iterations\":");
    binding.iterations.serialize_json(out);
    out.push_str(",\"burn_in\":");
    binding.burn_in.serialize_json(out);
    out.push_str(",\"threads\":");
    binding.threads.serialize_json(out);
    out.push_str(",\"seed\":");
    push_hex_u64(out, binding.seed);
    out.push_str(",\"fingerprint\":");
    push_hex_u64(out, binding.fingerprint);
    out.push_str(",\"kernel\":");
    binding.kernel.serialize_json(out);
    out.push_str(",\"track_modes\":");
    binding.track_modes.serialize_json(out);
    out.push_str(",\"record_energy\":");
    binding.record_energy.serialize_json(out);
    if let Some(shard) = &binding.shard {
        // Emitted only for shard-granular fleet states.
        out.push_str(",\"shard\":{\"shard\":");
        shard.shard.serialize_json(out);
        out.push_str(",\"of\":");
        shard.of.serialize_json(out);
        out.push_str(",\"owned\":");
        shard.owned.serialize_json(out);
        out.push_str(",\"sites_digest\":");
        push_hex_u64(out, shard.sites_digest);
        out.push('}');
    }
    out.push('}');
}

fn parse_shard_binding(parser: &mut Parser<'_>) -> Result<ShardBinding, de::Error> {
    let mut shard: Option<usize> = None;
    let mut of: Option<usize> = None;
    let mut owned: Option<usize> = None;
    let mut sites_digest: Option<u64> = None;
    parse_object(parser, |key, parser| {
        match key {
            "shard" => shard = Some(usize::deserialize_json(parser)?),
            "of" => of = Some(usize::deserialize_json(parser)?),
            "owned" => owned = Some(usize::deserialize_json(parser)?),
            "sites_digest" => sites_digest = Some(parse_hex_u64(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(ShardBinding {
        shard: shard.ok_or_else(|| parser.error("shard binding: shard"))?,
        of: of.ok_or_else(|| parser.error("shard binding: of"))?,
        owned: owned.ok_or_else(|| parser.error("shard binding: owned"))?,
        sites_digest: sites_digest.ok_or_else(|| parser.error("shard binding: sites_digest"))?,
    })
}

fn parse_binding(parser: &mut Parser<'_>) -> Result<StateBinding, de::Error> {
    let mut sites: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut height: Option<usize> = None;
    let mut labels: Option<usize> = None;
    let mut iterations: Option<usize> = None;
    let mut burn_in: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut fingerprint: Option<u64> = None;
    let mut kernel: Option<String> = None;
    let mut track_modes: Option<bool> = None;
    let mut record_energy: Option<bool> = None;
    let mut shard: Option<ShardBinding> = None;
    parse_object(parser, |key, parser| {
        match key {
            "sites" => sites = Some(usize::deserialize_json(parser)?),
            "width" => width = Some(usize::deserialize_json(parser)?),
            "height" => height = Some(usize::deserialize_json(parser)?),
            "labels" => labels = Some(usize::deserialize_json(parser)?),
            "iterations" => iterations = Some(usize::deserialize_json(parser)?),
            "burn_in" => burn_in = Some(usize::deserialize_json(parser)?),
            "threads" => threads = Some(usize::deserialize_json(parser)?),
            "seed" => seed = Some(parse_hex_u64(parser)?),
            "fingerprint" => fingerprint = Some(parse_hex_u64(parser)?),
            "kernel" => kernel = Some(String::deserialize_json(parser)?),
            "track_modes" => track_modes = Some(bool::deserialize_json(parser)?),
            "record_energy" => record_energy = Some(bool::deserialize_json(parser)?),
            "shard" => shard = Some(parse_shard_binding(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(StateBinding {
        sites: sites.ok_or_else(|| parser.error("binding: sites"))?,
        width: width.ok_or_else(|| parser.error("binding: width"))?,
        height: height.ok_or_else(|| parser.error("binding: height"))?,
        labels: labels.ok_or_else(|| parser.error("binding: labels"))?,
        iterations: iterations.ok_or_else(|| parser.error("binding: iterations"))?,
        burn_in: burn_in.ok_or_else(|| parser.error("binding: burn_in"))?,
        threads: threads.ok_or_else(|| parser.error("binding: threads"))?,
        seed: seed.ok_or_else(|| parser.error("binding: seed"))?,
        fingerprint: fingerprint.ok_or_else(|| parser.error("binding: fingerprint"))?,
        kernel: kernel.ok_or_else(|| parser.error("binding: kernel"))?,
        track_modes: track_modes.ok_or_else(|| parser.error("binding: track_modes"))?,
        record_energy: record_energy.ok_or_else(|| parser.error("binding: record_energy"))?,
        // Present only on shard-granular states: default, not required.
        shard,
    })
}

fn write_fault(out: &mut String, fault: Option<&UnitFault>) {
    match fault {
        None => out.push_str("null"),
        Some(UnitFault::Dead) => out.push_str("{\"kind\":\"dead\"}"),
        Some(UnitFault::Stuck(label)) => {
            out.push_str("{\"kind\":\"stuck\",\"label\":");
            label.value().serialize_json(out);
            out.push('}');
        }
        Some(UnitFault::DarkCount { rate_per_ns }) => {
            out.push_str("{\"kind\":\"dark\",\"rate\":");
            push_hex_u64(out, rate_per_ns.to_bits());
            out.push('}');
        }
    }
}

fn parse_fault(parser: &mut Parser<'_>) -> Result<Option<UnitFault>, de::Error> {
    if parser.consume_literal("null") {
        return Ok(None);
    }
    let mut kind: Option<String> = None;
    let mut label: Option<u8> = None;
    let mut rate: Option<f64> = None;
    parse_object(parser, |key, parser| {
        match key {
            "kind" => kind = Some(String::deserialize_json(parser)?),
            "label" => label = Some(u8::deserialize_json(parser)?),
            "rate" => rate = Some(f64::from_bits(parse_hex_u64(parser)?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match kind.as_deref() {
        Some("dead") => Ok(Some(UnitFault::Dead)),
        Some("stuck") => {
            let value = label.ok_or_else(|| parser.error("stuck fault: label"))?;
            let label = Label::try_new(value)
                .map_err(|_| parser.error("stuck fault: label does not fit in 6 bits"))?;
            Ok(Some(UnitFault::Stuck(label)))
        }
        Some("dark") => {
            let rate_per_ns = rate.ok_or_else(|| parser.error("dark fault: rate"))?;
            Ok(Some(UnitFault::DarkCount { rate_per_ns }))
        }
        _ => Err(parser.error("fault kind must be 'dead', 'stuck', or 'dark'")),
    }
}

fn write_fault_state(fault: &FaultState, out: &mut String) {
    out.push_str("{\"cursor\":");
    fault.cursor.serialize_json(out);
    out.push_str(",\"quarantined\":");
    fault.quarantined.serialize_json(out);
    out.push_str(",\"degraded\":");
    match &fault.degraded {
        None => out.push_str("null"),
        Some(degraded) => {
            out.push_str("{\"failed_over_at\":");
            degraded.failed_over_at.serialize_json(out);
            out.push_str(",\"units_lost\":");
            degraded.units_lost.serialize_json(out);
            out.push('}');
        }
    }
    out.push_str(",\"poisoned\":");
    fault.poisoned.serialize_json(out);
    out.push('}');
}

fn parse_fault_state(parser: &mut Parser<'_>) -> Result<FaultState, de::Error> {
    let mut cursor: Option<usize> = None;
    let mut quarantined: Option<Vec<bool>> = None;
    let mut degraded: Option<Option<Degraded>> = None;
    let mut poisoned: Option<bool> = None;
    parse_object(parser, |key, parser| {
        match key {
            "cursor" => cursor = Some(usize::deserialize_json(parser)?),
            "quarantined" => quarantined = Some(Vec::deserialize_json(parser)?),
            "degraded" => degraded = Some(parse_nullable(parser, parse_degraded)?),
            "poisoned" => poisoned = Some(bool::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(FaultState {
        cursor: cursor.ok_or_else(|| parser.error("fault state: cursor"))?,
        quarantined: quarantined.ok_or_else(|| parser.error("fault state: quarantined"))?,
        degraded: degraded.ok_or_else(|| parser.error("fault state: degraded"))?,
        poisoned: poisoned.ok_or_else(|| parser.error("fault state: poisoned"))?,
    })
}

fn parse_degraded(parser: &mut Parser<'_>) -> Result<Degraded, de::Error> {
    let mut failed_over_at: Option<usize> = None;
    let mut units_lost: Option<usize> = None;
    parse_object(parser, |key, parser| {
        match key {
            "failed_over_at" => failed_over_at = Some(usize::deserialize_json(parser)?),
            "units_lost" => units_lost = Some(usize::deserialize_json(parser)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Degraded {
        failed_over_at: failed_over_at.ok_or_else(|| parser.error("degraded: failed_over_at"))?,
        units_lost: units_lost.ok_or_else(|| parser.error("degraded: units_lost"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole-plane state with every optional record present.
    fn demo_state() -> JobState {
        JobState {
            binding: StateBinding {
                sites: 12,
                width: 4,
                height: 3,
                labels: 3,
                iterations: 10,
                burn_in: 2,
                threads: 2,
                seed: 0xDEAD_BEEF_CAFE_F00D,
                fingerprint: u64::MAX - 5,
                kernel: "rsu-pool\"escaped\"".to_string(),
                track_modes: true,
                record_energy: true,
                shard: None,
            },
            next_sweep: 4,
            labels: vec![0, 1, 2, 1, 0, 2, 2, 1, 0, 0, 1, 2],
            energy_trace: vec![-14.25, 3.5e-300, 0.0, 7.0],
            histograms: Some((0..36).map(|i| i * 0x0101_0101).collect()),
            kernel_faults: vec![
                None,
                Some(UnitFault::Dead),
                Some(UnitFault::Stuck(Label::new(2))),
                Some(UnitFault::DarkCount { rate_per_ns: 0.125 }),
            ],
            fault: Some(FaultState {
                cursor: 3,
                quarantined: vec![false, true, false, false],
                degraded: Some(Degraded {
                    failed_over_at: 3,
                    units_lost: 2,
                }),
                poisoned: false,
            }),
            sink_state: Some("v=1;ring=\n3ff0000000000000".to_string()),
        }
    }

    fn demo_bytes() -> Vec<u8> {
        encode(&Checkpoint {
            meta: "m\n\"eta\"".to_string(),
            state: demo_state(),
        })
    }

    #[test]
    fn round_trips_a_fully_populated_checkpoint() {
        let original = Checkpoint {
            meta: "{\"tenant\":\"acme\"}".to_string(),
            state: demo_state(),
        };
        let encoded = encode(&original);
        let decoded = decode(&encoded).expect("canonical file decodes");
        assert_eq!(decoded, original);
        // Header line, head line, then exactly the raw sections.
        let payload = open_envelope(&encoded).expect("opens");
        let head_len = payload.iter().position(|&b| b == b'\n').expect("head") + 1;
        assert_eq!(payload.len() - head_len, 12 + 4 * 8 + 36 * 4);
    }

    #[test]
    fn non_finite_energies_round_trip_bitwise() {
        let mut state = demo_state();
        state.energy_trace = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let encoded = encode(&Checkpoint {
            meta: String::new(),
            state,
        });
        let decoded = decode(&encoded).expect("decodes");
        let bits: Vec<u64> = decoded
            .state
            .energy_trace
            .iter()
            .map(|e| e.to_bits())
            .collect();
        assert_eq!(
            bits,
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0].map(f64::to_bits),
            "raw bit patterns preserve every f64 payload"
        );
        // NaN defeats `PartialEq`; byte-identical re-encoding does not.
        assert_eq!(encode(&decoded), encoded);
    }

    #[test]
    fn version_is_checked_before_anything_else() {
        // Bump the version digit and tear the payload; the length and
        // checksum are now both wrong, but the reader must report the
        // version, not either of them.
        let mut bumped = demo_bytes();
        assert_eq!(bumped[11], b'2');
        bumped[11] = b'3';
        bumped.truncate(bumped.len() / 2);
        assert_eq!(
            decode(&bumped).expect_err("future version is rejected"),
            CkptError::VersionMismatch {
                found: 3,
                supported: 2
            }
        );
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        let encoded = demo_bytes();
        for end in 0..encoded.len() {
            let err = decode(&encoded[..end]).expect_err("prefix cannot decode");
            assert_eq!(
                err,
                CkptError::Truncated,
                "prefix of {end} bytes misdiagnosed"
            );
        }
    }

    #[test]
    fn garbage_is_malformed_at_the_right_offset() {
        let err = decode(b"not a checkpoint").expect_err("garbage rejected");
        assert_eq!(err, CkptError::Malformed { offset: 0 });
        let err = decode(b"{\"version\":x}").expect_err("non-digit version");
        assert_eq!(err, CkptError::Malformed { offset: 11 });
        // Bytes past the declared length are not silently ignored.
        let mut trailing = demo_bytes();
        let end = trailing.len();
        trailing.push(b'\n');
        let err = decode(&trailing).expect_err("trailing byte rejected");
        assert_eq!(err, CkptError::Malformed { offset: end });
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let mut corrupted = demo_bytes();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x40;
        let err = decode(&corrupted).expect_err("corrupted payload rejected");
        assert_eq!(err.variant(), "checksum-mismatch");
    }

    #[test]
    fn sealed_garbage_payload_is_a_state_error() {
        // A valid header around a payload that is not a checkpoint: the
        // header layer must pass and the payload layer must name the
        // problem.
        let err = decode(&seal(b"{\"meta\":\"x\"}\n")).expect_err("incomplete head");
        let CkptError::State { reason } = err else {
            panic!("expected a state error, got {err}");
        };
        assert!(
            reason.contains("binding"),
            "reason names the field: {reason}"
        );
        for payload in [&b"no head line"[..], b"\xff\xfe\n", b"\n", b""] {
            assert_eq!(
                decode(&seal(payload)).expect_err("garbage").variant(),
                "state"
            );
        }
    }

    #[test]
    fn binding_verification_names_the_field() {
        let state = demo_state();
        let mut expected = state.binding.clone();
        expected.fingerprint ^= 1;
        let err = verify_binding(&state, &expected).expect_err("fingerprints differ");
        assert_eq!(err.variant(), "binding-mismatch");
        assert!(err.to_string().contains("fingerprint"), "err: {err}");
        assert!(verify_binding(&state, &state.binding).is_ok());
    }
}
