//! Exporters: span-tree rendering, trace summaries, and JSON-lines.
//!
//! All exporters consume a flat `&[Event]` slice (as produced by
//! [`RingBufferObserver::events`](crate::RingBufferObserver::events)) and
//! are tolerant of truncated traces: a ring buffer that wrapped may have
//! lost the starts of old spans, and the renderers degrade gracefully.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::event::{CostSnapshot, Event, EventKind, SpanId, SpanStatus, ROOT_SPAN};

/// Renders a trace as an indented span tree, one line per event.
///
/// Span starts open an indent level, span ends close it (annotated with
/// status and cost), points render as `•` leaves. Events whose span start
/// was lost to ring-buffer wraparound render at the root level.
#[must_use]
pub fn render_span_tree(events: &[Event]) -> String {
    let mut out = String::new();
    // Depth of each known open span; root is depth 0.
    let mut depth: BTreeMap<SpanId, usize> = BTreeMap::new();
    depth.insert(ROOT_SPAN, 0);
    for event in events {
        match &event.kind {
            EventKind::SpanStart { kind } => {
                let d = depth.get(&event.parent).copied().unwrap_or(0);
                depth.insert(event.span, d + 1);
                let _ = writeln!(
                    out,
                    "{:indent$}▶ {} [span {} @{}]",
                    "",
                    kind.label(),
                    event.span,
                    event.clock,
                    indent = d * 2
                );
            }
            EventKind::SpanEnd { status, cost } => {
                let d = depth.remove(&event.span).map_or(0, |d| d.saturating_sub(1));
                let _ = writeln!(
                    out,
                    "{:indent$}◀ {} [span {} @{}] ticks={} fuel={} inv={}",
                    "",
                    status.label(),
                    event.span,
                    event.clock,
                    cost.virtual_ns,
                    cost.work_units,
                    cost.invocations,
                    indent = d * 2
                );
            }
            EventKind::Point(point) => {
                let d = depth.get(&event.span).copied().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:indent$}• {} @{}",
                    "",
                    point.name(),
                    event.clock,
                    indent = d * 2
                );
            }
        }
    }
    out
}

/// Aggregate view of a trace: event/span counts, verdict tallies, failure
/// and point breakdowns, and total cost across top-level spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events summarized.
    pub events: usize,
    /// Spans that both started and ended inside the trace.
    pub spans_closed: usize,
    /// Spans started but never ended (trace truncated or still running).
    pub spans_open: usize,
    /// Accepted adjudications (from span statuses and verdict points).
    pub accepted: usize,
    /// Rejected adjudications, keyed by rejection reason.
    pub rejected: BTreeMap<&'static str, usize>,
    /// Failed spans, keyed by failure kind.
    pub failed: BTreeMap<&'static str, usize>,
    /// Point events, keyed by point name.
    pub points: BTreeMap<&'static str, usize>,
    /// Summed cost of spans that ended with no enclosing span in-trace
    /// (i.e. the roots actually covered by this trace).
    pub total_cost: CostSnapshot,
}

impl TraceSummary {
    /// Summarizes a flat event slice.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut summary = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let mut open: BTreeMap<SpanId, SpanId> = BTreeMap::new(); // span -> parent
        for event in events {
            match &event.kind {
                EventKind::SpanStart { .. } => {
                    open.insert(event.span, event.parent);
                }
                EventKind::SpanEnd { status, cost } => {
                    let parent = open.remove(&event.span);
                    if parent.is_some() {
                        summary.spans_closed += 1;
                    }
                    // Only roots (parent not itself inside an open span we
                    // know about) contribute to the total, so nested costs
                    // are not double counted.
                    let parent_open = parent.is_some_and(|p| open.contains_key(&p));
                    if !parent_open {
                        summary.total_cost.work_units += cost.work_units;
                        summary.total_cost.virtual_ns += cost.virtual_ns;
                        summary.total_cost.invocations += cost.invocations;
                        summary.total_cost.design_cost += cost.design_cost;
                    }
                    match status {
                        SpanStatus::Accepted { .. } => summary.accepted += 1,
                        SpanStatus::Rejected { reason } => {
                            *summary.rejected.entry(reason).or_insert(0) += 1;
                        }
                        SpanStatus::Failed { kind } => {
                            *summary.failed.entry(kind).or_insert(0) += 1;
                        }
                        SpanStatus::Ok | SpanStatus::Trial { .. } => {}
                    }
                }
                EventKind::Point(point) => {
                    *summary.points.entry(leak_free_name(point)).or_insert(0) += 1;
                }
            }
        }
        summary.spans_open = open.len();
        summary
    }
}

/// `Point::name()` returns `&'static str` for every builtin point; custom
/// points carry their own static name. This helper just documents that no
/// leaking is involved.
fn leak_free_name(point: &crate::event::Point) -> &'static str {
    point.name()
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events, {} spans closed, {} open",
            self.events, self.spans_closed, self.spans_open
        )?;
        writeln!(
            f,
            "cost:  ticks={} fuel={} invocations={} design={:.1}",
            self.total_cost.virtual_ns,
            self.total_cost.work_units,
            self.total_cost.invocations,
            self.total_cost.design_cost
        )?;
        write!(f, "adjudication: {} accepted", self.accepted)?;
        for (reason, n) in &self.rejected {
            write!(f, ", {n} rejected ({reason})")?;
        }
        for (kind, n) in &self.failed {
            write!(f, ", {n} failed ({kind})")?;
        }
        writeln!(f)?;
        if !self.points.is_empty() {
            write!(f, "points:")?;
            for (name, n) in &self.points {
                write!(f, " {name}={n}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Convenience: summarize and render in one call (what `--trace` prints).
#[must_use]
pub fn summary(events: &[Event]) -> String {
    TraceSummary::from_events(events).to_string()
}

pub use self::jsonl::{
    event_from_json, event_to_json, from_jsonl, to_jsonl, validate_json, write_event_json,
    ParseError,
};

mod jsonl {
    //! Hand-rolled JSON-lines serialization (the workspace builds offline,
    //! with no real serde available; the output is plain JSON regardless).

    use std::fmt::Write as _;

    use crate::event::{CostSnapshot, Event, EventKind, Point, SpanKind, SpanStatus};
    use crate::intern::Symbol;

    fn escape(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn span_kind_json(kind: &SpanKind, out: &mut String) {
        match kind {
            SpanKind::Trial { index, seed } => {
                let _ = write!(out, "{{\"trial\":{{\"index\":{index},\"seed\":{seed}}}}}");
            }
            SpanKind::Technique { name } => {
                out.push_str("{\"technique\":");
                escape(name, out);
                out.push('}');
            }
            SpanKind::Pattern { name } => {
                out.push_str("{\"pattern\":");
                escape(name, out);
                out.push('}');
            }
            SpanKind::Variant { name } => {
                out.push_str("{\"variant\":");
                escape(name.resolve(), out);
                out.push('}');
            }
            SpanKind::Scope { name } => {
                out.push_str("{\"scope\":");
                escape(name, out);
                out.push('}');
            }
        }
    }

    fn status_json(status: &SpanStatus, out: &mut String) {
        match status {
            SpanStatus::Ok => out.push_str("{\"ok\":true}"),
            SpanStatus::Accepted { support, dissent } => {
                let _ = write!(
                    out,
                    "{{\"accepted\":{{\"support\":{support},\"dissent\":{dissent}}}}}"
                );
            }
            SpanStatus::Rejected { reason } => {
                out.push_str("{\"rejected\":");
                escape(reason, out);
                out.push('}');
            }
            SpanStatus::Failed { kind } => {
                out.push_str("{\"failed\":");
                escape(kind, out);
                out.push('}');
            }
            SpanStatus::Trial { disposition } => {
                out.push_str("{\"trial\":");
                escape(disposition, out);
                out.push('}');
            }
        }
    }

    fn point_json(point: &Point, out: &mut String) {
        out.push_str("{\"name\":");
        escape(point.name(), out);
        match point {
            Point::Verdict {
                accepted,
                support,
                dissent,
                rejection,
            } => {
                let _ = write!(
                    out,
                    ",\"accepted\":{accepted},\"support\":{support},\"dissent\":{dissent}"
                );
                if let Some(reason) = rejection {
                    out.push_str(",\"rejection\":");
                    escape(reason, out);
                }
            }
            Point::FuelExhausted { consumed } => {
                let _ = write!(out, ",\"consumed\":{consumed}");
            }
            Point::Checkpoint { label } | Point::Rollback { label } => {
                out.push_str(",\"label\":");
                escape(label, out);
            }
            Point::Rejuvenation { age_before } => {
                let _ = write!(out, ",\"age_before\":{age_before}");
            }
            Point::Reboot { component, depth } => {
                out.push_str(",\"component\":");
                escape(component.resolve(), out);
                let _ = write!(out, ",\"depth\":{depth}");
            }
            Point::ServiceRebind {
                interface,
                from,
                to,
            } => {
                out.push_str(",\"interface\":");
                escape(interface.resolve(), out);
                out.push_str(",\"from\":");
                escape(from.resolve(), out);
                out.push_str(",\"to\":");
                escape(to.resolve(), out);
            }
            Point::Reexpression { name, attempt } => {
                out.push_str(",\"reexpression\":");
                escape(name.resolve(), out);
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            Point::Perturbation { knob, attempt } => {
                out.push_str(",\"knob\":");
                escape(knob, out);
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            Point::GpGeneration {
                generation,
                best_fitness,
            } => {
                let _ = write!(
                    out,
                    ",\"generation\":{generation},\"best_fitness\":{best_fitness}"
                );
            }
            Point::ReplicaDivergence { detail } => {
                out.push_str(",\"detail\":");
                escape(detail.resolve(), out);
            }
            Point::Audit { clean, errors } => {
                let _ = write!(out, ",\"clean\":{clean},\"errors\":{errors}");
            }
            Point::Repair { outcome } => {
                out.push_str(",\"outcome\":");
                escape(outcome, out);
            }
            Point::Workaround { rule, applied } => {
                out.push_str(",\"rule\":");
                escape(rule.resolve(), out);
                let _ = write!(out, ",\"applied\":{applied}");
            }
            Point::Sanitized { action } => {
                out.push_str(",\"action\":");
                escape(action, out);
            }
            Point::EarlyDecision { executed, total } => {
                let _ = write!(out, ",\"executed\":{executed},\"total\":{total}");
            }
            Point::VariantCancelled { variant } => {
                out.push_str(",\"variant\":");
                escape(variant.resolve(), out);
            }
            Point::Custom { detail, .. } => {
                out.push_str(",\"detail\":");
                escape(detail.resolve(), out);
            }
        }
        out.push('}');
    }

    /// Serializes one event as a single JSON object (no trailing newline).
    #[must_use]
    pub fn event_to_json(event: &Event) -> String {
        let mut out = String::with_capacity(128);
        write_event_json(event, &mut out);
        out
    }

    /// Appends [`event_to_json`]'s output to `out`, so a caller
    /// serializing many events can reuse one buffer.
    pub fn write_event_json(event: &Event, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"span\":{},\"parent\":{},\"clock\":{},",
            event.seq, event.span, event.parent, event.clock
        );
        match &event.kind {
            EventKind::SpanStart { kind } => {
                out.push_str("\"start\":");
                span_kind_json(kind, out);
            }
            EventKind::SpanEnd { status, cost } => {
                out.push_str("\"end\":{\"status\":");
                status_json(status, out);
                let _ = write!(
                    out,
                    ",\"cost\":{{\"work_units\":{},\"virtual_ns\":{},\"invocations\":{},\"design_cost\":{}}}}}",
                    cost.work_units, cost.virtual_ns, cost.invocations, cost.design_cost
                );
            }
            EventKind::Point(point) => {
                out.push_str("\"point\":");
                point_json(point, out);
            }
        }
        out.push('}');
    }

    /// Serializes a trace as JSON-lines: one event object per line.
    #[must_use]
    pub fn to_jsonl(events: &[Event]) -> String {
        let mut out = String::new();
        for event in events {
            write_event_json(event, &mut out);
            out.push('\n');
        }
        out
    }

    // ---- parsing: the exact inverse of the serializers above ----

    /// Error from [`event_from_json`], [`from_jsonl`] and [`validate_json`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseError {
        message: String,
    }

    impl ParseError {
        fn new(message: impl Into<String>) -> Self {
            ParseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for ParseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for ParseError {}

    /// A parsed JSON value. Numbers are kept as raw text and converted
    /// per field, so `u64` values above 2^53 (seeds, span ids) never pass
    /// through `f64` and lose precision.
    enum Json {
        Null,
        Bool(bool),
        Num(String),
        Str(String),
        // Event lines never carry arrays, so the payload is unread; it is
        // parsed (not skipped) so malformed nesting is still an error.
        Arr(#[allow(dead_code)] Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn fields(&self, what: &str) -> Result<&[(String, Json)], ParseError> {
            match self {
                Json::Obj(fields) => Ok(fields),
                _ => Err(ParseError::new(format!("{what}: expected an object"))),
            }
        }

        fn str_value(&self, what: &str) -> Result<&str, ParseError> {
            match self {
                Json::Str(s) => Ok(s),
                _ => Err(ParseError::new(format!("{what}: expected a string"))),
            }
        }

        fn bool_value(&self, what: &str) -> Result<bool, ParseError> {
            match self {
                Json::Bool(b) => Ok(*b),
                _ => Err(ParseError::new(format!("{what}: expected a boolean"))),
            }
        }

        fn raw_num(&self, what: &str) -> Result<&str, ParseError> {
            match self {
                Json::Num(raw) => Ok(raw),
                _ => Err(ParseError::new(format!("{what}: expected a number"))),
            }
        }
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Cursor<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(ParseError::new(format!(
                    "expected '{}' at byte {}",
                    byte as char, self.pos
                )))
            }
        }

        fn literal(&mut self, word: &str) -> Result<(), ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(())
            } else {
                Err(ParseError::new(format!(
                    "expected '{word}' at byte {}",
                    self.pos
                )))
            }
        }

        fn value(&mut self) -> Result<Json, ParseError> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => {
                    self.literal("true")?;
                    Ok(Json::Bool(true))
                }
                Some(b'f') => {
                    self.literal("false")?;
                    Ok(Json::Bool(false))
                }
                Some(b'n') => {
                    self.literal("null")?;
                    Ok(Json::Null)
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(ParseError::new(format!(
                    "unexpected input at byte {}",
                    self.pos
                ))),
            }
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let raw =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ascii");
            if !raw.bytes().any(|b| b.is_ascii_digit()) {
                return Err(ParseError::new(format!("invalid number at byte {start}")));
            }
            Ok(Json::Num(raw.to_owned()))
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(ParseError::new("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self
                            .peek()
                            .ok_or_else(|| ParseError::new("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let code = self.hex4()?;
                                let decoded = if (0xd800..0xdc00).contains(&code) {
                                    // High surrogate: a low surrogate
                                    // escape must follow.
                                    self.literal("\\u")?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(ParseError::new("invalid low surrogate"));
                                    }
                                    char::from_u32(
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                    )
                                } else {
                                    char::from_u32(code)
                                };
                                out.push(
                                    decoded.ok_or_else(|| ParseError::new("invalid \\u escape"))?,
                                );
                            }
                            other => {
                                return Err(ParseError::new(format!(
                                    "unknown escape '\\{}'",
                                    other as char
                                )))
                            }
                        }
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or escape.
                        // Both delimiters are ASCII, so the slice cannot
                        // split a multi-byte character.
                        let start = self.pos;
                        while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                            self.pos += 1;
                        }
                        let run = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| ParseError::new("invalid utf-8 in string"))?;
                        out.push_str(run);
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, ParseError> {
            let end = self.pos + 4;
            let slice = self
                .bytes
                .get(self.pos..end)
                .ok_or_else(|| ParseError::new("truncated \\u escape"))?;
            let text =
                std::str::from_utf8(slice).map_err(|_| ParseError::new("invalid \\u escape"))?;
            let code =
                u32::from_str_radix(text, 16).map_err(|_| ParseError::new("invalid \\u escape"))?;
            self.pos = end;
            Ok(code)
        }

        fn object(&mut self) -> Result<Json, ParseError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError::new(format!(
                            "expected ',' or '}}' at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Json, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(ParseError::new(format!(
                            "expected ',' or ']' at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
    }

    fn parse_json(text: &str) -> Result<Json, ParseError> {
        let mut cursor = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = cursor.value()?;
        cursor.skip_ws();
        if cursor.pos != cursor.bytes.len() {
            return Err(ParseError::new(format!(
                "trailing input at byte {}",
                cursor.pos
            )));
        }
        Ok(value)
    }

    /// Checks that `text` is one well-formed JSON value (object, array,
    /// string, number, bool or null) with nothing but whitespace around
    /// it: the syntax [`event_from_json`] reads, without its event
    /// schema. `monitor-smoke` uses it to reject torn or malformed
    /// snapshot lines.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated description of the first syntax
    /// error.
    pub fn validate_json(text: &str) -> Result<(), ParseError> {
        parse_json(text).map(drop)
    }

    fn field<'j>(fields: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn required<'j>(fields: &'j [(String, Json)], key: &str) -> Result<&'j Json, ParseError> {
        field(fields, key).ok_or_else(|| ParseError::new(format!("missing field \"{key}\"")))
    }

    fn num_field<T: std::str::FromStr>(
        fields: &[(String, Json)],
        key: &str,
    ) -> Result<T, ParseError> {
        let raw = required(fields, key)?.raw_num(key)?;
        raw.parse::<T>()
            .map_err(|_| ParseError::new(format!("field \"{key}\": invalid number {raw:?}")))
    }

    fn str_field<'j>(fields: &'j [(String, Json)], key: &str) -> Result<&'j str, ParseError> {
        required(fields, key)?.str_value(key)
    }

    fn bool_field(fields: &[(String, Json)], key: &str) -> Result<bool, ParseError> {
        required(fields, key)?.bool_value(key)
    }

    fn span_kind_from(value: &Json) -> Result<SpanKind, ParseError> {
        let fields = value.fields("span kind")?;
        let (key, inner) = fields
            .first()
            .ok_or_else(|| ParseError::new("span kind: empty object"))?;
        match key.as_str() {
            "trial" => {
                let t = inner.fields("trial span")?;
                Ok(SpanKind::Trial {
                    index: num_field(t, "index")?,
                    seed: num_field(t, "seed")?,
                })
            }
            "technique" => Ok(SpanKind::Technique {
                name: Symbol::intern(inner.str_value("technique")?).resolve(),
            }),
            "pattern" => Ok(SpanKind::Pattern {
                name: Symbol::intern(inner.str_value("pattern")?).resolve(),
            }),
            "variant" => Ok(SpanKind::Variant {
                name: inner.str_value("variant")?.into(),
            }),
            "scope" => Ok(SpanKind::Scope {
                name: Symbol::intern(inner.str_value("scope")?).resolve(),
            }),
            other => Err(ParseError::new(format!("unknown span kind \"{other}\""))),
        }
    }

    fn status_from(value: &Json) -> Result<SpanStatus, ParseError> {
        let fields = value.fields("span status")?;
        let (key, inner) = fields
            .first()
            .ok_or_else(|| ParseError::new("span status: empty object"))?;
        match key.as_str() {
            "ok" => Ok(SpanStatus::Ok),
            "accepted" => {
                let a = inner.fields("accepted status")?;
                Ok(SpanStatus::Accepted {
                    support: num_field(a, "support")?,
                    dissent: num_field(a, "dissent")?,
                })
            }
            "rejected" => Ok(SpanStatus::Rejected {
                reason: Symbol::intern(inner.str_value("rejected")?).resolve(),
            }),
            "failed" => Ok(SpanStatus::Failed {
                kind: Symbol::intern(inner.str_value("failed")?).resolve(),
            }),
            "trial" => Ok(SpanStatus::Trial {
                disposition: Symbol::intern(inner.str_value("trial")?).resolve(),
            }),
            other => Err(ParseError::new(format!("unknown span status \"{other}\""))),
        }
    }

    fn point_from(value: &Json) -> Result<Point, ParseError> {
        let fields = value.fields("point")?;
        let name = str_field(fields, "name")?;
        Ok(match name {
            "verdict" => Point::Verdict {
                accepted: bool_field(fields, "accepted")?,
                support: num_field(fields, "support")?,
                dissent: num_field(fields, "dissent")?,
                rejection: match field(fields, "rejection") {
                    Some(v) => Some(Symbol::intern(v.str_value("rejection")?).resolve()),
                    None => None,
                },
            },
            "fuel_exhausted" => Point::FuelExhausted {
                consumed: num_field(fields, "consumed")?,
            },
            "checkpoint" => Point::Checkpoint {
                label: Symbol::intern(str_field(fields, "label")?).resolve(),
            },
            "rollback" => Point::Rollback {
                label: Symbol::intern(str_field(fields, "label")?).resolve(),
            },
            "rejuvenation" => Point::Rejuvenation {
                age_before: num_field(fields, "age_before")?,
            },
            "reboot" => Point::Reboot {
                component: str_field(fields, "component")?.into(),
                depth: num_field(fields, "depth")?,
            },
            "service_rebind" => Point::ServiceRebind {
                interface: str_field(fields, "interface")?.into(),
                from: str_field(fields, "from")?.into(),
                to: str_field(fields, "to")?.into(),
            },
            "reexpression" => Point::Reexpression {
                name: str_field(fields, "reexpression")?.into(),
                attempt: num_field(fields, "attempt")?,
            },
            "perturbation" => Point::Perturbation {
                knob: Symbol::intern(str_field(fields, "knob")?).resolve(),
                attempt: num_field(fields, "attempt")?,
            },
            "gp_generation" => Point::GpGeneration {
                generation: num_field(fields, "generation")?,
                best_fitness: num_field(fields, "best_fitness")?,
            },
            "replica_divergence" => Point::ReplicaDivergence {
                detail: str_field(fields, "detail")?.into(),
            },
            "audit" => Point::Audit {
                clean: bool_field(fields, "clean")?,
                errors: num_field(fields, "errors")?,
            },
            "repair" => Point::Repair {
                outcome: Symbol::intern(str_field(fields, "outcome")?).resolve(),
            },
            "workaround" => Point::Workaround {
                rule: str_field(fields, "rule")?.into(),
                applied: bool_field(fields, "applied")?,
            },
            "sanitized" => Point::Sanitized {
                action: Symbol::intern(str_field(fields, "action")?).resolve(),
            },
            "early-decision" => Point::EarlyDecision {
                executed: num_field(fields, "executed")?,
                total: num_field(fields, "total")?,
            },
            "variant-cancelled" => Point::VariantCancelled {
                variant: str_field(fields, "variant")?.into(),
            },
            custom => Point::Custom {
                name: Symbol::intern(custom).resolve(),
                detail: str_field(fields, "detail")?.into(),
            },
        })
    }

    /// Parses one event from the JSON object produced by
    /// [`event_to_json`]. Numeric fields are converted from the raw
    /// number text per field, so `u64` values above 2^53 (seeds, span
    /// ids) round-trip exactly.
    pub fn event_from_json(line: &str) -> Result<Event, ParseError> {
        let value = parse_json(line.trim())?;
        let fields = value.fields("event")?;
        let kind = if let Some(start) = field(fields, "start") {
            EventKind::SpanStart {
                kind: span_kind_from(start)?,
            }
        } else if let Some(end) = field(fields, "end") {
            let e = end.fields("span end")?;
            let cost = required(e, "cost")?.fields("cost")?;
            EventKind::SpanEnd {
                status: status_from(required(e, "status")?)?,
                cost: CostSnapshot {
                    work_units: num_field(cost, "work_units")?,
                    virtual_ns: num_field(cost, "virtual_ns")?,
                    invocations: num_field(cost, "invocations")?,
                    design_cost: num_field(cost, "design_cost")?,
                },
            }
        } else if let Some(point) = field(fields, "point") {
            EventKind::Point(point_from(point)?)
        } else {
            return Err(ParseError::new(
                "event: missing \"start\", \"end\" or \"point\"",
            ));
        };
        Ok(Event {
            seq: num_field(fields, "seq")?,
            span: num_field(fields, "span")?,
            parent: num_field(fields, "parent")?,
            clock: num_field(fields, "clock")?,
            kind,
        })
    }

    /// Parses a JSON-lines trace — the exact inverse of [`to_jsonl`].
    /// Blank lines are skipped; the first malformed line aborts with its
    /// 1-based line number in the error.
    pub fn from_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                event_from_json(line)
                    .map_err(|e| ParseError::new(format!("line {}: {e}", i + 1)))?,
            );
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Point, SpanKind};

    fn sample_trace() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                span: 1,
                parent: ROOT_SPAN,
                clock: 0,
                kind: EventKind::SpanStart {
                    kind: SpanKind::Technique { name: "nvp" },
                },
            },
            Event {
                seq: 1,
                span: 2,
                parent: 1,
                clock: 0,
                kind: EventKind::SpanStart {
                    kind: SpanKind::Variant { name: "v1".into() },
                },
            },
            Event {
                seq: 2,
                span: 2,
                parent: 1,
                clock: 10,
                kind: EventKind::SpanEnd {
                    status: SpanStatus::Failed { kind: "crash" },
                    cost: CostSnapshot {
                        virtual_ns: 10,
                        work_units: 3,
                        invocations: 1,
                        design_cost: 0.0,
                    },
                },
            },
            Event {
                seq: 3,
                span: 1,
                parent: 1,
                clock: 10,
                kind: EventKind::Point(Point::Verdict {
                    accepted: true,
                    support: 2,
                    dissent: 1,
                    rejection: None,
                }),
            },
            Event {
                seq: 4,
                span: 1,
                parent: ROOT_SPAN,
                clock: 12,
                kind: EventKind::SpanEnd {
                    status: SpanStatus::Accepted {
                        support: 2,
                        dissent: 1,
                    },
                    cost: CostSnapshot {
                        virtual_ns: 12,
                        work_units: 9,
                        invocations: 3,
                        design_cost: 3.0,
                    },
                },
            },
        ]
    }

    #[test]
    fn span_tree_indents_and_closes() {
        let tree = render_span_tree(&sample_trace());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("▶ technique nvp"));
        assert!(lines[1].starts_with("  ▶ variant v1"));
        assert!(lines[2].starts_with("  ◀ failed (crash)"));
        assert!(lines[3].starts_with("  • verdict"));
        assert!(lines[4].starts_with("◀ accepted 2:1"));
        assert!(lines[4].contains("ticks=12"));
    }

    #[test]
    fn summary_counts_and_total_cost_not_double_counted() {
        let s = TraceSummary::from_events(&sample_trace());
        assert_eq!(s.events, 5);
        assert_eq!(s.spans_closed, 2);
        assert_eq!(s.spans_open, 0);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.failed.get("crash"), Some(&1));
        assert_eq!(s.points.get("verdict"), Some(&1));
        // The variant span is nested in the technique span: only the
        // technique's cost counts toward the total.
        assert_eq!(s.total_cost.virtual_ns, 12);
        assert_eq!(s.total_cost.invocations, 3);
        let rendered = s.to_string();
        assert!(rendered.contains("1 accepted"));
        assert!(rendered.contains("1 failed (crash)"));
    }

    #[test]
    fn summary_tolerates_truncated_trace() {
        // Drop the first two events (as a wrapped ring buffer would).
        let events = sample_trace()[2..].to_vec();
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.spans_closed, 0, "starts were lost");
        // Both ends count as roots now; costs sum without panicking.
        assert_eq!(s.total_cost.virtual_ns, 22);
        let tree = render_span_tree(&events);
        assert_eq!(tree.lines().count(), 3);
    }

    #[test]
    fn jsonl_round_trip_shape() {
        let lines = to_jsonl(&sample_trace());
        assert_eq!(lines.lines().count(), 5);
        let first = lines.lines().next().unwrap();
        assert!(first.starts_with("{\"seq\":0,"));
        assert!(first.contains("\"start\":{\"technique\":\"nvp\"}"));
        let end = lines.lines().nth(4).unwrap();
        assert!(end.contains("\"accepted\":{\"support\":2,\"dissent\":1}"));
        assert!(end.contains("\"virtual_ns\":12"));
    }

    #[test]
    fn json_escapes_strings() {
        let event = Event {
            seq: 0,
            span: 1,
            parent: 0,
            clock: 0,
            kind: EventKind::Point(Point::ReplicaDivergence {
                detail: "quote \" backslash \\ newline \n".into(),
            }),
        };
        let json = event_to_json(&event);
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
    }

    /// One event per `SpanKind`, `SpanStatus` and `Point` variant, with
    /// values chosen to stress the parser: seeds above 2^53, escaped
    /// strings, non-trivial floats.
    fn exhaustive_trace() -> Vec<Event> {
        let kinds = vec![
            EventKind::SpanStart {
                kind: SpanKind::Trial {
                    index: 41,
                    seed: 0xdead_beef_cafe_f00d,
                },
            },
            EventKind::SpanStart {
                kind: SpanKind::Technique { name: "n-version" },
            },
            EventKind::SpanStart {
                kind: SpanKind::Pattern {
                    name: "parallel_evaluation",
                },
            },
            EventKind::SpanStart {
                kind: SpanKind::Variant {
                    name: "v \"quoted\" \\ tab\t".into(),
                },
            },
            EventKind::SpanStart {
                kind: SpanKind::Scope { name: "gp-search" },
            },
            EventKind::SpanEnd {
                status: SpanStatus::Ok,
                cost: CostSnapshot::ZERO,
            },
            EventKind::SpanEnd {
                status: SpanStatus::Accepted {
                    support: 2,
                    dissent: 1,
                },
                cost: CostSnapshot {
                    work_units: 9,
                    virtual_ns: 123,
                    invocations: 3,
                    design_cost: 0.1 + 0.2, // 0.30000000000000004
                },
            },
            EventKind::SpanEnd {
                status: SpanStatus::Rejected {
                    reason: "no_quorum",
                },
                cost: CostSnapshot::ZERO,
            },
            EventKind::SpanEnd {
                status: SpanStatus::Failed { kind: "crash" },
                cost: CostSnapshot::ZERO,
            },
            EventKind::SpanEnd {
                status: SpanStatus::Trial {
                    disposition: "correct",
                },
                cost: CostSnapshot::ZERO,
            },
            EventKind::Point(Point::Verdict {
                accepted: true,
                support: 3,
                dissent: 0,
                rejection: None,
            }),
            EventKind::Point(Point::Verdict {
                accepted: false,
                support: 0,
                dissent: 0,
                rejection: Some("no_majority"),
            }),
            EventKind::Point(Point::FuelExhausted { consumed: 777 }),
            EventKind::Point(Point::Checkpoint { label: "process" }),
            EventKind::Point(Point::Rollback { label: "process" }),
            EventKind::Point(Point::Rejuvenation { age_before: 12 }),
            EventKind::Point(Point::Reboot {
                component: "cache".into(),
                depth: 2,
            }),
            EventKind::Point(Point::ServiceRebind {
                interface: "store".into(),
                from: "a".into(),
                to: "b".into(),
            }),
            EventKind::Point(Point::Reexpression {
                name: "reorder".into(),
                attempt: 1,
            }),
            EventKind::Point(Point::Perturbation {
                knob: "memory-layout",
                attempt: 3,
            }),
            EventKind::Point(Point::GpGeneration {
                generation: 7,
                best_fitness: 0.25,
            }),
            EventKind::Point(Point::ReplicaDivergence {
                detail: "control\u{1} char".into(),
            }),
            EventKind::Point(Point::Audit {
                clean: false,
                errors: 4,
            }),
            EventKind::Point(Point::Repair { outcome: "partial" }),
            EventKind::Point(Point::Workaround {
                rule: "swap-args".into(),
                applied: true,
            }),
            EventKind::Point(Point::Sanitized {
                action: "rewritten",
            }),
            EventKind::Point(Point::EarlyDecision {
                executed: 2,
                total: 5,
            }),
            EventKind::Point(Point::VariantCancelled {
                variant: "v3".into(),
            }),
            EventKind::Point(Point::Custom {
                name: "my_event",
                detail: "unicode: é λ \u{1f600}".into(),
            }),
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: i as u64,
                span: 0x8000_0000_0000_0000 + i as u64, // above 2^53
                parent: i as u64 / 2,
                clock: 10 * i as u64,
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_parses_back_every_variant() {
        let trace = exhaustive_trace();
        let text = to_jsonl(&trace);
        let parsed = from_jsonl(&text).expect("trace parses");
        assert_eq!(parsed, trace);
        // And the parse is exact: re-serializing gives identical bytes.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parsed_static_labels_are_interned_per_distinct_value() {
        let trace = exhaustive_trace();
        let text = to_jsonl(&trace);
        let a = from_jsonl(&text).expect("parses");
        let b = from_jsonl(&text).expect("parses");
        // Two parses of the same label yield the same leaked allocation.
        let tech = |events: &[Event]| -> &'static str {
            events
                .iter()
                .find_map(|e| match &e.kind {
                    EventKind::SpanStart {
                        kind: SpanKind::Technique { name },
                    } => Some(*name),
                    _ => None,
                })
                .expect("technique span present")
        };
        assert!(std::ptr::eq(tech(&a), tech(&b)));
    }

    #[test]
    fn parse_errors_name_the_line_and_field() {
        let err = from_jsonl("{\"seq\":0}\n").expect_err("missing fields");
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
        let err = from_jsonl("{\"seq\":0,\"span\":1,\"parent\":0,\"clock\":0,\"point\":{\"name\":\"audit\",\"clean\":true}}")
            .expect_err("missing errors field");
        assert!(err.to_string().contains("errors"), "{err}");
        let err = event_from_json("not json").expect_err("garbage");
        assert!(!err.to_string().is_empty());
        // Torn tail: a truncated line is an error, not a silent skip.
        assert!(event_from_json("{\"seq\":0,\"span\":1,\"par").is_err());
    }

    #[test]
    fn u64_values_above_2p53_round_trip_exactly() {
        let seed = u64::MAX - 1; // not representable in f64
        let event = Event {
            seq: u64::MAX,
            span: 1,
            parent: 0,
            clock: 0,
            kind: EventKind::SpanStart {
                kind: SpanKind::Trial { index: 0, seed },
            },
        };
        let parsed = event_from_json(&event_to_json(&event)).expect("parses");
        assert_eq!(parsed, event);
    }

    #[test]
    fn interned_symbols_round_trip_through_event_json() {
        use crate::intern::Symbol;
        let name = Symbol::intern("variant: é λ \"quoted\" \\ back \n tail");
        let event = Event {
            seq: 7,
            span: 3,
            parent: 1,
            clock: 11,
            kind: EventKind::SpanStart {
                kind: SpanKind::Variant { name },
            },
        };
        let line = event_to_json(&event);
        let parsed = event_from_json(&line).expect("parses");
        let EventKind::SpanStart {
            kind: SpanKind::Variant { name: reparsed },
        } = parsed.kind
        else {
            panic!("wrong kind: {parsed:?}");
        };
        // The parser re-interns into the same table: same dense id, and
        // resolving yields the very same leaked allocation.
        assert_eq!(reparsed, name);
        assert!(std::ptr::eq(reparsed.resolve(), name.resolve()));
        // And the checkpoint round trip is byte-exact.
        assert_eq!(event_to_json(&parsed), line);
    }

    #[test]
    fn json_validator_accepts_values_and_rejects_torn_lines() {
        for ok in [
            "{}",
            "[]",
            "{\"a\":1,\"b\":[true,null,-2.5e3],\"c\":{\"d\":\"x\\\"y\"}}",
            "  42  ",
            "\"lone string\"",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
        for bad in [
            "{\"a\":1",
            "{\"a\" 1}",
            "{a:1}",
            "[1,]",
            "tru",
            "{} trailing",
            "\"unterminated",
            "-",
            "",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} must fail");
        }
    }
}
