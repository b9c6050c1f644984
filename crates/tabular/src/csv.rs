//! A small RFC-4180-style CSV reader/writer.
//!
//! KGpip's mined pipelines almost universally begin with `pandas.read_csv`
//! (paper §3.4–3.5: the dataset node "is assumed to flow into a read_csv
//! call"), so the substrate provides an equivalent entry point:
//! [`read_frame`] parses a CSV document and infers a typed [`DataFrame`]
//! from its cells. It is the chunked reader of [`crate::stream`] at its
//! default options, collected into one frame; the record scanner and field
//! parser here are that reader's.
//!
//! Both scan bytes, not chars. Every structural byte (`"`, `,`, `\r`,
//! `\n`) is ASCII, and in UTF-8 an ASCII byte never occurs inside a
//! multi-byte character (continuation and lead bytes all have the high
//! bit set). So a byte scan finds exactly the boundaries a char scan
//! finds, and every offset it slices at is a char boundary. An unquoted
//! run is taken as one slice up to the next `,` or `"`; a quoted run up to
//! the next `"` (counting the `\n`s it holds for error lines). No cell
//! allocates unless its content is non-contiguous in the source (doubled
//! quotes, text resuming after a closing quote).

use crate::error::TabularError;
use crate::frame::DataFrame;
use crate::stream::{read_chunked, ChunkedReadOptions};
use crate::Result;
use std::borrow::Cow;

/// One record located by [`scan_records`]: the byte range of its content
/// (record terminator excluded) and the 1-based source line its first byte
/// is on. Quoted fields may make the range span several source lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordSpan {
    /// First content byte.
    pub start: usize,
    /// One past the last content byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
}

/// Offset of the first byte at or after `from` that `stop` accepts, or
/// `bytes.len()` when there is none.
fn find_from(bytes: &[u8], from: usize, stop: impl Fn(u8) -> bool) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| rest.iter().position(|&x| stop(x)))
        .map_or(bytes.len(), |p| from + p)
}

/// Number of `\n` bytes in `bytes[from..to]`.
fn count_newlines(bytes: &[u8], from: usize, to: usize) -> usize {
    bytes
        .get(from..to)
        .map_or(0, |run| run.iter().filter(|&&b| b == b'\n').count())
}

fn quote_in_unquoted(line: usize) -> TabularError {
    TabularError::Csv {
        line,
        message: "quote inside unquoted field".into(),
    }
}

fn unterminated(line: usize) -> TabularError {
    TabularError::Csv {
        line,
        message: "unterminated quoted field".into(),
    }
}

/// `text[start..end]`, or a typed error should the range not fall on char
/// boundaries. The scanners only slice at ASCII structural bytes and at
/// the ends of `text`, so this never fails on their offsets.
fn slice(text: &str, start: usize, end: usize, line: usize) -> Result<&str> {
    text.get(start..end).ok_or_else(|| TabularError::Csv {
        line,
        message: "field boundary inside a character".into(),
    })
}

/// Locates record boundaries without materializing any field: a quote-aware
/// scan that ends records at unquoted `\n`, `\r\n`, or bare `\r`. All
/// structural errors the field parser could hit (a quote opening inside a
/// non-empty unquoted field, an unterminated quoted field) are detected
/// here, at the same source line the legacy single-pass machine reported,
/// so [`parse_span`] on a returned span cannot fail. This is the piece the
/// chunked reader parallelizes over: spans are cheap to compute
/// sequentially and parse independently.
pub(crate) fn scan_records(input: &str) -> Result<Vec<RecordSpan>> {
    let bytes = input.as_bytes();
    let mut spans = Vec::new();
    // Any content byte accumulated in the current field (quoted or not).
    let mut field_has_content = false;
    let mut field_was_quoted = false;
    // A `,` has finished at least one field in the current record.
    let mut record_has_fields = false;
    let mut record_start = 0usize;
    let mut record_line = 1usize;
    let mut line = 1usize;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'"' => {
                if field_has_content {
                    return Err(quote_in_unquoted(line));
                }
                field_was_quoted = true;
                // Inside quotes: runs up to the next `"`; a doubled `""`
                // is an escaped quote and stays inside.
                let mut at = i + 1;
                loop {
                    let close = find_from(bytes, at, |x| x == b'"');
                    line += count_newlines(bytes, at, close);
                    if close > at {
                        field_has_content = true;
                    }
                    if close == bytes.len() {
                        return Err(unterminated(line));
                    }
                    if bytes.get(close + 1) == Some(&b'"') {
                        field_has_content = true;
                        at = close + 2;
                    } else {
                        i = close + 1;
                        break;
                    }
                }
            }
            b',' => {
                record_has_fields = true;
                field_has_content = false;
                field_was_quoted = false;
                i += 1;
            }
            b'\r' | b'\n' => {
                // "\r\n" is one terminator whose \r is excluded from the
                // record; a bare \r is a newline of its own.
                let end = i;
                if b == b'\r' && bytes.get(i + 1) == Some(&b'\n') {
                    i += 1;
                }
                spans.push(RecordSpan {
                    start: record_start,
                    end,
                    line: record_line,
                });
                i += 1;
                record_start = i;
                line += 1;
                record_line = line;
                field_has_content = false;
                field_was_quoted = false;
                record_has_fields = false;
            }
            _ => {
                field_has_content = true;
                // Skip the rest of the unquoted run in one step.
                i = find_from(bytes, i, |x| matches!(x, b'"' | b',' | b'\r' | b'\n'));
            }
        }
    }
    if field_has_content || field_was_quoted || record_has_fields {
        spans.push(RecordSpan {
            start: record_start,
            end: input.len(),
            line: record_line,
        });
    }
    Ok(spans)
}

/// One field under construction in [`parse_span`]: a contiguous byte range
/// of the record until the content goes non-contiguous, then an owned
/// spill buffer.
struct FieldBuf<'a> {
    content: &'a str,
    seg: Option<(usize, usize)>,
    owned: Option<String>,
    quoted: bool,
}

impl<'a> FieldBuf<'a> {
    fn has_content(&self) -> bool {
        self.seg.is_some() || self.owned.is_some()
    }

    /// Appends `content[start..end]` to the field.
    fn push(&mut self, start: usize, end: usize, line: usize) -> Result<()> {
        if start == end {
            return Ok(());
        }
        if let Some(buf) = &mut self.owned {
            buf.push_str(slice(self.content, start, end, line)?);
            return Ok(());
        }
        match self.seg {
            None => self.seg = Some((start, end)),
            Some((s, e)) if e == start => self.seg = Some((s, end)),
            Some((s, e)) => {
                let mut buf = String::with_capacity(e - s + end - start);
                buf.push_str(slice(self.content, s, e, line)?);
                buf.push_str(slice(self.content, start, end, line)?);
                self.owned = Some(buf);
            }
        }
        Ok(())
    }

    /// Ends the field: empty unquoted is missing, quoted empty is `""`.
    fn finish(&mut self, line: usize) -> Result<Option<Cow<'a, str>>> {
        let value = match (self.owned.take(), self.seg.take()) {
            (Some(buf), _) => Some(Cow::Owned(buf)),
            (None, Some((s, e))) => Some(Cow::Borrowed(slice(self.content, s, e, line)?)),
            (None, None) => self.quoted.then_some(Cow::Borrowed("")),
        };
        self.quoted = false;
        Ok(value)
    }
}

/// Parses one record span into fields. Unquoted fields (and quoted fields
/// without escaped quotes) borrow directly from `input`; only fields whose
/// content is non-contiguous in the source (doubled quotes, text resuming
/// after a closing quote) allocate. Empty-unquoted is `None` (missing),
/// quoted-empty is `Some("")` — same semantics as the legacy machine.
pub(crate) fn parse_span(input: &str, span: RecordSpan) -> Result<Vec<Option<Cow<'_, str>>>> {
    let mut record = Vec::new();
    parse_span_into(input, span, &mut record)?;
    Ok(record)
}

/// [`parse_span`] appending the fields to `record` instead, so a caller
/// parsing many records can keep them in one buffer. Returns the number
/// of fields appended.
pub(crate) fn parse_span_into<'a>(
    input: &'a str,
    span: RecordSpan,
    record: &mut Vec<Option<Cow<'a, str>>>,
) -> Result<usize> {
    let content = slice(input, span.start, span.end, span.line)?;
    let bytes = content.as_bytes();
    let before = record.len();
    let mut line = span.line;
    let mut field = FieldBuf {
        content,
        seg: None,
        owned: None,
        quoted: false,
    };
    let mut i = 0usize;
    while i < bytes.len() {
        // An unquoted run, up to the next `,` or `"`.
        let stop = find_from(bytes, i, |x| x == b',' || x == b'"');
        field.push(i, stop, line)?;
        match bytes.get(stop) {
            None => i = stop,
            Some(b',') => {
                record.push(field.finish(line)?);
                i = stop + 1;
            }
            Some(_) => {
                if field.has_content() {
                    return Err(quote_in_unquoted(line));
                }
                field.quoted = true;
                // A quoted run: content up to the closing `"`; the first
                // quote of a doubled `""` is kept, the second skipped.
                let mut at = stop + 1;
                loop {
                    let close = find_from(bytes, at, |x| x == b'"');
                    line += count_newlines(bytes, at, close);
                    if close == bytes.len() {
                        // Unreachable for spans produced by scan_records
                        // (records only end outside quotes), kept as a
                        // typed error for defense in depth.
                        return Err(unterminated(line));
                    }
                    if bytes.get(close + 1) == Some(&b'"') {
                        field.push(at, close + 1, line)?;
                        at = close + 2;
                    } else {
                        field.push(at, close, line)?;
                        i = close + 1;
                        break;
                    }
                }
            }
        }
    }
    record.push(field.finish(line)?);
    Ok(record.len() - before)
}

/// Derives header names from the parsed header record: missing cells get
/// positional `col{i}` names.
pub(crate) fn header_names(header_row: Vec<Option<Cow<'_, str>>>) -> Vec<String> {
    header_row
        .into_iter()
        .enumerate()
        .map(|(i, h)| h.map(Cow::into_owned).unwrap_or_else(|| format!("col{i}")))
        .collect()
}

/// The ragged-row error the legacy reader raised: record index `i` (0-based
/// among data rows) reports as line `i + 2`.
pub(crate) fn ragged_row_error(index: usize, expected: usize, found: usize) -> TabularError {
    TabularError::Csv {
        line: index + 2,
        message: format!("expected {expected} fields, found {found}"),
    }
}

/// Parses a CSV document with a header row and infers a typed
/// [`DataFrame`] from it: [`read_chunked`] at its default options, with
/// the chunks collected into one frame. Supports quoted fields with
/// embedded commas, newlines, and doubled quotes; `\n`, `\r\n` and bare
/// `\r` line endings are accepted. An empty unquoted cell is missing, a
/// quoted `""` is a present empty string. Duplicate headers get positional
/// suffixes.
pub fn read_frame(input: &str) -> Result<DataFrame> {
    read_chunked(input, &ChunkedReadOptions::default())?.into_frame()
}

/// Serializes a frame to CSV with a header row. Missing cells render empty;
/// fields containing commas, quotes or newlines are quoted.
pub fn write_csv(frame: &DataFrame) -> String {
    fn escape(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &frame
            .names()
            .iter()
            .map(|n| escape(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in 0..frame.num_rows() {
        let row: Vec<String> = frame
            .columns()
            .iter()
            .map(|c| c.as_string(r).map(|s| escape(&s)).unwrap_or_default())
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// The row-major reader [`read_frame`] replaced, verbatim, kept as an
/// independent oracle for the chunked reader: every record parsed into
/// its own row, each column typed by `infer::oracle::infer_column` over
/// its cells. Frames must match it fingerprint for fingerprint and errors
/// message for message.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{header_names, parse_span, ragged_row_error, scan_records};
    use crate::error::TabularError;
    use crate::frame::DataFrame;
    use crate::infer::oracle::infer_column;
    use crate::Result;

    pub(crate) fn read_frame(input: &str) -> Result<DataFrame> {
        let spans = scan_records(input)?;
        let mut iter = spans.into_iter();
        let header_span = iter.next().ok_or(TabularError::Empty("csv document"))?;
        let header = header_names(parse_span(input, header_span)?);
        let mut rows = Vec::new();
        for (i, span) in iter.enumerate() {
            let row = parse_span(input, span)?;
            if row.len() != header.len() {
                return Err(ragged_row_error(i, header.len(), row.len()));
            }
            rows.push(row);
        }
        let mut frame = DataFrame::new();
        for (c, header_name) in header.iter().enumerate() {
            let values: Vec<Option<&str>> = rows
                .iter()
                .map(|row| row.get(c).and_then(Option::as_deref))
                .collect();
            let column = infer_column(&values);
            // Duplicate headers get positional suffixes rather than failing;
            // keep extending until unique (a file may already contain `a.1`).
            let mut name = header_name.clone();
            while frame.names().contains(&name) {
                name = format!("{name}.{c}");
            }
            frame.push(name, column)?;
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnKind;
    use proptest::prelude::*;

    /// The char-level scanner and field parser the byte scan replaced,
    /// verbatim, kept as an independent oracle: [`scan_records`] and
    /// [`parse_span`] must locate the same spans, yield the same values
    /// (missing vs quoted-empty included) and fail with the same
    /// `(line, message)` on every input.
    fn reference_scan_records(input: &str) -> Result<Vec<RecordSpan>> {
        let mut spans = Vec::new();
        let mut in_quotes = false;
        // Any content char accumulated in the current field (quoted or not).
        let mut field_has_content = false;
        let mut field_was_quoted = false;
        // A `,` has finished at least one field in the current record.
        let mut record_has_fields = false;
        let mut record_start = 0usize;
        let mut record_line = 1usize;
        let mut line = 1usize;
        let mut chars = input.char_indices().peekable();
        while let Some((i, ch)) = chars.next() {
            if in_quotes {
                match ch {
                    '"' => {
                        if chars.peek().map(|&(_, c)| c) == Some('"') {
                            chars.next();
                            field_has_content = true;
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        field_has_content = true;
                        line += 1;
                    }
                    _ => field_has_content = true,
                }
                continue;
            }
            match ch {
                '"' => {
                    if field_has_content {
                        return Err(TabularError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                    field_was_quoted = true;
                }
                ',' => {
                    record_has_fields = true;
                    field_has_content = false;
                    field_was_quoted = false;
                }
                '\r' => {
                    // Consumed as part of \r\n (the following \n ends the
                    // record and excludes this byte); a bare \r is a newline.
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        continue;
                    }
                    spans.push(RecordSpan {
                        start: record_start,
                        end: i,
                        line: record_line,
                    });
                    record_start = i + 1;
                    line += 1;
                    record_line = line;
                    field_has_content = false;
                    field_was_quoted = false;
                    record_has_fields = false;
                }
                '\n' => {
                    // A directly preceding \r was skipped above and is not
                    // part of the record content.
                    let end = if i > record_start && input.as_bytes()[i - 1] == b'\r' {
                        i - 1
                    } else {
                        i
                    };
                    spans.push(RecordSpan {
                        start: record_start,
                        end,
                        line: record_line,
                    });
                    record_start = i + 1;
                    line += 1;
                    record_line = line;
                    field_has_content = false;
                    field_was_quoted = false;
                    record_has_fields = false;
                }
                _ => field_has_content = true,
            }
        }
        if in_quotes {
            return Err(TabularError::Csv {
                line,
                message: "unterminated quoted field".into(),
            });
        }
        if field_has_content || field_was_quoted || record_has_fields {
            spans.push(RecordSpan {
                start: record_start,
                end: input.len(),
                line: record_line,
            });
        }
        Ok(spans)
    }

    fn reference_parse_span(input: &str, span: RecordSpan) -> Result<Vec<Option<Cow<'_, str>>>> {
        let content = &input[span.start..span.end];
        let mut record: Vec<Option<Cow<'_, str>>> = Vec::new();
        let mut line = span.line;
        // Field representation: a contiguous byte range of `content` until the
        // content goes non-contiguous, then an owned spill buffer.
        let mut seg: Option<(usize, usize)> = None;
        let mut owned: Option<String> = None;
        let mut field_was_quoted = false;
        let mut in_quotes = false;
        let mut chars = content.char_indices().peekable();

        fn push_char(
            content: &str,
            seg: &mut Option<(usize, usize)>,
            owned: &mut Option<String>,
            i: usize,
            ch: char,
        ) {
            if let Some(buf) = owned {
                buf.push(ch);
                return;
            }
            match seg {
                None => *seg = Some((i, i + ch.len_utf8())),
                Some((start, end)) => {
                    if *end == i {
                        *end = i + ch.len_utf8();
                    } else {
                        let mut buf = content[*start..*end].to_string();
                        buf.push(ch);
                        *owned = Some(buf);
                    }
                }
            }
        }

        fn finish_field<'a>(
            content: &'a str,
            seg: &mut Option<(usize, usize)>,
            owned: &mut Option<String>,
            quoted: &mut bool,
            record: &mut Vec<Option<Cow<'a, str>>>,
        ) {
            let value = match (owned.take(), seg.take()) {
                (Some(buf), _) => Some(Cow::Owned(buf)),
                (None, Some((start, end))) => Some(Cow::Borrowed(&content[start..end])),
                (None, None) => {
                    if *quoted {
                        Some(Cow::Borrowed(""))
                    } else {
                        None
                    }
                }
            };
            record.push(value);
            *quoted = false;
        }

        while let Some((i, ch)) = chars.next() {
            if in_quotes {
                match ch {
                    '"' => {
                        if chars.peek().map(|&(_, c)| c) == Some('"') {
                            // Escaped quote: the first quote of the pair is at
                            // `i`, so a contiguous segment can still absorb it;
                            // the skipped second quote forces a spill only when
                            // more content follows.
                            push_char(content, &mut seg, &mut owned, i, '"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        push_char(content, &mut seg, &mut owned, i, ch);
                        line += 1;
                    }
                    _ => push_char(content, &mut seg, &mut owned, i, ch),
                }
                continue;
            }
            match ch {
                '"' => {
                    if seg.is_some() || owned.is_some() {
                        return Err(TabularError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                    field_was_quoted = true;
                }
                ',' => finish_field(
                    content,
                    &mut seg,
                    &mut owned,
                    &mut field_was_quoted,
                    &mut record,
                ),
                _ => push_char(content, &mut seg, &mut owned, i, ch),
            }
        }
        if in_quotes {
            // Unreachable for spans produced by scan_records (records only end
            // outside quotes), kept as a typed error for defense in depth.
            return Err(TabularError::Csv {
                line,
                message: "unterminated quoted field".into(),
            });
        }
        finish_field(
            content,
            &mut seg,
            &mut owned,
            &mut field_was_quoted,
            &mut record,
        );
        Ok(record)
    }

    /// Owned field values of one parsed record, for comparison.
    fn owned(record: Vec<Option<Cow<'_, str>>>) -> Vec<Option<String>> {
        record.into_iter().map(|f| f.map(Cow::into_owned)).collect()
    }

    /// Pieces heavy in structural bytes, spaces and multi-byte chars.
    const ALPHABET: [&str; 14] = [
        "\"", "\"", ",", ",", "\r", "\n", "\r\n", " ", "a", "1", "é", "日", "🙂", "NA",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The byte scan agrees with the char-level reference on spans,
        /// field values (missing vs quoted-empty included) and errors —
        /// both per located record and over the whole input as one span,
        /// where record terminators become field content.
        #[test]
        fn byte_scan_matches_the_char_reference(
            pieces in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
        ) {
            let input: String = pieces.iter().map(|&p| ALPHABET[p]).collect();
            let spans = scan_records(&input);
            prop_assert_eq!(&spans, &reference_scan_records(&input), "input {:?}", input);
            for span in spans.unwrap_or_default() {
                prop_assert_eq!(
                    parse_span(&input, span).map(owned),
                    reference_parse_span(&input, span).map(owned),
                    "input {:?} span {:?}", input, span
                );
            }
            let whole = RecordSpan { start: 0, end: input.len(), line: 1 };
            prop_assert_eq!(
                parse_span(&input, whole).map(owned),
                reference_parse_span(&input, whole).map(owned),
                "input {:?} as one span", input
            );
        }
    }

    /// The error a document must fail with: `(line, message)`.
    fn csv_error(input: &str) -> (usize, String) {
        match read_frame(input) {
            Err(TabularError::Csv { line, message }) => (line, message),
            other => panic!("{input:?}: expected a CSV error, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_document() {
        let f = read_frame("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(f.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column("a").unwrap().as_f64(1), Some(3.0));
    }

    #[test]
    fn handles_quotes_commas_and_embedded_newlines() {
        let f = read_frame("t\n\"a, b\"\n\"line1\nline2\"\n\"he said \"\"hi\"\"\"\n").unwrap();
        let t = f.column("t").unwrap();
        assert_eq!(f.num_rows(), 3);
        assert_eq!(t.as_string(0).as_deref(), Some("a, b"));
        assert_eq!(t.as_string(1).as_deref(), Some("line1\nline2"));
        assert_eq!(t.as_string(2).as_deref(), Some("he said \"hi\""));
    }

    #[test]
    fn empty_unquoted_cell_is_missing_but_quoted_empty_is_not() {
        let f = read_frame("a,b\n,\"\"\nx,y\n").unwrap();
        let (a, b) = (f.column("a").unwrap(), f.column("b").unwrap());
        assert_eq!(a.as_string(0), None);
        assert_eq!(a.missing_count(), 1);
        assert_eq!(b.as_string(0).as_deref(), Some(""));
        assert_eq!(b.missing_count(), 0);
    }

    #[test]
    fn crlf_line_endings() {
        let f = read_frame("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(f.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.column("b").unwrap().as_f64(0), Some(2.0));
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        let f = read_frame("a\n1").unwrap();
        assert_eq!(f.num_rows(), 1);
    }

    #[test]
    fn ragged_rows_error_with_line_number() {
        assert_eq!(
            csv_error("a,b\n1\n"),
            (2, "expected 2 fields, found 1".to_string())
        );
    }

    #[test]
    fn unterminated_quote_errors() {
        assert_eq!(
            csv_error("a\n\"oops\n"),
            (3, "unterminated quoted field".to_string())
        );
    }

    #[test]
    fn read_frame_infers_types() {
        let f = read_frame("x,city,essay\n1.5,paris,hello there friend\n2.5,lyon,more words here\n3.5,paris,lots of unique text\n").unwrap();
        assert_eq!(f.column("x").unwrap().kind(), ColumnKind::Numeric);
        assert_eq!(f.column("city").unwrap().kind(), ColumnKind::Categorical);
    }

    #[test]
    fn roundtrip_preserves_cells() {
        let input = "a,b\n1,hello\n2,\"x,y\"\n";
        let f = read_frame(input).unwrap();
        let out = write_csv(&f);
        let f2 = read_frame(&out).unwrap();
        assert_eq!(f2.num_rows(), f.num_rows());
        assert_eq!(
            f2.column("b").unwrap().as_string(1),
            f.column("b").unwrap().as_string(1)
        );
    }

    #[test]
    fn duplicate_headers_get_suffixes() {
        let f = read_frame("a,a\n1,2\n").unwrap();
        assert_eq!(f.names(), &["a".to_string(), "a.1".to_string()]);
    }

    #[test]
    fn borrowed_cells_for_unquoted_fields() {
        let input = "a,b\nplain,\"quo,ted\"\n\"he said \"\"hi\"\"\",tail\n";
        let spans = scan_records(input).unwrap();
        assert_eq!(spans.len(), 3);
        let row1 = parse_span(input, spans[1]).unwrap();
        assert!(matches!(row1[0], Some(Cow::Borrowed("plain"))));
        assert!(matches!(row1[1], Some(Cow::Borrowed("quo,ted"))));
        let row2 = parse_span(input, spans[2]).unwrap();
        // Doubled quotes force an owned spill; the value is unchanged.
        assert_eq!(row2[0].as_deref(), Some("he said \"hi\""));
        assert!(matches!(row2[0], Some(Cow::Owned(_))));
        assert!(matches!(row2[1], Some(Cow::Borrowed("tail"))));
    }

    #[test]
    fn scanner_matches_machine_on_bare_cr_and_blank_lines() {
        // Bare \r ends a record; "\r\n" is one terminator; a lone "\n"
        // yields a single missing field (the legacy machine's behavior).
        let f = read_frame("a\rx\r\ny\n").unwrap();
        assert_eq!(f.names(), &["a".to_string()]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column("a").unwrap().as_string(0).as_deref(), Some("x"));
        let f2 = read_frame("\n\n").unwrap();
        assert_eq!(f2.names(), &["col0".to_string()]);
        assert_eq!(f2.num_rows(), 1);
        assert_eq!(f2.column("col0").unwrap().missing_count(), 1);
    }

    #[test]
    fn text_after_closing_quote_joins_field() {
        let f = read_frame("a\n\"x\"y\n").unwrap();
        assert_eq!(f.column("a").unwrap().as_string(0).as_deref(), Some("xy"));
        // ...but a quote opening after content is still an error.
        assert_eq!(
            csv_error("a\nx\"y\"\n"),
            (2, "quote inside unquoted field".to_string())
        );
    }

    #[test]
    fn duplicate_headers_survive_existing_suffix_collisions() {
        // `a.1` already exists; the dedup of the second `a` must not
        // collide with it.
        let f = read_frame("a,a.1,a\n1,2,3\n").unwrap();
        assert_eq!(f.num_columns(), 3);
        let mut names = f.names().to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}

/// Byte fuzz of the CSV reader against the row-major oracle.
///
/// Starting from valid seed documents (quoted fields with embedded
/// commas, newlines and doubled quotes; `\n`, `\r\n` and bare `\r`
/// endings; multi-byte text; missing markers; numeric, categorical and
/// text columns), each case applies random byte flips, a truncation, or
/// inserted quotes, commas and line breaks. The mutated bytes are read
/// back through `from_utf8_lossy`. [`read_frame`] and
/// [`read_chunked`](crate::read_chunked), at chunk sizes {1, 7, whole} ×
/// bounded {false, true}, must then agree with `oracle::read_frame`: both
/// `Ok` with equal fingerprints, or both the same `TabularError`. Neither
/// may panic.
#[cfg(test)]
mod fuzz {
    use super::{oracle, read_frame};
    use crate::{read_chunked, ChunkedReadOptions};
    use proptest::prelude::*;

    const SEEDS: [&str; 4] = [
        "x,city,note,flag\n1.5,paris,\"alpha, beta\",NA\n2.5,lyon,short,?\n\
         NA,paris,\"he said \"\"hi\"\"\",\n4.5,nice,\"two\nlines\",null\n",
        "id,score,label\r\n1,0.25,yes\r\n2,,no\r\n3,1e3,\"\"\r\n4,-7,yes\r\n",
        "a,b\rcafé,1\r日本,2\r🙂 smile,N/A\r,\r",
        "n,t\n1,one two three four five\n2,six seven eight nine ten\n\
         x,eleven twelve\n3,\"q \"\"uoted\"\" words here now\"\n",
    ];

    /// Bytes the insertion property splices in: structure and its escapes.
    const INSERTS: [&[u8]; 6] = [b"\"", b"\"\"", b",", b"\n", b"\r", b"\r\n"];

    /// Reads `bytes` (lossily decoded) with the oracle, with `read_frame`
    /// and with the chunked reader at every chunk size × memory mode, and
    /// requires the same outcome.
    fn readers_agree(bytes: &[u8]) -> Result<(), String> {
        let text = String::from_utf8_lossy(bytes);
        let expected = oracle::read_frame(&text).map(|f| f.fingerprint());
        let got = read_frame(&text).map(|f| f.fingerprint());
        if got != expected {
            return Err(format!("{text:?}: oracle {expected:?}, read_frame {got:?}"));
        }
        for chunk_rows in [1usize, 7, 1_000_000] {
            for bounded_memory in [false, true] {
                let opts = ChunkedReadOptions {
                    chunk_rows,
                    parallelism: 1,
                    bounded_memory,
                };
                let got = read_chunked(&text, &opts)
                    .and_then(|f| f.into_frame().map(|f| f.fingerprint()));
                if got != expected {
                    return Err(format!(
                        "{text:?}: chunk_rows={chunk_rows} bounded={bounded_memory}: \
                         oracle {expected:?}, read_chunked {got:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Position `at` ∈ [0, 1) scaled onto `0..=len`.
    fn scaled(at: f64, len: usize) -> usize {
        ((len as f64 * at) as usize).min(len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn byte_flips_read_like_the_oracle(
            which in 0usize..SEEDS.len(),
            flips in proptest::collection::vec((0.0f64..1.0, 1u32..256), 1..6),
        ) {
            let mut bytes = SEEDS[which].as_bytes().to_vec();
            for (at, mask) in flips {
                let i = scaled(at, bytes.len() - 1);
                bytes[i] ^= mask as u8;
            }
            readers_agree(&bytes)?;
        }

        #[test]
        fn truncations_read_like_the_oracle(which in 0usize..SEEDS.len(), keep in 0.0f64..1.0) {
            let bytes = SEEDS[which].as_bytes();
            readers_agree(&bytes[..scaled(keep, bytes.len())])?;
        }

        #[test]
        fn inserted_structure_reads_like_the_oracle(
            which in 0usize..SEEDS.len(),
            inserts in proptest::collection::vec((0.0f64..1.0, 0usize..INSERTS.len()), 1..5),
        ) {
            let mut bytes = SEEDS[which].as_bytes().to_vec();
            for (at, piece) in inserts {
                let i = scaled(at, bytes.len());
                bytes.splice(i..i, INSERTS[piece].iter().copied());
            }
            readers_agree(&bytes)?;
        }
    }

    /// The fuzz starts from valid inputs: every seed reads, with rows.
    #[test]
    fn unmutated_seeds_read_like_the_oracle() {
        for seed in SEEDS {
            let frame = read_frame(seed).unwrap();
            assert!(frame.num_rows() >= 4, "{seed:?}");
            readers_agree(seed.as_bytes()).unwrap();
        }
    }
}
