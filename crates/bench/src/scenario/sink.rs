//! Output backends for the scenario engine.
//!
//! A scenario produces two parallel streams: the **text** stream (the
//! human tables every `exp_*` binary has always printed — byte-identical
//! to the pre-engine output) and the **record** stream (structured
//! per-row measurements). A [`Sink`] consumes either or both:
//!
//! * [`TableSink`] prints the text stream to any writer (stdout for the
//!   binaries, a buffer for the golden tests) and ignores records.
//! * [`JsonSink`] ignores text and serializes records into a JSON array
//!   (one object per line — diff-friendly), e.g. `BENCH_scenarios.json`,
//!   so step-complexity trajectories persist across PRs.
//!
//! No serde in the container, so the JSON writer is hand-rolled: only
//! strings, unsigned integers and finite floats are emitted.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, step complexities).
    U64(u64),
    /// Finite float (means, normalized ratios). Non-finite values
    /// serialize as `null`.
    F64(f64),
    /// Free-form string (keys, display names).
    Str(String),
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) if v.is_finite() => format!("{v}"),
            Value::F64(_) => "null".into(),
            Value::Str(s) => json_string(s),
        }
    }
}

/// One structured measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Scenario id (`"E1"`, `"MATRIX"`, …).
    pub scenario: String,
    /// Section title within the scenario (empty for single-table runs).
    pub section: String,
    /// Ordered `(name, value)` fields.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// Converts this record into the report crate's parsed form — the
    /// exact shape `rr_report::parse_records` yields from a [`JsonSink`]
    /// file, including mapping non-finite floats to `Null` the way the
    /// JSON writer serializes them. The single conversion path
    /// `exp_report`'s run mode and the end-to-end tests share.
    pub fn to_report_rec(&self) -> rr_report::Rec {
        let mut fields = vec![
            ("scenario".to_string(), rr_report::records::Value::Str(self.scenario.clone())),
            ("section".to_string(), rr_report::records::Value::Str(self.section.clone())),
        ];
        for (k, v) in &self.fields {
            let value = match v {
                Value::U64(x) => rr_report::records::Value::U64(*x),
                Value::F64(x) if x.is_finite() => rr_report::records::Value::F64(*x),
                Value::F64(_) => rr_report::records::Value::Null,
                Value::Str(s) => rr_report::records::Value::Str(s.clone()),
            };
            fields.push((k.clone(), value));
        }
        rr_report::Rec { fields }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"scenario\":{}", json_string(&self.scenario)));
        out.push_str(&format!(",\"section\":{}", json_string(&self.section)));
        for (k, v) in &self.fields {
            out.push_str(&format!(",{}:{}", json_string(k), v.to_json()));
        }
        out.push('}');
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A scenario output backend; see the module docs.
pub trait Sink {
    /// Consumes one text chunk (a line or a pre-rendered multi-line
    /// table); the chunk is terminated with a newline on print.
    fn text(&mut self, chunk: &str);

    /// Consumes one structured record.
    fn record(&mut self, record: &Record);

    /// Flushes buffered output (e.g. writes the JSON file).
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Forwarding impl so a sink can be attached by mutable borrow — the
/// report pipeline lends `&mut ReportSink` to the engine and keeps
/// ownership of the collected records.
impl<S: Sink + ?Sized> Sink for &mut S {
    fn text(&mut self, chunk: &str) {
        (**self).text(chunk);
    }

    fn record(&mut self, record: &Record) {
        (**self).record(record);
    }

    fn finish(&mut self) -> io::Result<()> {
        (**self).finish()
    }
}

/// Prints the text stream to a writer — stdout in the binaries, a byte
/// buffer in the golden tests. Ignores records. The first failed write
/// (say, a reader that closed the pipe) stops the printing and is
/// returned by [`Sink::finish`], so the run itself carries on and its
/// other sinks stay complete.
#[derive(Debug)]
pub struct TableSink<W: Write> {
    out: W,
    failed: Option<io::Error>,
}

impl TableSink<io::Stdout> {
    /// The binaries' stdout sink.
    pub fn stdout() -> Self {
        Self::new(io::stdout())
    }
}

impl<W: Write> TableSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        Self { out, failed: None }
    }
}

impl<W: Write> Sink for TableSink<W> {
    fn text(&mut self, chunk: &str) {
        if self.failed.is_none() {
            self.failed = writeln!(self.out, "{chunk}").err();
        }
    }

    fn record(&mut self, _record: &Record) {}

    fn finish(&mut self) -> io::Result<()> {
        match self.failed.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

/// Finishes every sink, so a closed stdout still leaves the `--json` file
/// complete, and returns the first error.
///
/// # Errors
/// The first sink's [`Sink::finish`] error, in sink order.
pub fn finish_all(sinks: &mut [Box<dyn Sink + '_>]) -> io::Result<()> {
    let mut first = Ok(());
    for sink in sinks.iter_mut() {
        let result = sink.finish();
        if first.is_ok() {
            first = result;
        }
    }
    first
}

/// Checks that `path` can be written, so a bad `--json` or `--out` path
/// is refused before anything runs instead of after the whole sweep.
/// The probe opens the file for appending, which leaves an existing
/// file's contents as they are, and removes the file again if the probe
/// created it.
///
/// # Errors
/// `cannot write `PATH`: REASON` when the file cannot be opened.
pub fn check_writable(path: &Path) -> Result<(), String> {
    let existed = path.symlink_metadata().is_ok();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    if !existed {
        // Another probe of the same path may have removed it already.
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Buffers records and writes them as a JSON array on finish. Ignores
/// text.
#[derive(Debug)]
pub struct JsonSink {
    path: PathBuf,
    records: Vec<String>,
}

impl JsonSink {
    /// Will write to `path` on [`Sink::finish`].
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), records: Vec::new() }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonSink {
    fn text(&mut self, _chunk: &str) {}

    fn record(&mut self, record: &Record) {
        self.records.push(record.to_json());
    }

    fn finish(&mut self) -> io::Result<()> {
        let body = if self.records.is_empty() {
            "[]\n".to_string()
        } else {
            format!("[\n{}\n]\n", self.records.join(",\n"))
        };
        std::fs::write(&self.path, body)
    }
}

/// Collects the record stream in memory — the sink behind `exp_report`:
/// the engine runs claim scenarios against a `ReportSink`, then the
/// report generator consumes [`ReportSink::records`] directly instead of
/// round-tripping through a JSON file. Ignores text.
#[derive(Debug, Default)]
pub struct ReportSink {
    records: Vec<Record>,
}

impl ReportSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The records collected so far, in emission order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the sink, returning the collected records.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

impl Sink for ReportSink {
    fn text(&mut self, _chunk: &str) {}

    fn record(&mut self, record: &Record) {
        self.records.push(record.clone());
    }
}

/// The handle custom scenario sections emit through: fans text and
/// records out to every attached sink.
pub struct Emitter<'a, 'b> {
    sinks: &'a mut [Box<dyn Sink + 'b>],
}

impl<'a, 'b> Emitter<'a, 'b> {
    /// Wraps a sink set.
    pub fn new(sinks: &'a mut [Box<dyn Sink + 'b>]) -> Self {
        Self { sinks }
    }

    /// Emits one text chunk (printed with a trailing newline).
    pub fn text(&mut self, chunk: impl AsRef<str>) {
        for sink in self.sinks.iter_mut() {
            sink.text(chunk.as_ref());
        }
    }

    /// Emits one structured record.
    pub fn record(&mut self, record: &Record) {
        for sink in self.sinks.iter_mut() {
            sink.record(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            scenario: "E1".into(),
            section: String::new(),
            fields: vec![
                ("algorithm".into(), Value::Str("tight-tau:c=4".into())),
                ("n".into(), Value::U64(1024)),
                ("ratio".into(), Value::F64(3.5)),
                ("bad".into(), Value::F64(f64::NAN)),
            ],
        }
    }

    #[test]
    fn record_serializes_flat_json() {
        assert_eq!(
            sample().to_json(),
            "{\"scenario\":\"E1\",\"section\":\"\",\"algorithm\":\"tight-tau:c=4\",\
             \"n\":1024,\"ratio\":3.5,\"bad\":null}"
        );
    }

    /// The in-memory conversion and the JSON file round trip are the
    /// same function: what `exp_report`'s run mode feeds the evaluator
    /// is byte-equivalent to re-parsing its own `--json` output,
    /// including non-finite floats becoming `Null`.
    #[test]
    fn report_rec_conversion_matches_the_json_round_trip() {
        let rec = sample();
        let via_json = rr_report::parse_records(&format!("[\n{}\n]\n", rec.to_json())).unwrap();
        assert_eq!(vec![rec.to_report_rec()], via_json);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }

    /// A writer whose reader has gone: every write fails as a closed
    /// pipe does.
    struct ClosedPipe {
        writes: usize,
    }

    impl Write for ClosedPipe {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A failed write neither panics nor repeats: the sink stops at the
    /// first error and hands it to `finish`, and `finish_all` still
    /// finishes the sinks after it.
    #[test]
    fn table_sink_keeps_its_first_write_error_for_finish() {
        let dir = std::env::temp_dir().join(format!("rr-sink-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let mut pipe = ClosedPipe { writes: 0 };
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> =
                vec![Box::new(TableSink::new(&mut pipe)), Box::new(JsonSink::new(&path))];
            let mut em = Emitter::new(&mut sinks);
            em.text("header");
            em.text("row");
            em.record(&sample());
            let err = finish_all(&mut sinks).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        }
        assert_eq!(pipe.writes, 1, "the sink stops writing after the first failure");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rr_report::parse_records(&body).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_sink_writes_lines_and_ignores_records() {
        let mut buf = Vec::new();
        {
            let mut sink = TableSink::new(&mut buf);
            sink.text("hello");
            sink.record(&sample());
            sink.text("world");
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "hello\nworld\n");
    }

    #[test]
    fn json_sink_round_trips_through_file() {
        let path = std::env::temp_dir().join(format!("rr_sink_test_{}.json", std::process::id()));
        let mut sink = JsonSink::new(&path);
        sink.text("ignored");
        sink.record(&sample());
        sink.record(&sample());
        sink.finish().unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(body.starts_with("[\n{\"scenario\":\"E1\""));
        assert!(body.ends_with("}\n]\n"));
        assert_eq!(body.matches("\"n\":1024").count(), 2);
    }

    #[test]
    fn empty_json_sink_writes_empty_array() {
        let path = std::env::temp_dir().join(format!("rr_sink_empty_{}.json", std::process::id()));
        let mut sink = JsonSink::new(&path);
        assert_eq!(sink.path(), path.as_path());
        sink.finish().unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(body, "[]\n");
    }

    #[test]
    fn check_writable_keeps_existing_files_and_leaves_no_new_ones() {
        let dir = std::env::temp_dir();
        let kept = dir.join(format!("rr_sink_kept_{}.json", std::process::id()));
        std::fs::write(&kept, "keep").unwrap();
        check_writable(&kept).unwrap();
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "keep");
        std::fs::remove_file(&kept).ok();
        let fresh = dir.join(format!("rr_sink_fresh_{}.json", std::process::id()));
        check_writable(&fresh).unwrap();
        assert!(!fresh.exists(), "the probe removes the file it created");
        let missing = dir.join(format!("rr_sink_missing_{}", std::process::id())).join("x.json");
        let err = check_writable(&missing).unwrap_err();
        assert!(err.starts_with(&format!("cannot write `{}`: ", missing.display())), "{err}");
    }

    #[test]
    fn emitter_fans_out() {
        let mut buf = Vec::new();
        {
            let mut sinks: Vec<Box<dyn Sink + '_>> = vec![Box::new(TableSink::new(&mut buf))];
            let mut em = Emitter::new(&mut sinks);
            em.text("line");
            em.record(&sample());
        }
        assert_eq!(String::from_utf8(buf).unwrap(), "line\n");
    }
}
