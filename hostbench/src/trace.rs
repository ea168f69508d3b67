//! In-memory spans around the benchmark's calls into the simulator,
//! written out as one Chrome trace-event file when the run ends.
//!
//! Track 1 holds host time. Track 2 holds modeled time: each forward's
//! layers laid end to end at the simulated clock, starting where the host
//! forward started, so host and modeled time of every layer sit side by
//! side.

use std::fmt::Write as _;
use std::path::Path;

use crate::metrics::{json_number, json_string};
use crate::HostTime;

/// One host-time span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: HostTime,
    end: HostTime,
    parent: Option<usize>,
    modeled_cycles: u64,
}

/// One modeled-time span (track 2).
#[derive(Debug, Clone)]
struct Modeled {
    name: String,
    start_us: f64,
    cycles: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: HostTime,
    clock_mhz: f64,
    spans: Vec<Span>,
    modeled: Vec<Modeled>,
}

impl Tracer {
    /// A recorder whose modeled track runs at `clock_mhz`.
    #[must_use]
    pub fn new(epoch: HostTime, clock_mhz: f64) -> Self {
        Self {
            epoch,
            clock_mhz,
            spans: Vec::new(),
            modeled: Vec::new(),
        }
    }

    /// Opens a span now and returns its id.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = crate::now();
        self.record(name, parent, now, now, 0)
    }

    /// Closes span `id` now, carrying the call's modeled cycles.
    pub fn end(&mut self, id: usize, modeled_cycles: u64) {
        let now = crate::now();
        let span = &mut self.spans[id];
        span.end = now;
        span.modeled_cycles = modeled_cycles;
    }

    /// Records a span timed elsewhere and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: HostTime,
        end: HostTime,
        modeled_cycles: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            modeled_cycles,
        });
        self.spans.len() - 1
    }

    /// Host duration of span `id` in microseconds.
    #[must_use]
    pub fn duration_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.duration_since(s.start).as_secs_f64() * 1e6
    }

    /// Lays `layers` (name, modeled cycles) end to end on the modeled
    /// track, starting at host span `anchor`'s start.
    pub fn modeled_track(&mut self, anchor: usize, layers: &[(String, u64)]) {
        let mut at = self.us(self.spans[anchor].start);
        for (name, cycles) in layers {
            self.modeled.push(Modeled {
                name: name.clone(),
                start_us: at,
                cycles: *cycles,
            });
            at += *cycles as f64 / self.clock_mhz;
        }
    }

    fn us(&self, t: HostTime) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Writes the trace, with `other` (a JSON object) as its metadata.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_chrome(&self, path: &Path, other: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        out.push_str(
            "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 1, \
             \"args\": {\"name\": \"host time\"}},\n\
             {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": 2, \
             \"args\": {\"name\": \"modeled time\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": {}, \"ts\": {}, \
                 \"dur\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"modeled_cycles\": {}}}}}",
                json_string(&s.name),
                json_number(self.us(s.start)),
                json_number(self.duration_us(id)),
                s.modeled_cycles
            );
        }
        for m in &self.modeled {
            let _ = write!(
                out,
                ",\n{{\"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"name\": {}, \"ts\": {}, \
                 \"dur\": {}, \"args\": {{\"modeled_cycles\": {}}}}}",
                json_string(&m.name),
                json_number(m.start_us),
                json_number(m.cycles as f64 / self.clock_mhz),
                m.cycles
            );
        }
        let _ = write!(out, "\n], \"otherData\": {other}}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
