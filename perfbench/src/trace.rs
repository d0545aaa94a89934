//! In-memory span recording for the traced run.
//!
//! Each replay thread owns one [`Track`]. A span is a name, a start, an
//! end, the span that was open when it started (its parent) and the job
//! it belongs to. Spans stay in memory until the run ends, when
//! [`write_chrome_trace`] writes them out in the Chrome trace-event
//! format. A disabled track records nothing, so the same replay code
//! runs untraced to measure what the tracing itself costs.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `relation.rehydrate`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index (in the same track) of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span worked for.
    pub job: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Track {
    enabled: bool,
    epoch: Instant,
    /// Closed and still-open spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// When the thread started and stopped working, nanoseconds since the
    /// epoch: the wall the spans are attributed against.
    pub wall_ns: (u64, u64),
}

/// Handle of an open span; pass it back to [`Track::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

impl Track {
    /// A track whose clock starts at `epoch`. Disabled tracks record no
    /// spans.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        let now = epoch.elapsed().as_nanos() as u64;
        Track {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            wall_ns: (now, now),
        }
    }

    /// Whether the track records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Track::enter`]. Spans close in LIFO order.
    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(index), "spans must nest");
            self.spans[index].end_ns = self.now();
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, job);
        let out = f();
        self.exit(open);
        out
    }

    /// Marks the end of the thread's work.
    pub fn finish(&mut self) {
        self.wall_ns.1 = self.now();
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (children nest, so the union is their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] = out[parent].saturating_sub(span.dur_ns());
        }
    }
    out
}

/// Σ self time over Σ track wall: how much of the threads' time the spans
/// account for.
pub fn attributed_share(tracks: &[Track]) -> f64 {
    let wall: u64 = tracks.iter().map(|t| t.wall_ns.1 - t.wall_ns.0).sum();
    let attributed: u64 = tracks
        .iter()
        .map(|t| self_times(&t.spans).iter().sum::<u64>())
        .sum();
    crate::stats::ratio(attributed as f64, wall as f64)
}

/// Writes every span as a Chrome trace-event (`ph: "X"`) with the job id
/// and parent index as arguments.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_chrome_trace(path: &Path, tracks: &[Track]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, track) in tracks.iter().enumerate() {
        for span in &track.spans {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"job\":{},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.job,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                job: 0,
            },
            Span {
                name: "c",
                start_ns: 60,
                end_ns: 70,
                parent: Some(2),
                job: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn disabled_tracks_record_nothing_and_spans_nest() {
        let epoch = Instant::now();
        let mut off = Track::new(false, epoch);
        off.time("x", 0, || ());
        assert!(off.spans.is_empty());
        let mut on = Track::new(true, epoch);
        let outer = on.enter("outer", 3);
        on.time("inner", 3, || ());
        on.exit(outer);
        on.finish();
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.spans[0].start_ns <= on.spans[1].start_ns);
        assert!(on.spans[1].end_ns <= on.spans[0].end_ns);
        let share = attributed_share(&[on]);
        assert!(share > 0.0 && share <= 1.0);
    }
}
