//! The [`Collector`] trait and its three implementations: null,
//! counting, and recording.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use crate::report::PhaseReport;
use crate::Category;

/// A fixed-capacity list of `(key, value)` span/event arguments. Kept
/// inline (no allocation) so attaching args to a hot span is cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArgList {
    entries: [Option<(&'static str, u64)>; Self::CAPACITY],
}

impl ArgList {
    /// Maximum number of arguments a span or event can carry.
    pub const CAPACITY: usize = 3;

    /// An empty argument list.
    pub fn new() -> ArgList {
        ArgList::default()
    }

    /// Appends an argument; silently dropped once full.
    pub fn push(&mut self, key: &'static str, value: u64) {
        for slot in &mut self.entries {
            if slot.is_none() {
                *slot = Some((key, value));
                return;
            }
        }
    }

    /// Iterates the populated arguments in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().filter_map(|slot| *slot)
    }

    /// Whether no arguments are attached.
    pub fn is_empty(&self) -> bool {
        self.entries[0].is_none()
    }
}

/// A completed span, reported to the collector when its guard drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's category.
    pub cat: Category,
    /// Static phase name (e.g. `"expand"`, `"barrier_wait"`).
    pub name: &'static str,
    /// Track id the span ran on; see [`crate::track_names`].
    pub track: u32,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u32,
    /// Attached integer arguments.
    pub args: ArgList,
    /// Total duration of the *folded* spans (see [`Collector::folds`])
    /// that ran inside this span on its thread with no recorded span in
    /// between, microseconds. The phase report charges it as child time,
    /// so kernel ops kept only as aggregates still leave their parent's
    /// self time.
    pub folded_us: u64,
}

impl SpanRecord {
    /// End timestamp, microseconds since the trace epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// An instant event (zero-duration marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The event's category.
    pub cat: Category,
    /// Static event name (e.g. `"improved"`, `"warm_hit"`).
    pub name: &'static str,
    /// Track id the event fired on.
    pub track: u32,
    /// Timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Attached integer arguments.
    pub args: ArgList,
}

/// Sink for completed spans, events, and counters. Implementations must
/// be thread-safe: spans arrive concurrently from every worker thread.
pub trait Collector: Send + Sync {
    /// The category mask this collector wants armed while installed.
    fn mask(&self) -> u32;
    /// Receives a completed span.
    fn span(&self, record: SpanRecord);
    /// Receives an instant event.
    fn event(&self, record: EventRecord);
    /// Adds `delta` to the named counter.
    fn add(&self, counter: &'static str, delta: u64);
    /// Whether spans of `cat` are folded into aggregates only, leaving no
    /// individual record. The span layer then credits their durations to
    /// the innermost recorded span open on the same thread
    /// ([`SpanRecord::folded_us`]).
    fn folds(&self, _cat: Category) -> bool {
        false
    }
}

/// Records nothing and arms no categories — the implicit default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn mask(&self) -> u32 {
        0
    }
    fn span(&self, _record: SpanRecord) {}
    fn event(&self, _record: EventRecord) {}
    fn add(&self, _counter: &'static str, _delta: u64) {}
}

/// Per-phase aggregate: call count and total duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAgg {
    /// Number of completed spans of this phase.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
}

#[derive(Default)]
struct AggState {
    phases: BTreeMap<(Category, &'static str), PhaseAgg>,
    events: BTreeMap<(Category, &'static str), u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl AggState {
    fn absorb_span(&mut self, record: &SpanRecord) {
        let agg = self.phases.entry((record.cat, record.name)).or_default();
        agg.count += 1;
        agg.total_us = agg.total_us.saturating_add(record.dur_us);
    }
}

/// Keeps only per-phase aggregates (counts, total durations) and
/// counters — no individual records, bounded memory.
#[derive(Default)]
pub struct CountingCollector {
    mask: u32,
    state: Mutex<AggState>,
}

impl CountingCollector {
    /// A counting collector armed for the given category mask
    /// (e.g. [`Category::ALL`]).
    pub fn new(mask: u32) -> CountingCollector {
        CountingCollector {
            mask,
            state: Mutex::default(),
        }
    }

    /// Snapshot of the per-phase aggregates, sorted by (category, name).
    pub fn phases(&self) -> Vec<(Category, &'static str, PhaseAgg)> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state
            .phases
            .iter()
            .map(|(&(cat, name), &agg)| (cat, name, agg))
            .collect()
    }

    /// Snapshot of the named counters (explicit [`crate::count`] calls
    /// plus one `events.<name>` count per event name), sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        collect_counters(&state)
    }
}

fn collect_counters(state: &AggState) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = state
        .counters
        .iter()
        .map(|(&name, &v)| (name.to_string(), v))
        .collect();
    for (&(cat, name), &v) in &state.events {
        out.push((format!("events.{}.{}", cat.label(), name), v));
    }
    out.sort();
    out
}

impl Collector for CountingCollector {
    fn mask(&self) -> u32 {
        self.mask
    }

    fn span(&self, record: SpanRecord) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb_span(&record);
    }

    fn event(&self, record: EventRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state.events.entry((record.cat, record.name)).or_default() += 1;
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state.counters.entry(counter).or_default() += delta;
    }
}

#[derive(Default)]
struct RecordingState {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    agg: AggState,
}

/// Captures every span and event for Chrome-trace export and the
/// aggregate [`PhaseReport`].
///
/// [`Category::KernelOp`] spans (`ite`/quantify/ISOP — easily millions
/// per solve) are by default folded into the aggregates only, keeping
/// `trace.json` bounded; their time still leaves the self time of the
/// recorded span they ran in ([`SpanRecord::folded_us`]). Construct with
/// [`RecordingCollector::detailed`] to keep their individual records too.
#[derive(Default)]
pub struct RecordingCollector {
    mask: u32,
    kernel_op_detail: bool,
    state: Mutex<RecordingState>,
}

impl RecordingCollector {
    /// A recording collector armed for every category, kernel ops
    /// aggregated.
    pub fn new() -> RecordingCollector {
        RecordingCollector::with_mask(Category::ALL)
    }

    /// A recording collector armed for `mask`, kernel ops aggregated.
    pub fn with_mask(mask: u32) -> RecordingCollector {
        RecordingCollector {
            mask,
            kernel_op_detail: false,
            state: Mutex::default(),
        }
    }

    /// Like [`RecordingCollector::new`] but keeps an individual record
    /// for every kernel op span. Traces get large quickly.
    pub fn detailed() -> RecordingCollector {
        RecordingCollector {
            mask: Category::ALL,
            kernel_op_detail: true,
            state: Mutex::default(),
        }
    }

    /// Clones the recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spans
            .clone()
    }

    /// Clones the recorded instant events.
    pub fn events(&self) -> Vec<EventRecord> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .clone()
    }

    /// Snapshot of the named counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        collect_counters(&state.agg)
    }

    /// Renders everything recorded so far as Chrome trace-event JSON
    /// (load in Perfetto or `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        crate::chrome::chrome_trace(&state.spans, &state.events, &crate::track_names())
    }

    /// Builds the aggregate per-phase report (total/self time, counts)
    /// from everything recorded so far.
    pub fn phase_report(&self) -> PhaseReport {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let phases = state
            .agg
            .phases
            .iter()
            .map(|(&(cat, name), &agg)| (cat, name, agg))
            .collect::<Vec<_>>();
        PhaseReport::build(
            &state.spans,
            &phases,
            collect_counters(&state.agg),
            &crate::track_names(),
        )
    }

    /// Discards all recorded data, keeping the collector installed.
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = RecordingState::default();
    }
}

impl Collector for RecordingCollector {
    fn mask(&self) -> u32 {
        self.mask
    }

    fn span(&self, record: SpanRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.agg.absorb_span(&record);
        if !self.folds(record.cat) {
            state.spans.push(record);
        }
    }

    fn folds(&self, cat: Category) -> bool {
        cat == Category::KernelOp && !self.kernel_op_detail
    }

    fn event(&self, record: EventRecord) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state
            .agg
            .events
            .entry((record.cat, record.name))
            .or_default() += 1;
        state.events.push(record);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state.agg.counters.entry(counter).or_default() += delta;
    }
}
