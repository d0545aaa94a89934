//! The compact aggregate phase report: per-phase total/self time and
//! call counts, plus counters, rendered as aligned text.
//!
//! Spans from concurrent tracks (e.g. the engine's `wide-worker-*`
//! threads) are *never* merged into one nesting tree: each track gets its
//! own parent reconstruction, and the workspace-wide rows simply sum the
//! per-track phase totals. That makes cross-track sums legible — a phase
//! whose `total` exceeds the report wall ran concurrently on several
//! tracks, and the per-track rollup shows exactly where.

use crate::collector::{PhaseAgg, SpanRecord};
use crate::Category;

/// One phase (a `(category, name)` pair) in the aggregate report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// The phase's category.
    pub category: Category,
    /// The phase name.
    pub name: String,
    /// Completed span count.
    pub count: u64,
    /// Total wall time across all spans, microseconds.
    pub total_us: u64,
    /// Self time: total minus the portion covered by directly nested
    /// recorded spans on the same track and by folded spans credited to
    /// it ([`SpanRecord::folded_us`]), microseconds. A child that
    /// outlives its parent (clock jitter around guard drops) is clamped
    /// to the overlap, so a parent's self time never underflows and the
    /// per-track self times sum to at most the enclosing span. Phases
    /// kept only as aggregates (kernel ops by default) report
    /// `self_us == total_us`.
    pub self_us: u64,
}

/// The per-track slice of the report: one row set computed from the raw
/// spans recorded on a single track, with the same total/self semantics
/// as the workspace-wide rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackReport {
    /// The track's display name (see [`crate::track_names`]); tracks
    /// never named fall back to `track{id}`.
    pub track: String,
    /// Phase rows of this track, sorted by total time, largest first.
    pub rows: Vec<PhaseRow>,
}

impl TrackReport {
    /// Total time of the named phase on this track, microseconds
    /// (0 when absent).
    pub fn total_us(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.total_us)
            .sum()
    }
}

/// Aggregate per-phase accounting built from a recording.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Rows sorted by total time, largest first.
    pub rows: Vec<PhaseRow>,
    /// Per-track rollups in track-id order, raw recorded spans only
    /// (aggregate-only phases have no span records and appear solely in
    /// [`PhaseReport::rows`]).
    pub tracks: Vec<TrackReport>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Observed wall span of the recording (max end − min start over
    /// all recorded spans), microseconds.
    pub wall_us: u64,
}

impl PhaseReport {
    /// Builds the report from recorded spans plus the (possibly larger)
    /// aggregate set — phases folded to aggregates have no span records
    /// but still get a row.
    pub(crate) fn build(
        spans: &[SpanRecord],
        phases: &[(Category, &'static str, PhaseAgg)],
        counters: Vec<(String, u64)>,
        track_names: &[String],
    ) -> PhaseReport {
        // Reconstruct nesting per track to charge each span's duration
        // to its parent exactly once; self = total − children. The
        // charge is clamped to the parent/child overlap so a child that
        // straddles its parent's end never drains a sibling's (or the
        // parent's) self time.
        // Folded descendants (kernel ops kept only as aggregates) were
        // credited to their innermost recorded ancestor as they closed.
        let mut child_us: Vec<u64> = spans.iter().map(|s| s.folded_us.min(s.dur_us)).collect();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&spans[a], &spans[b]);
            sa.track
                .cmp(&sb.track)
                .then(sa.start_us.cmp(&sb.start_us))
                .then(sb.dur_us.cmp(&sa.dur_us))
                .then(sa.depth.cmp(&sb.depth))
        });
        let mut stack: Vec<usize> = Vec::new();
        let mut current_track = None;
        for &i in &order {
            let span = &spans[i];
            if current_track != Some(span.track) {
                stack.clear();
                current_track = Some(span.track);
            }
            while let Some(&top) = stack.last() {
                if spans[top].end_us() <= span.start_us {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                // Sorted by start within the track, so the overlap is
                // [span.start, min(ends)).
                let overlap = span
                    .end_us()
                    .min(spans[parent].end_us())
                    .saturating_sub(span.start_us);
                child_us[parent] = child_us[parent].saturating_add(overlap);
            }
            stack.push(i);
        }

        let mut nested: std::collections::BTreeMap<(Category, &'static str), u64> =
            std::collections::BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            *nested.entry((span.cat, span.name)).or_default() += child_us[i];
        }

        let mut rows: Vec<PhaseRow> = phases
            .iter()
            .map(|&(category, name, agg)| {
                let children = nested.get(&(category, name)).copied().unwrap_or(0);
                PhaseRow {
                    category,
                    name: name.to_string(),
                    count: agg.count,
                    total_us: agg.total_us,
                    self_us: agg.total_us.saturating_sub(children),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.name.cmp(&b.name))
        });

        // The per-track rollup: the same total/self accounting, but from
        // one track's raw spans only. This is where cross-track sums
        // become legible — concurrent workers each get their own rows.
        type PhaseAgg = std::collections::BTreeMap<(Category, &'static str), (u64, u64, u64)>;
        let mut per_track: std::collections::BTreeMap<u32, PhaseAgg> =
            std::collections::BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let slot = per_track
                .entry(span.track)
                .or_default()
                .entry((span.cat, span.name))
                .or_default();
            slot.0 += 1;
            slot.1 += span.dur_us;
            slot.2 += child_us[i];
        }
        let tracks = per_track
            .into_iter()
            .map(|(id, phases)| {
                let mut rows: Vec<PhaseRow> = phases
                    .into_iter()
                    .map(|((category, name), (count, total_us, children))| PhaseRow {
                        category,
                        name: name.to_string(),
                        count,
                        total_us,
                        self_us: total_us.saturating_sub(children),
                    })
                    .collect();
                rows.sort_by(|a, b| {
                    b.total_us
                        .cmp(&a.total_us)
                        .then_with(|| a.name.cmp(&b.name))
                });
                TrackReport {
                    track: track_names
                        .get(id as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("track{id}")),
                    rows,
                }
            })
            .collect();

        let wall_us = match (
            spans.iter().map(|s| s.start_us).min(),
            spans.iter().map(|s| s.end_us()).max(),
        ) {
            (Some(lo), Some(hi)) => hi.saturating_sub(lo),
            _ => 0,
        };

        PhaseReport {
            rows,
            tracks,
            counters,
            wall_us,
        }
    }

    /// Total time of the named phase, microseconds (0 when absent).
    pub fn total_us(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.total_us)
            .sum()
    }

    /// The first track whose rollup contains the named phase — e.g.
    /// `track_with("wide_solve")` finds the coordinator track so callers
    /// can compute attribution ratios against spans that actually nest
    /// under each other, instead of mixing in concurrent worker time.
    pub fn track_with(&self, name: &str) -> Option<&TrackReport> {
        self.tracks
            .iter()
            .find(|t| t.rows.iter().any(|r| r.name == name))
    }

    /// Renders the report as aligned text (the `--obs-report` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "phase report · wall {:.3} ms\n",
            self.wall_us as f64 / 1e3
        ));
        out.push_str(&format!(
            "  {:<10} {:<14} {:>10} {:>12} {:>12} {:>6}\n",
            "category", "phase", "count", "total ms", "self ms", "wall%"
        ));
        for row in &self.rows {
            let pct = if self.wall_us == 0 {
                0.0
            } else {
                100.0 * row.total_us as f64 / self.wall_us as f64
            };
            out.push_str(&format!(
                "  {:<10} {:<14} {:>10} {:>12.3} {:>12.3} {:>5.1}%\n",
                row.category.label(),
                row.name,
                row.count,
                row.total_us as f64 / 1e3,
                row.self_us as f64 / 1e3,
                pct
            ));
        }
        if self.tracks.len() > 1 {
            out.push_str("  per-track self time:\n");
            for track in &self.tracks {
                let detail = track
                    .rows
                    .iter()
                    .filter(|row| row.self_us > 0)
                    .take(6)
                    .map(|row| format!("{} {:.3}", row.name, row.self_us as f64 / 1e3))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!("    {:<16} {detail}\n", track.track));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("    {name:<40} {value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ArgList;

    fn span(name: &'static str, track: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            cat: Category::Engine,
            name,
            track,
            start_us,
            dur_us,
            depth: 0,
            args: ArgList::new(),
            folded_us: 0,
        }
    }

    fn agg_of(spans: &[SpanRecord]) -> Vec<(Category, &'static str, PhaseAgg)> {
        let mut phases: std::collections::BTreeMap<(Category, &'static str), PhaseAgg> =
            Default::default();
        for s in spans {
            let agg = phases.entry((s.cat, s.name)).or_default();
            agg.count += 1;
            agg.total_us += s.dur_us;
        }
        phases
            .into_iter()
            .map(|((cat, name), agg)| (cat, name, agg))
            .collect()
    }

    fn build(spans: &[SpanRecord], names: &[&str]) -> PhaseReport {
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        PhaseReport::build(spans, &agg_of(spans), Vec::new(), &names)
    }

    /// The double-counting regression: on every track, the self times of
    /// the phases recorded there must sum to no more than the track's
    /// enclosing span — even when a child span partially overlaps its
    /// parent's end (clock jitter around guard drops), and even when a
    /// concurrent track records the same phase names.
    #[test]
    fn per_track_self_times_sum_to_at_most_the_enclosing_span() {
        let spans = vec![
            // Track 0: solve [0,100) with two proper children.
            span("solve", 0, 0, 100),
            span("expand", 0, 10, 30),
            span("rehydrate", 0, 50, 20),
            // Track 1: drive [0,80), one proper child and one child that
            // straddles the drive's end — only the overlap may be charged.
            span("drive", 1, 0, 80),
            span("expand", 1, 5, 25),
            span("rehydrate", 1, 70, 25), // ends at 95, past drive's 80
        ];
        let report = build(&spans, &["main", "wide-worker-1"]);

        assert_eq!(report.tracks.len(), 2);
        // Self times are a partition of each track's observed wall: they
        // sum to no more than it (exactly it here, since every instant
        // is covered by some span). Unclamped charging would break this
        // by billing the straddling child's out-of-parent tail twice.
        for (track, wall) in report.tracks.iter().zip([100u64, 95]) {
            let self_sum: u64 = track.rows.iter().map(|row| row.self_us).sum();
            assert!(
                self_sum <= wall,
                "track {}: self times sum to {self_sum} us inside a {wall} us wall",
                track.track
            );
            assert_eq!(self_sum, wall, "track {} left gaps", track.track);
        }

        // The straddling child is clamped to its 10 us overlap: drive
        // keeps 80 − 25 − 10 = 45 us of self time, not 80 − 25 − 25.
        let worker = report.track_with("drive").expect("worker track");
        assert_eq!(worker.track, "wide-worker-1");
        let drive = worker.rows.iter().find(|r| r.name == "drive").unwrap();
        assert_eq!(drive.self_us, 45);

        // Workspace-wide rows still sum both tracks' raw time — the
        // concurrency is visible, not hidden.
        assert_eq!(report.total_us("expand"), 55);
        assert_eq!(report.total_us("rehydrate"), 45);
    }

    /// Concurrent tracks never nest under each other: a worker span that
    /// sits inside the coordinator's wall-clock window must not be
    /// charged to the coordinator's span.
    #[test]
    fn tracks_are_attributed_independently() {
        let spans = vec![span("wide_solve", 0, 0, 100), span("drive", 1, 20, 60)];
        let report = build(&spans, &["main"]);
        let solve = report.rows.iter().find(|r| r.name == "wide_solve").unwrap();
        assert_eq!(solve.self_us, 100, "cross-track span charged as a child");
        assert_eq!(report.track_with("drive").unwrap().track, "track1");
        assert!(report.render().contains("per-track self time:"));
    }
}
