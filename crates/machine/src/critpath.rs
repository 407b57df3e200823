//! Critical-path profiler: where did the makespan actually go?
//!
//! Given the completed span/flow graph of a run ([`crate::trace::Span`]) and
//! the final per-PE clocks, this module extracts the *blocking chain* that
//! determined the final virtual time and attributes every nanosecond of it
//! to one of five categories:
//!
//! - **compute** — the PE on the chain was executing (or idle between spans);
//! - **wire** — latency + serialization of payloads on the chain;
//! - **nic contention** — time a chain operation sat in a NIC queue behind
//!   earlier traffic (the `queue_ns` breakdown from the NIC model);
//! - **synchronization** — barrier/wait time after the last arriver showed
//!   up, and waits on remote flags;
//! - **fault delay** — injected-fault detection timeouts and retry backoff.
//!
//! The module holds the one backward span walker ([`walk`]) and the one
//! span classifier behind it; the per-request latency tiling of
//! [`crate::tailprof`] runs the same walk over one request's spans. The walk
//! runs **backwards** from the end of an interval, always charging the
//! innermost span covering the cursor. For the whole run it starts on the PE
//! that finished last and, at a barrier, hops to the *last arriver* (the PE
//! that actually gated the barrier); at a quiet it pairs the wait with the
//! flow whose remote completion bounded it and splits that flow's queue time
//! out as NIC contention. The emitted segments tile `[0, makespan]` exactly
//! — by construction the category totals sum to the run's total virtual
//! time, which is the invariant the acceptance tests check.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::{Span, SpanKind};

/// One phase of a request's latency — and, through [`PathCategory::of`],
/// of the run's critical path. The classifier charges every walked slice
/// to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqPhase {
    /// Admitted (open-loop arrival) but the serving PE had not started yet.
    QueueWait,
    /// NIC lane occupancy of the ops the request issued.
    Wire,
    /// Time the request's ops waited behind earlier traffic on the NICs.
    NicContention,
    /// Barriers, waits, and completion stalls not bounded by a known flow.
    Synchronization,
    /// Fault detection timeouts and retry backoff.
    FaultDelay,
    /// The serving PE's own compute, plus any untraced residue.
    HandlerCompute,
}

/// Every phase, in presentation (and tie-break) order.
pub const REQ_PHASES: [ReqPhase; 6] = [
    ReqPhase::QueueWait,
    ReqPhase::Wire,
    ReqPhase::NicContention,
    ReqPhase::Synchronization,
    ReqPhase::FaultDelay,
    ReqPhase::HandlerCompute,
];

impl ReqPhase {
    pub fn label(self) -> &'static str {
        match self {
            ReqPhase::QueueWait => "queue_wait",
            ReqPhase::Wire => "wire",
            ReqPhase::NicContention => "nic_contention",
            ReqPhase::Synchronization => "synchronization",
            ReqPhase::FaultDelay => "fault_delay",
            ReqPhase::HandlerCompute => "handler_compute",
        }
    }

    pub fn parse(s: &str) -> Option<ReqPhase> {
        REQ_PHASES.into_iter().find(|p| p.label() == s)
    }

    /// The phase holding the most time in `phase_ns` ([`REQ_PHASES`]
    /// order; ties break in that order).
    pub fn dominant(phase_ns: &[u64; 6]) -> ReqPhase {
        let mut best = 0usize;
        for (i, &v) in phase_ns.iter().enumerate() {
            if v > phase_ns[best] {
                best = i;
            }
        }
        REQ_PHASES[best]
    }
}

/// Attribution category for a slice of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathCategory {
    Compute,
    Wire,
    NicContention,
    Synchronization,
    FaultDelay,
}

/// All categories, in display order.
pub const CATEGORIES: [PathCategory; 5] = [
    PathCategory::Compute,
    PathCategory::Wire,
    PathCategory::NicContention,
    PathCategory::Synchronization,
    PathCategory::FaultDelay,
];

impl PathCategory {
    pub fn label(self) -> &'static str {
        match self {
            PathCategory::Compute => "compute",
            PathCategory::Wire => "wire",
            PathCategory::NicContention => "nic_contention",
            PathCategory::Synchronization => "synchronization",
            PathCategory::FaultDelay => "fault_delay",
        }
    }

    /// Inverse of [`PathCategory::label`], for reading serialized reports.
    pub fn parse(s: &str) -> Option<PathCategory> {
        CATEGORIES.iter().copied().find(|c| c.label() == s)
    }

    /// The category of a walked slice. The walker charges gaps and compute
    /// spans to handler compute and never emits queue wait (that is the
    /// open-loop backlog before a request's walk begins).
    pub fn of(phase: ReqPhase) -> PathCategory {
        match phase {
            ReqPhase::HandlerCompute => PathCategory::Compute,
            ReqPhase::Wire => PathCategory::Wire,
            ReqPhase::NicContention => PathCategory::NicContention,
            ReqPhase::Synchronization => PathCategory::Synchronization,
            ReqPhase::FaultDelay => PathCategory::FaultDelay,
            ReqPhase::QueueWait => unreachable!("the span walker never emits queue wait"),
        }
    }
}

/// One slice of the blocking chain. Segments are chronological and tile
/// `[0, makespan]` with no gaps or overlaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// The PE the chain ran through during this slice.
    pub pe: usize,
    pub category: PathCategory,
    /// Virtual-time window, ns.
    pub begin: u64,
    pub end: u64,
    /// The span kind (or "idle") this slice was attributed from.
    pub what: &'static str,
}

impl PathSegment {
    pub fn duration_ns(&self) -> u64 {
        self.end - self.begin
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPathReport {
    pub makespan_ns: u64,
    /// Chronological slices tiling `[0, makespan]`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPathReport {
    /// Total attributed time per category, in [`CATEGORIES`] order.
    /// The values sum to [`CriticalPathReport::makespan_ns`].
    pub fn totals_ns(&self) -> [(PathCategory, u64); 5] {
        let mut totals = CATEGORIES.map(|c| (c, 0u64));
        for seg in &self.segments {
            let slot = totals.iter_mut().find(|(c, _)| *c == seg.category).unwrap();
            slot.1 += seg.duration_ns();
        }
        totals
    }

    /// Sum of all segment durations; equals the makespan by construction.
    pub fn total_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.duration_ns()).sum()
    }

    /// Human-readable breakdown.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path: {} ns total across {} segments\n",
            self.makespan_ns,
            self.segments.len()
        );
        for (cat, ns) in self.totals_ns() {
            let pct = if self.makespan_ns > 0 {
                100.0 * ns as f64 / self.makespan_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!("  {:<16} {:>14} ns  {:>5.1}%\n", cat.label(), ns, pct));
        }
        out
    }

    /// JSON export (stable field order).
    pub fn to_json(&self) -> Json {
        let totals = self
            .totals_ns()
            .iter()
            .map(|&(c, ns)| (c.label().to_string(), Json::uint(ns as usize)))
            .collect();
        let segments = self
            .segments
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("pe".to_string(), Json::uint(s.pe)),
                    ("category".to_string(), Json::str(s.category.label())),
                    ("begin_ns".to_string(), Json::uint(s.begin as usize)),
                    ("end_ns".to_string(), Json::uint(s.end as usize)),
                    ("what".to_string(), Json::str(s.what)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("makespan_ns".to_string(), Json::uint(self.makespan_ns as usize)),
            ("totals_ns".to_string(), Json::Object(totals)),
            ("segments".to_string(), Json::Array(segments)),
        ])
    }

    /// Runs of consecutive segments on the same PE with the same category,
    /// merged into one segment each (the chain often bounces between a
    /// handful of states, producing long same-category runs). Because raw
    /// segments tile the makespan, merged ones do too; `count` records how
    /// many raw segments each one absorbed.
    pub fn merged_segments(&self) -> Vec<(PathSegment, u64)> {
        let mut merged: Vec<(PathSegment, u64)> = Vec::new();
        for seg in &self.segments {
            match merged.last_mut() {
                Some((last, count))
                    if last.pe == seg.pe
                        && last.category == seg.category
                        && last.end == seg.begin =>
                {
                    last.end = seg.end;
                    *count += 1;
                }
                _ => merged.push((seg.clone(), 1)),
            }
        }
        merged
    }

    /// Compact JSON for the committed `results/*.critpath.json` sidecars:
    /// same `makespan_ns`/`totals_ns` as [`CriticalPathReport::to_json`],
    /// but with consecutive same-(PE, category) segments aggregated (each
    /// carries the count of raw segments it merged, and the `what` of the
    /// first). `raw_segments` preserves the pre-merge count.
    pub fn to_sidecar_json(&self) -> Json {
        let totals = self
            .totals_ns()
            .iter()
            .map(|&(c, ns)| (c.label().to_string(), Json::uint(ns as usize)))
            .collect();
        let segments = self
            .merged_segments()
            .iter()
            .map(|(s, count)| {
                Json::Object(vec![
                    ("pe".to_string(), Json::uint(s.pe)),
                    ("category".to_string(), Json::str(s.category.label())),
                    ("begin_ns".to_string(), Json::uint(s.begin as usize)),
                    ("end_ns".to_string(), Json::uint(s.end as usize)),
                    ("what".to_string(), Json::str(s.what)),
                    ("count".to_string(), Json::uint(*count as usize)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("makespan_ns".to_string(), Json::uint(self.makespan_ns as usize)),
            ("totals_ns".to_string(), Json::Object(totals)),
            ("raw_segments".to_string(), Json::uint(self.segments.len())),
            ("segments".to_string(), Json::Array(segments)),
        ])
    }
}

/// Is `s` a flow a quiet can pair with: a transfer with a known remote
/// completion instant?
pub(crate) fn is_flow(s: &Span) -> bool {
    matches!(s.kind, SpanKind::Put | SpanKind::Get | SpanKind::Amo) && s.remote_end > 0
}

/// One PE's spans sorted by `(begin, id)`, with the running max of their
/// ends so the walker finds gaps without scanning.
pub(crate) struct Lane {
    spans: Vec<Span>,
    prefix_max_end: Vec<u64>,
}

impl Lane {
    pub(crate) fn new(mut spans: Vec<Span>) -> Lane {
        spans.sort_by_key(|s| (s.begin, s.id));
        let mut reach = 0u64;
        let prefix_max_end = spans
            .iter()
            .map(|s| {
                reach = reach.max(s.end);
                reach
            })
            .collect();
        Lane { spans, prefix_max_end }
    }
}

/// The span set a [`walk`] runs over.
pub(crate) trait SpanSet {
    /// The spans of `pe` the walk may charge.
    fn lane(&self, pe: usize) -> &Lane;
    /// Queue wait of the flow issued on `pe` that landed at `remote_end` —
    /// the flow a quiet with that completion target waited on.
    fn flow_queue(&self, pe: usize, remote_end: u64) -> Option<u64>;
    /// `(arrival, pe)` of every barrier span completing at `end`; asked
    /// only by walks that may hop.
    fn barrier_arrivals(&self, end: u64) -> &[(u64, usize)];
}

/// One slice of a walk: `[begin, end)` on `pe`, charged to `phase`, from
/// the span kind (or "idle") named by `what`.
pub(crate) struct Slice {
    pub pe: usize,
    pub phase: ReqPhase,
    pub begin: u64,
    pub end: u64,
    pub what: &'static str,
}

/// The one backward span walker. Tiles `[begin, end]` starting on `pe`:
/// the innermost span covering the cursor owns the slice before it, and a
/// gap is handler compute. Every non-empty slice goes to `emit`, latest
/// first. With `hops`, a barrier hands the walk to its last arriver (the
/// whole-run critical path); without, the walk stays on `pe` and a barrier
/// wait is synchronization (a request's path).
pub(crate) fn walk(
    set: &impl SpanSet,
    begin: u64,
    end: u64,
    mut pe: usize,
    hops: bool,
    mut emit: impl FnMut(Slice),
) {
    let mut push = |pe: usize, phase: ReqPhase, a: u64, b: u64, what: &'static str| {
        if b > a {
            emit(Slice { pe, phase, begin: a, end: b, what });
        }
    };
    let mut cursor = end;
    while cursor > begin {
        let lane = set.lane(pe);
        // Spans on this PE beginning strictly before the cursor.
        let k = lane.spans.partition_point(|s| s.begin < cursor);
        let reach = k.checked_sub(1).map_or(0, |i| lane.prefix_max_end[i]);
        if reach < cursor {
            // Nothing covers the instant before the cursor: the PE was
            // computing (or idle) since its last op ended.
            let to = reach.max(begin);
            push(pe, ReqPhase::HandlerCompute, to, cursor, "idle");
            cursor = to;
            continue;
        }
        // Innermost span covering the cursor: scan back for the latest begin
        // whose end reaches the cursor (children begin after parents, so the
        // first hit is the innermost).
        let mut i = k - 1;
        while lane.spans[i].end < cursor {
            i -= 1;
        }
        let s = &lane.spans[i];
        let what = s.kind.label();
        if hops && s.kind == SpanKind::Barrier {
            // The barrier was gated by its last arriver; hop to it.
            let last = set
                .barrier_arrivals(s.end)
                .iter()
                .copied()
                .max_by_key(|&(arrived, pe)| (arrived, usize::MAX - pe));
            if let Some((arrived, last_pe)) = last.filter(|&(arrived, _)| arrived < cursor) {
                let arrived = arrived.max(begin);
                push(pe, ReqPhase::Synchronization, arrived, cursor, what);
                pe = last_pe;
                cursor = arrived;
                continue;
            }
        }
        let a = s.begin.max(begin);
        let flow_queue = match s.kind {
            SpanKind::Quiet => set.flow_queue(s.pe, s.remote_end),
            _ => None,
        };
        classify(s, a, cursor, flow_queue, |phase, x, y| push(pe, phase, x, y, what));
        cursor = a;
    }
}

/// The one span classifier: charge `[a, b)` of span `s` to phases, latest
/// piece first. `flow_queue` is the queue wait of the flow a quiet was
/// bounded by, when known.
fn classify(
    s: &Span,
    a: u64,
    b: u64,
    flow_queue: Option<u64>,
    mut charge: impl FnMut(ReqPhase, u64, u64),
) {
    let phase = match s.kind {
        SpanKind::Put | SpanKind::Get | SpanKind::Amo => {
            // The op queues behind earlier traffic first, then occupies the
            // lanes: the queue portion sits at the start of the span.
            let queued_until = s.begin.saturating_add(s.queue_ns).clamp(a, b);
            charge(ReqPhase::Wire, queued_until, b);
            charge(ReqPhase::NicContention, a, queued_until);
            return;
        }
        SpanKind::Quiet => match flow_queue {
            // Bounded by a known flow: its queue share is contention, the
            // rest of the stall is the wire finishing the transfer.
            Some(q) => {
                let queued_until = a + q.min(b - a);
                charge(ReqPhase::Wire, queued_until, b);
                charge(ReqPhase::NicContention, a, queued_until);
                return;
            }
            // Unpaired: a completion target inside the slice means the wire
            // was still moving bytes; otherwise it was a pure stall.
            None if s.remote_end > a => ReqPhase::Wire,
            None => ReqPhase::Synchronization,
        },
        // Collective time not covered by a child span (flag polls, internal
        // bookkeeping) is synchronization too.
        SpanKind::Barrier | SpanKind::WaitUntil | SpanKind::Collective => ReqPhase::Synchronization,
        SpanKind::Retry | SpanKind::Fault => ReqPhase::FaultDelay,
        SpanKind::Compute => ReqPhase::HandlerCompute,
    };
    charge(phase, a, b);
}

/// A whole run's spans, indexed for the critical-path walk.
struct RunSpans {
    lanes: Vec<Lane>,
    /// Barrier end time -> arrivals `(begin, pe)`, for last-arriver hops.
    barrier_arrivals: BTreeMap<u64, Vec<(u64, usize)>>,
    /// `(pe, remote_end)` -> queue wait of that flow, for quiet pairing.
    flows: BTreeMap<(usize, u64), u64>,
}

impl SpanSet for RunSpans {
    fn lane(&self, pe: usize) -> &Lane {
        &self.lanes[pe]
    }

    fn flow_queue(&self, pe: usize, remote_end: u64) -> Option<u64> {
        self.flows.get(&(pe, remote_end)).copied()
    }

    fn barrier_arrivals(&self, end: u64) -> &[(u64, usize)] {
        self.barrier_arrivals.get(&end).map_or(&[], |a| a.as_slice())
    }
}

/// Extract the critical path from a run's spans and final clocks: the walk
/// over `[0, makespan]` from the last PE to finish, with barrier hops.
///
/// With tracing disabled (no spans) the whole makespan is attributed to
/// compute on the last-finishing PE — the profiler degrades gracefully
/// rather than failing.
pub fn critical_path(spans: &[Span], clocks: &[u64]) -> CriticalPathReport {
    let makespan = clocks.iter().copied().max().unwrap_or(0);
    if makespan == 0 {
        return CriticalPathReport { makespan_ns: 0, segments: Vec::new() };
    }
    let num_pes = clocks.len();
    let mut lanes: Vec<Vec<Span>> = vec![Vec::new(); num_pes];
    let mut barrier_arrivals: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    let mut flows = BTreeMap::new();
    for s in spans.iter().filter(|s| s.pe < num_pes) {
        lanes[s.pe].push(*s);
        if s.kind == SpanKind::Barrier {
            barrier_arrivals.entry(s.end).or_default().push((s.begin, s.pe));
        }
        if is_flow(s) {
            flows.insert((s.pe, s.remote_end), s.queue_ns);
        }
    }
    let set =
        RunSpans { lanes: lanes.into_iter().map(Lane::new).collect(), barrier_arrivals, flows };
    // Start on the PE that finished last (lowest index wins ties).
    let pe = clocks.iter().position(|&c| c == makespan).unwrap_or(0);
    let mut segments: Vec<PathSegment> = Vec::new();
    walk(&set, 0, makespan, pe, true, |s| {
        segments.push(PathSegment {
            pe: s.pe,
            category: PathCategory::of(s.phase),
            begin: s.begin,
            end: s.end,
            what: s.what,
        })
    });
    segments.reverse();
    CriticalPathReport { makespan_ns: makespan, segments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pe: usize, kind: SpanKind, begin: u64, end: u64) -> Span {
        Span::op(pe, kind, begin, end, None, 0)
    }

    #[test]
    fn empty_trace_is_all_compute() {
        let report = critical_path(&[], &[500, 300]);
        assert_eq!(report.makespan_ns, 500);
        assert_eq!(report.total_ns(), 500);
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].category, PathCategory::Compute);
        assert_eq!(report.segments[0].pe, 0);
    }

    #[test]
    fn zero_makespan_is_empty() {
        let report = critical_path(&[], &[0, 0]);
        assert_eq!(report.makespan_ns, 0);
        assert!(report.segments.is_empty());
    }

    #[test]
    fn barrier_hops_to_last_arriver() {
        // PE 0 arrives at 10, PE 1 computes until 100 and arrives last;
        // barrier completes at 110 for both.
        let spans = vec![
            span(0, SpanKind::Barrier, 10, 110),
            span(1, SpanKind::Compute, 0, 100),
            span(1, SpanKind::Barrier, 100, 110),
        ];
        let report = critical_path(&spans, &[110, 110]);
        assert_eq!(report.total_ns(), 110);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::Synchronization], 10);
        assert_eq!(totals[&PathCategory::Compute], 100);
        // The compute slice is attributed to the last arriver, PE 1.
        let compute = report.segments.iter().find(|s| s.category == PathCategory::Compute);
        assert_eq!(compute.unwrap().pe, 1);
    }

    #[test]
    fn queue_time_splits_out_as_nic_contention() {
        let mut put = span(0, SpanKind::Put, 0, 100);
        put.queue_ns = 30;
        put.service_ns = 50;
        let report = critical_path(&[put], &[100]);
        assert_eq!(report.total_ns(), 100);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::NicContention], 30);
        assert_eq!(totals[&PathCategory::Wire], 70);
    }

    #[test]
    fn quiet_pairs_with_the_bounding_flow() {
        // A non-blocking put whose flow completes remotely at 900; the
        // quiet waits from 200 to 900 on it.
        let mut put = span(0, SpanKind::Put, 100, 200);
        put.queue_ns = 300;
        put.remote_begin = 850;
        put.remote_end = 900;
        put.peer = Some(1);
        let mut quiet = span(0, SpanKind::Quiet, 200, 900);
        quiet.remote_end = 900;
        let report = critical_path(&[put, quiet], &[900, 0]);
        assert_eq!(report.total_ns(), 900);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        // 300 ns of the quiet wait was the flow queueing behind other
        // traffic; the issue span itself contributes its own split.
        assert!(totals[&PathCategory::NicContention] >= 300);
        assert!(totals[&PathCategory::Wire] > 0);
    }

    #[test]
    fn segments_tile_the_makespan_chronologically() {
        let mut put = span(0, SpanKind::Put, 50, 150);
        put.queue_ns = 20;
        let spans = vec![
            span(0, SpanKind::Compute, 0, 50),
            put,
            span(0, SpanKind::Barrier, 150, 200),
            span(1, SpanKind::Barrier, 120, 200),
        ];
        let report = critical_path(&spans, &[200, 200]);
        assert_eq!(report.total_ns(), report.makespan_ns);
        let mut t = 0;
        for seg in &report.segments {
            assert_eq!(seg.begin, t, "segments are contiguous");
            t = seg.end;
        }
        assert_eq!(t, report.makespan_ns);
    }

    #[test]
    fn report_renders_and_exports_json() {
        let report = critical_path(&[span(0, SpanKind::Compute, 0, 100)], &[100]);
        let text = report.render();
        assert!(text.contains("critical path: 100 ns"));
        assert!(text.contains("compute"));
        let json = report.to_json().pretty();
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("makespan_ns").and_then(|v| v.as_i64()), Some(100));
        assert!(parsed.get("totals_ns").is_some());
    }

    #[test]
    fn category_labels_round_trip_through_parse() {
        for c in CATEGORIES {
            assert_eq!(PathCategory::parse(c.label()), Some(c));
        }
        assert_eq!(PathCategory::parse("warp_drive"), None);
    }

    #[test]
    fn sidecar_merges_consecutive_same_category_runs() {
        // Three consecutive compute slices on PE 0, then a wire slice, then
        // compute again: 5 raw segments -> 3 merged.
        let report = CriticalPathReport {
            makespan_ns: 500,
            segments: vec![
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 0,
                    end: 100,
                    what: "compute",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 100,
                    end: 150,
                    what: "idle",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 150,
                    end: 200,
                    what: "compute",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Wire,
                    begin: 200,
                    end: 400,
                    what: "put",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 400,
                    end: 500,
                    what: "idle",
                },
            ],
        };
        let merged = report.merged_segments();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].0.end, 200);
        assert_eq!(merged[0].1, 3, "first run absorbed three raw segments");
        // Merged segments still tile the makespan.
        let mut t = 0;
        for (seg, _) in &merged {
            assert_eq!(seg.begin, t);
            t = seg.end;
        }
        assert_eq!(t, report.makespan_ns);
        // And the merged total per category matches the raw totals.
        let json = report.to_sidecar_json().pretty();
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("raw_segments").and_then(|v| v.as_i64()), Some(5));
        assert_eq!(parsed.get("segments").and_then(|v| v.as_array()).map(|a| a.len()), Some(3));
    }

    #[test]
    fn sidecar_does_not_merge_across_pe_hops() {
        let report = CriticalPathReport {
            makespan_ns: 200,
            segments: vec![
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 0,
                    end: 100,
                    what: "idle",
                },
                PathSegment {
                    pe: 1,
                    category: PathCategory::Compute,
                    begin: 100,
                    end: 200,
                    what: "idle",
                },
            ],
        };
        assert_eq!(report.merged_segments().len(), 2);
    }

    #[test]
    fn retry_time_is_fault_delay() {
        let spans = vec![span(0, SpanKind::Retry, 10, 60)];
        let report = critical_path(&spans, &[60]);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::FaultDelay], 50);
        assert_eq!(totals[&PathCategory::Compute], 10);
        assert_eq!(report.total_ns(), 60);
    }
}
