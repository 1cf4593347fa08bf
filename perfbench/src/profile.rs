//! Span aggregation: count, total and self time per span name, built
//! from the events `mincut_obs::take_events` returns.
//!
//! A span's self time is its duration minus the durations of its direct
//! children on the same track. Spans of other tracks (pool workers)
//! never count as covering a main-thread span: their time runs in
//! parallel with it.

use std::collections::BTreeMap;

use sm_mincut::obs::{EventPhase, TraceEvent};

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Row {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Per-name rows of every complete span that lies inside
/// `[from_us, to_us]`.
pub fn aggregate(events: &[TraceEvent], from_us: u64, to_us: u64) -> BTreeMap<&'static str, Row> {
    // (track, start, end, name), parents before their children.
    let mut spans: Vec<(u64, u64, u64, &'static str)> = events
        .iter()
        .filter(|e| e.phase == EventPhase::Complete)
        .filter(|e| e.ts_us >= from_us && e.ts_us + e.dur_us <= to_us)
        .map(|e| (e.tid, e.ts_us, e.ts_us + e.dur_us, e.name))
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(b.2.cmp(&a.2)));

    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut covered = vec![0u64; spans.len()];
    // Indices of the open spans of the current track, outermost first.
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (track, start, end, _) = spans[i];
        if i > 0 && spans[i - 1].0 != track {
            open.clear();
        }
        while open.last().is_some_and(|&p| spans[p].2 <= start) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            covered[parent] += end - start;
        }
        open.push(i);
    }
    for (i, &(_, start, end, name)) in spans.iter().enumerate() {
        let row = rows.entry(name).or_default();
        row.count += 1;
        row.total_us += end - start;
        row.self_us += (end - start).saturating_sub(covered[i]);
    }
    rows
}

/// Seconds of `name`'s total (or self) time, 0 when it never ran.
pub fn total_s(rows: &BTreeMap<&'static str, Row>, name: &str) -> f64 {
    rows.get(name).map_or(0.0, |r| r.total_us as f64 * 1e-6)
}

pub fn self_s(rows: &BTreeMap<&'static str, Row>, name: &str) -> f64 {
    rows.get(name).map_or(0.0, |r| r.self_us as f64 * 1e-6)
}

/// The table the traced run prints: one line per span name.
pub fn table(rows: &BTreeMap<&'static str, Row>) -> String {
    let mut out = format!(
        "{:<40} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    let mut sorted: Vec<_> = rows.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.1.self_us));
    for (name, r) in sorted {
        out.push_str(&format!(
            "{:<40} {:>8} {:>12.6} {:>12.6}\n",
            name,
            r.count,
            r.total_us as f64 * 1e-6,
            r.self_us as f64 * 1e-6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            phase: EventPhase::Complete,
            ts_us: ts,
            dur_us: dur,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // solve [0,100) > reduce [10,40) > contract [20,30); noi [50,90).
        let events = [
            ev("contract", 0, 20, 10),
            ev("reduce", 0, 10, 30),
            ev("noi", 0, 50, 40),
            ev("solve", 0, 0, 100),
        ];
        let rows = aggregate(&events, 0, 1000);
        assert_eq!(rows["solve"].self_us, 30);
        assert_eq!(rows["reduce"].self_us, 20);
        assert_eq!(rows["contract"].self_us, 10);
        assert_eq!(rows["noi"].total_us, 40);
    }

    #[test]
    fn other_tracks_never_cover_and_window_filters() {
        let events = [
            ev("round", 0, 0, 100),
            ev("worker", 1, 10, 80),
            ev("worker", 2, 10, 80),
            ev("late", 0, 200, 10),
        ];
        let rows = aggregate(&events, 0, 150);
        assert_eq!(rows["round"].self_us, 100);
        assert_eq!(rows["worker"].count, 2);
        assert_eq!(rows["worker"].self_us, 160);
        assert!(!rows.contains_key("late"));
    }

    #[test]
    fn equal_names_and_siblings_accumulate() {
        let events = [
            ev("pass", 0, 0, 10),
            ev("pass", 0, 10, 10),
            ev("pass", 0, 20, 5),
            ev("reduce", 0, 0, 30),
        ];
        let rows = aggregate(&events, 0, 30);
        assert_eq!(rows["pass"].count, 3);
        assert_eq!(rows["pass"].total_us, 25);
        assert_eq!(rows["reduce"].self_us, 5);
    }
}
