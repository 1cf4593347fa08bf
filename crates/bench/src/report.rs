//! Machine-readable benchmark baselines: `BENCH_<name>.json`.
//!
//! Every perf-relevant bench bin can persist its measurements as one
//! self-describing JSON file under `results/`, so the numbers of a PR are
//! *diffable against the committed baseline of the previous one* instead
//! of living in scrollback. The schema is flat on purpose — one entry per
//! (instance, solver, thread-count) measurement carrying wall time, the
//! PQ-operation totals, kernel sizes, per-path contraction-round counts
//! and a peak-RSS proxy — and the regeneration protocol is documented in
//! ROADMAP.md ("Performance").

use std::io::Write;
use std::path::{Path, PathBuf};

use mincut_core::{json_string, SolveOutcome};
use mincut_graph::ContractionPath;

/// One measurement row of a [`BenchReport`].
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Instance name (generator family + size).
    pub instance: String,
    /// Solver spelling as resolved through the registry, or a
    /// micro-benchmark label (e.g. `scan/bqueue`).
    pub solver: String,
    /// Worker threads the measurement ran with.
    pub threads: usize,
    /// Input size.
    pub n: usize,
    pub m: usize,
    /// Cut value (λ for exact solvers; micro-benchmarks may carry a λ̂).
    pub lambda: u64,
    /// Average wall seconds per repetition.
    pub wall_s: f64,
    /// Repetitions averaged over.
    pub reps: usize,
    /// PQ-operation totals of the last repetition.
    pub pq_pushes: u64,
    pub pq_raises: u64,
    pub pq_pops: u64,
    /// Kernel the solver ran on (0/0 when kernelization was off).
    pub kernel_n: usize,
    pub kernel_m: usize,
    /// Outer rounds and contraction-path attribution of the last rep.
    pub rounds: u64,
    pub contractions_seq_hash: u64,
    pub contractions_seq_matrix: u64,
}

impl BenchEntry {
    /// A row with only the identification fields filled in.
    pub fn named(instance: &str, solver: &str, threads: usize, n: usize, m: usize) -> Self {
        BenchEntry {
            instance: instance.to_string(),
            solver: solver.to_string(),
            threads,
            n,
            m,
            lambda: 0,
            wall_s: 0.0,
            reps: 1,
            pq_pushes: 0,
            pq_raises: 0,
            pq_pops: 0,
            kernel_n: 0,
            kernel_m: 0,
            rounds: 0,
            contractions_seq_hash: 0,
            contractions_seq_matrix: 0,
        }
    }

    /// Copies the telemetry of a finished [`SolveOutcome`] into the row.
    pub fn absorb_outcome(&mut self, outcome: &SolveOutcome) {
        let s = &outcome.stats;
        self.lambda = outcome.cut.value;
        self.pq_pushes = s.pq_ops.pushes;
        self.pq_raises = s.pq_ops.raises;
        self.pq_pops = s.pq_ops.pops;
        self.kernel_n = s.kernel_n;
        self.kernel_m = s.kernel_m;
        self.rounds = s.rounds;
        for p in &s.contraction_paths {
            match p {
                ContractionPath::SeqHash => self.contractions_seq_hash += 1,
                ContractionPath::SeqMatrix => self.contractions_seq_matrix += 1,
            }
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"instance\":{},\"solver\":{},\"threads\":{},\"n\":{},\"m\":{},\
             \"lambda\":{},\"wall_s\":{:.9},\"reps\":{},\
             \"pq_ops\":{{\"pushes\":{},\"raises\":{},\"pops\":{}}},\
             \"kernel_n\":{},\"kernel_m\":{},\"rounds\":{},\
             \"contractions\":{{\"seq_hash\":{},\"seq_matrix\":{}}}}}",
            json_string(&self.instance),
            json_string(&self.solver),
            self.threads,
            self.n,
            self.m,
            self.lambda,
            self.wall_s,
            self.reps,
            self.pq_pushes,
            self.pq_raises,
            self.pq_pops,
            self.kernel_n,
            self.kernel_m,
            self.rounds,
            self.contractions_seq_hash,
            self.contractions_seq_matrix,
        )
    }
}

/// A named collection of [`BenchEntry`] rows plus run metadata, written
/// as `results/BENCH_<name>.json`.
pub struct BenchReport {
    name: String,
    scale: String,
    entries: Vec<BenchEntry>,
}

impl BenchReport {
    pub fn new(name: impl Into<String>, scale: impl std::fmt::Debug) -> Self {
        BenchReport {
            name: name.into(),
            scale: format!("{scale:?}").to_ascii_lowercase(),
            entries: Vec::new(),
        }
    }

    pub fn push(&mut self, entry: BenchEntry) {
        self.entries.push(entry);
    }

    pub fn entries(&self) -> &[BenchEntry] {
        &self.entries
    }

    /// Serialises the report (entries plus environment metadata).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!("\"name\":{},", json_string(&self.name)));
        s.push_str(&format!("\"scale\":{},", json_string(&self.scale)));
        s.push_str(&format!(
            "\"hardware_threads\":{},",
            mincut_ds::par::hardware_threads()
        ));
        s.push_str(&format!(
            "\"simd_tier\":{},",
            json_string(mincut_ds::simd::active_tier().name())
        ));
        s.push_str(&format!("\"peak_rss_kb\":{},", peak_rss_kb()));
        s.push_str("\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Writes `results/BENCH_<name>.json` (creating `results/` if
    /// needed) and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

/// One row parsed back out of a `BENCH_<name>.json` file — the fields
/// `bench-diff` joins and compares on.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadedEntry {
    pub instance: String,
    pub solver: String,
    pub threads: usize,
    pub n: usize,
    pub m: usize,
    pub lambda: u64,
    pub wall_s: f64,
    pub reps: usize,
    pub pq_pushes: u64,
    pub pq_raises: u64,
    pub pq_pops: u64,
}

impl LoadedEntry {
    /// The join key of the diff: rows of two reports are compared iff
    /// they agree on (instance, solver, threads).
    pub fn key(&self) -> (String, String, usize) {
        (self.instance.clone(), self.solver.clone(), self.threads)
    }

    /// PQ-operation totals as `(pushes, raises, pops)`.
    pub fn pq_ops(&self) -> (u64, u64, u64) {
        (self.pq_pushes, self.pq_raises, self.pq_pops)
    }

    /// Whether the PQ-operation totals moved from this row to `new`, the
    /// same row of a later report. A 1-thread run is deterministic at
    /// every graph size — every parallel layer runs inline at the solve's
    /// width (`crates/core/tests/thread_width.rs`) — so its operation
    /// stream moves only when the scan did; rows at ≥ 2 threads race by
    /// design and never count as drift.
    pub fn pq_op_drift(&self, new: &LoadedEntry) -> bool {
        self.threads == 1 && self.pq_ops() != new.pq_ops()
    }
}

/// A parsed `BENCH_<name>.json` report.
#[derive(Clone, Debug)]
pub struct LoadedReport {
    pub name: String,
    pub scale: String,
    pub hardware_threads: usize,
    /// The CPU's widest vector level (`mincut_ds::simd::active_tier`), a
    /// machine property like `hardware_threads` (empty for reports
    /// written before the field existed).
    pub simd_tier: String,
    pub entries: Vec<LoadedEntry>,
}

impl LoadedReport {
    /// Reads and parses a report file.
    pub fn load(path: impl AsRef<Path>) -> Result<LoadedReport, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the JSON emitted by [`BenchReport::to_json`]. The parser is
    /// a generic minimal JSON reader (objects, arrays, strings, numbers,
    /// booleans, null), so reports from every bench bin — and future
    /// fields — load without schema churn; unknown fields are ignored and
    /// missing numeric fields default to zero.
    pub fn from_json(text: &str) -> Result<LoadedReport, String> {
        let root = json::parse(text)?;
        let obj = root.as_obj().ok_or("top level must be an object")?;
        let mut report = LoadedReport {
            name: String::new(),
            scale: String::new(),
            hardware_threads: 0,
            simd_tier: String::new(),
            entries: Vec::new(),
        };
        for (k, v) in obj {
            match k.as_str() {
                "name" => report.name = v.as_str().unwrap_or_default().to_string(),
                "scale" => report.scale = v.as_str().unwrap_or_default().to_string(),
                "hardware_threads" => report.hardware_threads = v.as_u64() as usize,
                "simd_tier" => report.simd_tier = v.as_str().unwrap_or_default().to_string(),
                "entries" => {
                    let arr = v.as_arr().ok_or("entries must be an array")?;
                    for e in arr {
                        report.entries.push(parse_entry(e)?);
                    }
                }
                _ => {}
            }
        }
        Ok(report)
    }

    /// Pairs every row of `self` with the row of `new` that has the same
    /// [`LoadedEntry::key`], in `self`'s order; rows without a partner
    /// are skipped.
    pub fn join<'a>(
        &'a self,
        new: &'a LoadedReport,
    ) -> impl Iterator<Item = (&'a LoadedEntry, &'a LoadedEntry)> + 'a {
        self.entries.iter().filter_map(move |oe| {
            let ne = new.entries.iter().find(|ne| ne.key() == oe.key())?;
            Some((oe, ne))
        })
    }
}

fn parse_entry(v: &json::Value) -> Result<LoadedEntry, String> {
    let obj = v.as_obj().ok_or("entry must be an object")?;
    let mut e = LoadedEntry {
        instance: String::new(),
        solver: String::new(),
        threads: 0,
        n: 0,
        m: 0,
        lambda: 0,
        wall_s: 0.0,
        reps: 0,
        pq_pushes: 0,
        pq_raises: 0,
        pq_pops: 0,
    };
    for (k, v) in obj {
        match k.as_str() {
            "instance" => e.instance = v.as_str().unwrap_or_default().to_string(),
            "solver" => e.solver = v.as_str().unwrap_or_default().to_string(),
            "threads" => e.threads = v.as_u64() as usize,
            "n" => e.n = v.as_u64() as usize,
            "m" => e.m = v.as_u64() as usize,
            "lambda" => e.lambda = v.as_u64(),
            "wall_s" => e.wall_s = v.as_f64(),
            "reps" => e.reps = v.as_u64() as usize,
            "pq_ops" => {
                if let Some(ops) = v.as_obj() {
                    for (k, v) in ops {
                        match k.as_str() {
                            "pushes" => e.pq_pushes = v.as_u64(),
                            "raises" => e.pq_raises = v.as_u64(),
                            "pops" => e.pq_pops = v.as_u64(),
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if e.instance.is_empty() || e.solver.is_empty() {
        return Err("entry missing instance/solver".into());
    }
    Ok(e)
}

/// Minimal recursive-descent JSON reader, enough for the `BENCH_*.json`
/// family (this offline build carries no JSON crate). Public: the
/// `trace-check` validator and integration tests reuse it to read the
/// Chrome trace files and stats JSON the stack emits.
pub mod json {
    #[derive(Debug)]
    pub enum Value {
        Null,
        // Booleans never appear in the BENCH schema today, but the
        // reader stays a complete JSON subset so future fields parse.
        #[allow(dead_code)]
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(o) => Some(o),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> f64 {
            match self {
                Value::Num(x) => *x,
                _ => 0.0,
            }
        }
        pub fn as_u64(&self) -> u64 {
            self.as_f64() as u64
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    fields.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the raw
                    // bytes (the input is valid UTF-8 by construction).
                    let start = *pos - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos = start + len;
                }
            }
        }
        Err("unterminated string".into())
    }
}

/// Peak resident set size of this process in kilobytes — the `VmHWM`
/// line of `/proc/self/status` on Linux, falling back to the current
/// `VmRSS` on kernels whose procfs omits the high-water mark (some
/// container runtimes), 0 where neither is available. A proxy, not an
/// allocator-level measurement: good enough to catch a bench regressing
/// from in-cache to swapping between PRs.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let read = |prefix: &str| {
        status.lines().find_map(|line| {
            line.strip_prefix(prefix)?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    };
    read("VmHWM:").or_else(|| read("VmRSS:")).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let mut r = BenchReport::new("unit", crate::instances::Scale::Tiny);
        let mut e = BenchEntry::named("ring_8", "noi-viecut", 2, 8, 12);
        e.lambda = 3;
        e.wall_s = 0.25;
        e.contractions_seq_matrix = 4;
        r.push(e);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"unit\""));
        assert!(j.contains("\"scale\":\"tiny\""));
        assert!(j.contains("\"solver\":\"noi-viecut\""));
        assert!(j.contains("\"seq_matrix\":4"));
    }

    #[test]
    fn report_round_trips_through_loader() {
        let mut r = BenchReport::new("unit", crate::instances::Scale::Small);
        let mut e = BenchEntry::named("two_communities_504", "noi-viecut", 2, 504, 9000);
        e.lambda = 7;
        e.wall_s = 0.001_25;
        e.reps = 6;
        e.pq_pushes = 42;
        e.pq_raises = 17;
        e.pq_pops = 42;
        r.push(e);
        let mut e = BenchEntry::named("ring_\"quoted\"_☃", "scan/bqueue", 1, 8, 12);
        e.wall_s = 0.5;
        r.push(e);
        let loaded = LoadedReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(loaded.name, "unit");
        assert_eq!(loaded.scale, "small");
        assert!(loaded.hardware_threads >= 1);
        assert_eq!(loaded.simd_tier, mincut_ds::simd::active_tier().name());
        // Legacy reports without the field still load.
        let legacy = LoadedReport::from_json("{\"name\":\"x\",\"entries\":[]}").expect("legacy");
        assert!(legacy.simd_tier.is_empty());
        assert_eq!(loaded.entries.len(), 2);
        let l = &loaded.entries[0];
        assert_eq!(l.instance, "two_communities_504");
        assert_eq!(l.solver, "noi-viecut");
        assert_eq!((l.threads, l.n, l.m), (2, 504, 9000));
        assert_eq!(l.lambda, 7);
        assert!((l.wall_s - 0.001_25).abs() < 1e-12);
        assert_eq!((l.pq_pushes, l.pq_raises, l.pq_pops), (42, 17, 42));
        // Escapes and non-ASCII survive the round trip.
        assert_eq!(loaded.entries[1].instance, "ring_\"quoted\"_☃");
    }

    #[test]
    fn loader_rejects_malformed_input() {
        assert!(LoadedReport::from_json("").is_err());
        assert!(LoadedReport::from_json("[1,2]").is_err());
        assert!(LoadedReport::from_json("{\"entries\":[{}]}").is_err());
        assert!(LoadedReport::from_json("{\"name\":\"x\"} trailing").is_err());
    }

    /// Keys of the joined rows of two committed `results/` files that
    /// show PQ-op drift.
    fn drifted_rows(old: &str, new: &str) -> Vec<(String, String, usize)> {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let old = LoadedReport::load(results.join(old)).expect("committed baseline");
        let new = LoadedReport::load(results.join(new)).expect("committed baseline");
        old.join(&new)
            .filter(|(oe, ne)| oe.pq_op_drift(ne))
            .map(|(oe, _)| oe.key())
            .collect()
    }

    #[test]
    fn pq_op_drift_on_committed_baselines() {
        // No scan changed between these two files; the 2- and 4-thread
        // rows that raced to different totals must not count.
        assert!(drifted_rows("BENCH_pr8.json", "BENCH_pr9.json").is_empty());
        // Label propagation moved to the sequential path at social-core
        // size between these two, which changes VieCut's bound there; the
        // frozen control rows of that era raced on the chunked path.
        let social = |solver: &str| ("social_k5_2350".to_string(), solver.to_string(), 1);
        assert_eq!(
            drifted_rows("BENCH_pr5.json", "BENCH_pr8.json"),
            vec![
                social("noi-viecut"),
                social("noi-viecut/legacy"),
                social("parcut/legacy")
            ]
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb() > 0);
        }
    }
}
