//! Shared plumbing: order statistics, the in-memory span tracer, peak
//! memory and provenance.

use moccml_serve::Json;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Milliseconds of a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle pair for even counts).
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile,
/// samples beyond)`. Below 100 samples that percentile would sit under
/// p90, so the maximum is returned instead, with percentile `100`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 100 {
        return (v.last().copied().unwrap_or(0.0), 100.0, 0);
    }
    // rank r (0-based) leaves n - 1 - r samples above it
    let r = n - 11;
    (v[r], 100.0 * (r + 1) as f64 / n as f64, n - 1 - r)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric as it goes into the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One recorded span: a call into a layer's public function.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// The benchmark's own span recorder. Disabled, [`Tracer::time`] only
/// runs its closure; enabled, it keeps every span in memory until
/// [`Tracer::write`] at the end of the run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// An empty tracer for another thread, on the same clock and
    /// switched the same way; [`Tracer::absorb`] takes its spans back.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Appends the spans of a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Runs `f` inside a span named `name` belonging to operation `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Records an already-measured interval as a span (used where the
    /// interval is not one closure call, such as a request whose reply
    /// arrives in several lines).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let index = self.spans.len();
        if self.on {
            self.spans.push(Span {
                name,
                op,
                parent,
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            });
        }
        index
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Total milliseconds spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .sum()
    }

    /// Writes the spans as JSON lines (provenance first) to `path`.
    pub fn write(&self, path: &std::path::Path, provenance: &Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        let head = Json::obj([("provenance", provenance.clone())]);
        let _ = writeln!(out, "{}", head.to_line());
        for (i, s) in self.spans.iter().enumerate() {
            let span = Json::obj([
                ("span", Json::int(i)),
                ("name", Json::str(s.name)),
                ("op", Json::u128(u128::from(s.op))),
                ("parent", s.parent.map_or(Json::Null, Json::int)),
                ("start_us", Json::Float(s.start.as_secs_f64() * 1e6)),
                ("end_us", Json::Float(s.end.as_secs_f64() * 1e6)),
            ]);
            let _ = writeln!(out, "{}", span.to_line());
        }
        std::fs::write(path, out)
    }
}

/// Where, on what and how a record was produced.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let git_rev = git_rev().unwrap_or_else(|| "none".to_owned());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::u128(u128::from(seed))),
        ("run_seconds", Json::u128(u128::from(seconds))),
        ("trace", Json::Bool(trace)),
        ("host_cores", Json::int(cores)),
        ("git_rev", Json::str(&git_rev)),
        ("source_digest", Json::str(&source_digest())),
        ("profile", Json::str(profile)),
        ("rustc", Json::str(&rustc)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The git revision, but only when the current directory is itself the
/// top of a git work tree (a plain checkout inside some other
/// repository must not report that repository's revision).
fn git_rev() -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"])?;
    let here = std::env::current_dir().ok()?.canonicalize().ok()?;
    if std::path::Path::new(&top).canonicalize().ok()? != here {
        return None;
    }
    command_line("git", &["rev-parse", "HEAD"])
}

/// FNV-1a digest over the program sources (paths and contents, in
/// sorted order), so a record names the code it measured even where
/// there is no git history.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// Expected verdicts read from a spec's own comments: an `assert`
/// whose preceding comment block says `VIOLATED` is expected violated,
/// every other assert is expected to hold. This is the hand-written
/// expectation the example specs carry.
pub fn expected_violations(source: &str) -> Vec<bool> {
    let mut out = Vec::new();
    let mut comment = String::new();
    for line in source.lines() {
        let t = line.trim();
        if let Some(c) = t.strip_prefix("//") {
            comment.push_str(c);
        } else if t.starts_with("assert") {
            out.push(comment.contains("VIOLATED"));
            comment.clear();
        } else {
            comment.clear();
        }
    }
    out
}

/// `⌈ln(2/δ) / (2ε²)⌉`: the Okamoto sample count for a fixed-sample
/// estimate within ε at confidence 1-δ.
pub fn okamoto(epsilon: f64, delta: f64) -> usize {
    ((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, pct, beyond) = tail(&v);
        assert_eq!(beyond, 10);
        assert_eq!(value, 190.0);
        assert_eq!(pct, 95.0);
        assert_eq!(tail(&v[..50]), (50.0, 100.0, 0));
    }

    #[test]
    fn okamoto_matches_the_drift_budget() {
        assert_eq!(okamoto(0.02, 0.05), 4612);
    }

    #[test]
    fn comment_expectations() {
        let src = "// holds\nassert a;\n// VIOLATED: x\nassert b;\nassert c;\n";
        assert_eq!(expected_violations(src), vec![false, true, false]);
    }
}
