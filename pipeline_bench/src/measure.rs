//! Measurement primitives: medians and percentiles, in-memory spans
//! with self-time accounting, and the process/file-system readings the
//! end-to-end metrics are built from. Everything here is unit-tested —
//! a benchmark whose arithmetic is wrong judges every later PR wrongly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least
/// one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values`: the fastest pass. A pass on a shared host
/// takes the program's own time plus whatever the neighbours add,
/// never less, so of several passes the fastest says most about the
/// program. Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`,
/// in integer per-mille arithmetic (`99.9 / 100.0 * 10_000.0` is not
/// 9990 in floating point, and the picker counts samples exactly).
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// The percentiles a timing may be reported at, ascending.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest entry of [`PERCENTILES`] that still has at least ten
/// samples beyond it in a sample of `n` — a tail percentile read off
/// fewer is one outlier's value, not a property of the system.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Summary of one timing: sample count, median, and a tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is: the wanted one when the sample
    /// supports it, else the highest supported (the median when even
    /// p50 has fewer than ten samples beyond it).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

/// Summarizes `samples`, reading the tail at `wanted_p` or the
/// highest percentile the sample count supports, whichever is lower.
pub fn summarize(samples: &[f64], wanted_p: f64) -> Dist {
    if samples.is_empty() {
        return Dist {
            n: 0,
            p50: 0.0,
            tail_p: 50.0,
            tail: 0.0,
        };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = highest_supported_percentile(v.len())
        .unwrap_or(50.0)
        .min(wanted_p);
    Dist {
        n: v.len(),
        p50: median(&v),
        tail_p,
        tail: if tail_p <= 50.0 {
            median(&v)
        } else {
            v[rank(v.len(), tail_p) - 1]
        },
    }
}

/// `1 − accepted ÷ offered`: the share of offered operations that did
/// not land. Zero when nothing was offered.
pub fn fail_ratio(accepted: u64, offered: u64) -> f64 {
    if offered == 0 {
        0.0
    } else {
        1.0 - accepted as f64 / offered as f64
    }
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`overlay.tick`, `trace.archive.append`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Single-threaded by design (the three
/// in-process workloads are); each ingest generator thread owns one
/// and the results are merged with [`Tracer::absorb`]. A disabled
/// tracer runs the closure and records nothing, so the traced and the
/// untraced run share one code path where that matters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    state: RefCell<(Vec<Span>, Vec<u32>)>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            state: RefCell::new((Vec::new(), Vec::new())),
        }
    }

    /// The epoch timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of whatever span is
    /// open on this tracer.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.0.len() as u32;
            let parent = st.1.last().copied();
            st.0.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            st.1.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.1.pop();
        let s = &mut st.0[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Appends spans recorded by another tracer with the same epoch
    /// (a generator thread's), hanging its roots under the span that
    /// is open here.
    pub fn absorb(&self, other: Vec<Span>) {
        let mut st = self.state.borrow_mut();
        let base = st.0.len() as u32;
        let adopt = st.1.last().copied();
        st.0.extend(other.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    /// Consumes the recorder, returning every span in start order of
    /// their opening.
    pub fn into_spans(self) -> Vec<Span> {
        self.state.into_inner().0
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one span never overlap on one thread;
/// children absorbed from parallel threads may, so the covered part
/// is the union of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut upto = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(upto);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct NameAgg {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their self times (ns).
    pub self_ns: u64,
    /// Each span's duration (ns), in recording order.
    pub durs_ns: Vec<f64>,
}

/// Spans aggregated by name.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Aggregates, keyed by span name.
    pub by_name: BTreeMap<&'static str, NameAgg>,
}

impl Profile {
    /// Aggregates `spans`.
    pub fn of(spans: &[Span]) -> Profile {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameAgg> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let a = by_name.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += self_ns;
            a.durs_ns.push(s.dur_ns() as f64);
        }
        Profile { by_name }
    }

    fn get(&self, name: &str) -> Option<&NameAgg> {
        self.by_name.get(name)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |a| a.count)
    }

    /// Total duration of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |a| a.total_ns as f64 / 1e9)
    }

    /// Mean duration of spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.get(name)
            .map_or(0.0, |a| a.total_ns as f64 / a.count.max(1) as f64)
    }

    /// Distribution of the durations of spans named `name`, scaled by
    /// `1 / div` (1e6 for milliseconds, 1e3 for microseconds).
    pub fn dist(&self, name: &str, div: f64, wanted_p: f64) -> Dist {
        let scaled: Vec<f64> = self
            .get(name)
            .map(|a| a.durs_ns.iter().map(|d| d / div).collect())
            .unwrap_or_default();
        summarize(&scaled, wanted_p)
    }

    /// Sum of self times over every span whose name is not `root`, in
    /// seconds — the numerator of `bench.trace_coverage`.
    pub fn layer_self_s(&self, root: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| **n != root)
            .map(|(_, a)| a.self_ns as f64 / 1e9)
            .sum()
    }
}

/// Writes one JSON object per span: `id`, `name`, `start_ns`,
/// `end_ns`, `parent` (`null` for a root) and `workload`.
pub fn write_spans_jsonl(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\"}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no VmHWM in /proc/self/status"))
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Every file under `dir` as `(relative name, bytes)`, sorted — the
/// operand of the traced-vs-untraced archive identity check.
pub fn dir_contents(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        files.push((
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path())?,
        ));
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_passes_odd_even_and_single() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Five ingest passes with one slow outlier: the outlier does
        // not move the reported value.
        assert_eq!(median(&[7.2, 7.1, 7.3, 19.0, 7.2]), 7.2);
    }

    #[test]
    fn fastest_pass_ignores_every_slower_one() {
        assert_eq!(fastest(&[3.0]), 3.0);
        // A burst of host noise over most of a run leaves the floor.
        assert_eq!(fastest(&[2.3, 2.1, 1.46, 2.0, 1.9]), 1.46);
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 needs 100 samples, p95 200, p99 1000, p99.9 10000.
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(288), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summarize_caps_the_tail_at_what_the_count_supports() {
        let ticks: Vec<f64> = (1..=288).map(f64::from).collect();
        let d = summarize(&ticks, 95.0);
        assert_eq!((d.n, d.p50, d.tail_p, d.tail), (288, 144.5, 95.0, 274.0));
        // 144 marks cannot carry a p95: the picker falls back to p90.
        let marks: Vec<f64> = (1..=144).map(f64::from).collect();
        let d = summarize(&marks, 95.0);
        assert_eq!((d.tail_p, d.tail), (90.0, 130.0));
        // A handful of samples: the tail is the median.
        let d = summarize(&[5.0, 1.0, 3.0], 99.0);
        assert_eq!((d.n, d.tail_p, d.tail), (3, 50.0, 3.0));
        assert_eq!(summarize(&[], 99.0).n, 0);
    }

    #[test]
    fn fail_ratio_on_study_outage_counters() {
        // The ISSUE's study_outage reference: 147k admitted of the
        // 147k emitted plus 16.7k lost in flight.
        let emitted = 147_000u64;
        let lost_in_flight = 16_700u64;
        let r = fail_ratio(emitted, emitted + lost_in_flight);
        assert!((r - 16_700.0 / 163_700.0).abs() < 1e-12);
        assert_eq!(fail_ratio(10, 10), 0.0);
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(fail_ratio(0, 4), 1.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two adjacent children, the second with a nested child.
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("b.inner", 40, 50, Some(2)),
            // A grandchild must not be charged to the root twice.
            span("b.inner.leaf", 42, 44, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 8, 2]);
        let p = Profile::of(&spans);
        assert_eq!(p.layer_self_s("root"), 60e-9);
        assert_eq!(p.count("a"), 1);
        assert_eq!(p.total_s("b"), 40e-9);
    }

    #[test]
    fn self_time_unions_overlapping_children_from_parallel_threads() {
        // Two generator threads under one pass overlap in time: the
        // pass's self time is what neither covers.
        let spans = [
            span("pass", 0, 100, None),
            span("client", 10, 80, Some(0)),
            span("client", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let t = Tracer::new(epoch, true);
        let worker = Tracer::new(epoch, true);
        worker.span("client", || worker.span("send", || ()));
        let got = t.span("root", || {
            t.span("child", || 1) + {
                t.absorb(worker.into_spans());
                1
            }
        });
        assert_eq!(got, 2);
        let spans = t.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("client", Some(0)),
                ("send", Some(2)),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Disabled: runs the closure, records nothing.
        let off = Tracer::new(epoch, false);
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.into_spans().is_empty());
    }
}
