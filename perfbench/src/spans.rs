//! In-memory span recorder for the traced run.
//!
//! Spans are taken around calls into the program's public functions
//! from the benchmark's own code (the program itself carries no spans
//! yet). Each span keeps its name, start and end (ns since the recorder
//! was made), the span that encloses it, and the workload-run id of the
//! pass it belongs to. Spans are only kept in memory while a run
//! measures; [`Recorder::write_tsv`] writes them out when it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub run: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`]. Disabled recorders hand out a dummy.
#[must_use]
pub struct Open(u32);

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    run: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Start a new workload-run id; later spans carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, run: self.run });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop().expect("end() without begin()");
        assert_eq!(top, open.0, "spans must close in LIFO order");
        self.spans[top as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Add `n` to the counter `name` (bytes or items seen at a layer
    /// boundary, so ratios are taken where the work happens).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Sum of the durations of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 * 1e-9
    }

    /// Per workload-run id, the summed duration (ns) of the spans called
    /// `name`; runs without such a span are absent.
    pub fn sums_by_run(&self, name: &str) -> BTreeMap<u32, u64> {
        let mut sums = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.run).or_default() += s.ns();
        }
        sums
    }

    /// Self time per span index: its duration minus the part its
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.ns().saturating_sub(c)).collect()
    }

    /// Per workload-run id holding spans called `root`: the share of
    /// those spans' wall that the self time of the spans beneath them
    /// accounts for.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        let mut under: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut p = s.parent;
            while p != NO_PARENT {
                if self.spans[p as usize].name == root {
                    *under.entry(s.run).or_default() += self_ns[i];
                    break;
                }
                p = self.spans[p as usize].parent;
            }
        }
        self.sums_by_run(root)
            .into_iter()
            .filter(|&(_, wall)| wall > 0)
            .map(|(run, wall)| under.get(&run).copied().unwrap_or(0) as f64 / wall as f64)
            .collect()
    }

    /// Write every span as one tab-separated row (index, run, parent,
    /// name, start ns, end ns).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\trun\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{i}\t{}\t{parent}\t{}\t{}\t{}", s.run, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
