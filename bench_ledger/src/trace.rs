//! Spans recorded from the benchmark's own files, around the calls into each
//! layer: kept in memory while the run measures, written out when it ends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    trial: u32,
    seq: u32,
    /// Index of the span that caused this one, `-1` for a root.
    parent: i64,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose store is allocated up front, so that recording a span
    /// inside a timed loop is one bounds check and one write.
    pub fn new(workload: &'static str, capacity: usize) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a finished span and returns its index, for children to name
    /// as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        trial: usize,
        seq: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let since_origin = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trial: trial as u32,
            seq: seq as u32,
            parent: parent.map_or(-1, |p| p as i64),
            start_ns: since_origin(start),
            end_ns: since_origin(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span whose children are recorded before it ends: reserves
    /// its index now, [`Tracer::close`] stamps the end.
    pub fn open(&mut self, name: &'static str, trial: usize, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, trial, 0, parent, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = Instant::now().duration_since(self.origin).as_nanos() as u64;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON array to
    /// `<target dir>/bench_ledger/trace-<workload>.json` and returns the path.
    pub fn write(&self, target_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = target_dir.join("bench_ledger");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "[")?;
        for (index, span) in self.spans.iter().enumerate() {
            let comma = if index + 1 == self.spans.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"workload\": \"{}\", \"trial\": {}, \"seq\": {}, \
                 \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                span.name,
                self.workload,
                span.trial,
                span.seq,
                span.parent,
                span.start_ns,
                span.end_ns,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_the_file_holds_every_span() {
        let mut tracer = Tracer::new("unit", 4);
        let root = tracer.open("trial", 3, None);
        let start = Instant::now();
        let child = tracer.record("runtime.infer", 3, 7, Some(root), start, Instant::now());
        tracer.close(root);
        assert_eq!((root, child, tracer.len()), (0, 1, 2));
        assert!(tracer.spans[root].end_ns >= tracer.spans[child].end_ns);

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("trace-test-{}", std::process::id()));
        let path = tracer.write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(path.ends_with("bench_ledger/trace-unit.json"));
        assert_eq!(text.matches("\"workload\": \"unit\"").count(), 2);
        assert!(text.contains("\"name\": \"runtime.infer\", \"workload\": \"unit\", \"trial\": 3, \"seq\": 7, \"parent\": 0,"));
        assert!(text.contains("\"name\": \"trial\", \"workload\": \"unit\", \"trial\": 3, \"seq\": 0, \"parent\": -1,"));
    }
}
