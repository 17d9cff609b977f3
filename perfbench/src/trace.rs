//! The benchmark's own spans: one around every layer call a traced run
//! makes, kept in memory per thread and written out as tab-separated
//! lines when the run ends. Spans of one request share its request
//! number.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spans per buffer chunk. A full chunk is kept and a fresh one
/// allocated, so no span is ever dropped and recorded spans are never
/// copied while a window is timed.
const CHUNK: usize = 1 << 16;

/// The layer calls the benchmark wraps in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Taking the engine's read lock (`engine_4k`).
    ReadLock,
    /// `Grbac::decide` under that lock (`engine_4k`).
    Decide,
    /// An in-process `add_rule`/`remove_rule` under the write lock.
    Edit,
    /// A client round trip of a decide line.
    WireDecide,
    /// A client round trip of an edit line.
    WireEdit,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::ReadLock => "engine.read_lock",
            Layer::Decide => "engine.decide",
            Layer::Edit => "engine.edit",
            Layer::WireDecide => "wire.round_trip",
            Layer::WireEdit => "wire.edit",
        }
    }
}

/// 24 bytes: a traced `engine_4k` run keeps millions of these.
#[derive(Debug, Clone, Copy)]
struct BenchSpan {
    start_ns: u64,
    duration_ns: u32,
    request: u32,
    layer: Layer,
}

/// One thread's span buffer. All buffers of a run share an epoch, so
/// their timestamps line up.
#[derive(Debug)]
pub struct Tracer {
    thread: &'static str,
    epoch: Instant,
    chunks: Vec<Vec<BenchSpan>>,
}

impl Tracer {
    pub fn new(thread: &'static str, epoch: Instant) -> Self {
        Self {
            thread,
            epoch,
            chunks: Vec::new(),
        }
    }

    /// Records a finished span. Request numbers wrap at 2^32, and a
    /// span longer than about four seconds reads as that long.
    pub fn record(&mut self, layer: Layer, request: u64, start: Instant, end: Instant) {
        let nanos = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let span = BenchSpan {
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            duration_ns: u32::try_from(nanos(end.saturating_duration_since(start)))
                .unwrap_or(u32::MAX),
            request: request as u32,
            layer,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(span),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(span);
                self.chunks.push(chunk);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// Where a workload's spans go: under the build directory the benchmark
/// was compiled into, so runs write nothing outside the checkout. Each
/// traced run of a workload replaces the last one's file.
pub fn output_path(workload: &str) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench").join("target"), PathBuf::from);
    root.join("perfbench-trace").join(format!("{workload}.tsv"))
}

/// Writes every tracer's spans, one per line after a header line.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\trequest\tname\tstart_ns\tend_ns")?;
    for tracer in tracers {
        for span in tracer.chunks.iter().flatten() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                tracer.thread,
                span.request,
                span.layer.name(),
                span.start_ns,
                span.start_ns + u64::from(span.duration_ns)
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_span_is_kept_past_a_chunk() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new("t", epoch);
        for request in 0..(CHUNK as u64 * 2 + 3) {
            tracer.record(Layer::Decide, request, epoch, epoch);
        }
        assert_eq!(tracer.len(), CHUNK * 2 + 3);
        assert_eq!(tracer.chunks.len(), 3);
        assert_eq!(std::mem::size_of::<BenchSpan>(), 24);
    }
}
