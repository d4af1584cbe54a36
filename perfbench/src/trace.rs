//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a layer, start and end (ns since the tracer's
//! epoch), its parent, and the id of the tick (or request) it served.
//! Spans nest on the calling thread only, so a layer's *self time* is its
//! spans' durations minus what their children cover. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use std::io::Write;
use std::time::Instant;

/// The layers a span can be charged to, named after the crates/modules
/// the benchmark calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `flowtree-workloads` instance generation.
    Workloads,
    /// `sim::engine` (`Engine::run`), minus scheduler time inside it.
    Engine,
    /// `flowtree-core` scheduler `select` calls.
    Sched,
    /// `sim::session` admits and `run_until`.
    Session,
    /// `serve::pool` offers, frontier advances and drains.
    Pool,
    /// `serve::telemetry` reads (`metrics()`, `snapshot()`).
    Telemetry,
    /// `serve::store` appends.
    Store,
    /// `flowtree-gateway` client calls.
    Gateway,
    /// The generator waiting for the next due time.
    Idle,
    /// The host-speed reference kernel (`calib`), run before each timed
    /// unit of work.
    Calib,
    /// The benchmark's own bookkeeping: the root span of a timed region.
    Bench,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 11] = [
    Layer::Workloads,
    Layer::Engine,
    Layer::Sched,
    Layer::Session,
    Layer::Pool,
    Layer::Telemetry,
    Layer::Store,
    Layer::Gateway,
    Layer::Idle,
    Layer::Calib,
    Layer::Bench,
];

impl Layer {
    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workloads => "workloads",
            Layer::Engine => "engine",
            Layer::Sched => "sched",
            Layer::Session => "session",
            Layer::Pool => "pool",
            Layer::Telemetry => "telemetry",
            Layer::Store => "store",
            Layer::Gateway => "gateway",
            Layer::Idle => "idle",
            Layer::Calib => "calib",
            Layer::Bench => "uncovered",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Which layer the call belongs to.
    pub layer: Layer,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Tick (or request) id the call served.
    pub tick: u32,
}

/// Opaque handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A span still open on the stack.
#[derive(Debug)]
struct Open {
    /// Index in `spans`, if the span was kept.
    kept: Option<u32>,
    layer: Layer,
    start_ns: u64,
    /// Time covered by closed children so far.
    child_ns: u64,
}

/// Span recorder for one thread. Self time per layer is accumulated as
/// spans close, so it stays exact after the kept-span cap is reached.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    open: Vec<Open>,
    self_ns: [u64; LAYERS.len()],
    root_ns: u64,
    count: u64,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans in memory; `on == false`
    /// makes every call a no-op.
    pub fn new(on: bool, cap: usize) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            cap,
            spans: Vec::new(),
            open: Vec::new(),
            self_ns: [0; LAYERS.len()],
            root_ns: 0,
            count: 0,
        }
    }

    /// Is this tracer recording?
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: Layer, tick: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.count += 1;
        let kept = (self.spans.len() < self.cap).then(|| {
            let parent = self.open.last().and_then(|o| o.kept);
            self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, tick });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open { kept, layer, start_ns, child_ns: 0 });
        SpanId(Some(self.open.len()))
    }

    /// Close `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        let Some(depth) = id.0 else { return };
        let end = self.now_ns();
        while self.open.len() >= depth {
            let o = self.open.pop().expect("open span");
            let dur = end.saturating_sub(o.start_ns);
            self.finish(o, dur);
        }
    }

    fn finish(&mut self, o: Open, dur: u64) {
        if let Some(k) = o.kept {
            let s = &mut self.spans[k as usize];
            s.end_ns = s.start_ns + dur;
        }
        self.self_ns[layer_index(o.layer)] += dur.saturating_sub(o.child_ns);
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.root_ns += dur,
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        tick: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, layer, tick);
        let r = f();
        self.close(id);
        r
    }

    /// Charge `ns` measured inside the innermost open span (e.g. scheduler
    /// time inside `Engine::run`) to `layer` as a child of that span.
    pub fn child_time(&mut self, name: &'static str, layer: Layer, tick: u32, ns: u64) {
        if !self.on {
            return;
        }
        self.count += 1;
        let start_ns = self.open.last().map_or(0, |o| o.start_ns);
        let kept = (self.spans.len() < self.cap).then(|| {
            let parent = self.open.last().and_then(|o| o.kept);
            self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, tick });
            (self.spans.len() - 1) as u32
        });
        self.finish(Open { kept, layer, start_ns, child_ns: 0 }, ns);
    }

    /// The spans kept in memory (the first `cap` opened).
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded, kept or not.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Self time per layer (ns), indexed like [`LAYERS`]: each span's
    /// duration minus its children's.
    pub fn self_ns(&self) -> [u64; LAYERS.len()] {
        self.self_ns
    }

    /// Total duration of closed root spans (ns): the traced wall time.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tick\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.tick
            )?;
        }
        Ok(())
    }
}

fn layer_index(layer: Layer) -> usize {
    LAYERS.iter().position(|&l| l == layer).expect("every layer is listed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true, 16);
        let root = tr.open("run", Layer::Bench, 0);
        let e = tr.open("engine.run", Layer::Engine, 0);
        tr.child_time("select", Layer::Sched, 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        tr.close(e);
        tr.close(root);
        let own = tr.self_ns();
        let total: u64 = own.iter().sum();
        assert_eq!(total, tr.root_ns(), "self times partition the root");
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(1));
        // Past the cap, spans still count toward self time.
        let mut capped = Tracer::new(true, 1);
        let r = capped.open("run", Layer::Bench, 0);
        capped.child_time("select", Layer::Sched, 0, 5);
        capped.close(r);
        assert_eq!(capped.spans().len(), 1);
        assert_eq!(capped.count(), 2);
        assert_eq!(capped.self_ns()[layer_index(Layer::Sched)], 5);
        assert_eq!(capped.self_ns().iter().sum::<u64>(), capped.root_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 16);
        let x = tr.span("a", Layer::Pool, 1, || 7);
        assert_eq!(x, 7);
        tr.child_time("b", Layer::Sched, 1, 5);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.root_ns(), 0);
    }
}
