//! In-memory spans around calls into the repository's layers, their
//! self times, and the per-workload ledger they close.
//!
//! A *client* span wraps a call the load generator makes over the wire
//! and is a ledger root. A *shadow* span times the benchmark repeating
//! the daemon's server-side work in process, on the same bytes and
//! through the same public functions; it runs after its client call
//! returns, so it never overlaps it, and it is recorded as that call's
//! child. A client span's self time is its duration minus its shadow
//! children: the wire-and-daemon share. A *side* span (RSU-side encode)
//! is timed but lies outside every measured end-to-end interval.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `vcps-core` / `vcps-hash`: RSU-side encode.
    Core,
    /// `vcps-sim::protocol`: the upload codec.
    Protocol,
    /// `vcps-net`: client, wire codec and daemon request path.
    Net,
    /// `vcps-sim::shard`: ingest, pair decode, O–D assembly.
    Shard,
    /// `vcps-sim::durable` + `vcps-durable`: WAL, checkpoints, recovery.
    Durable,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 5] = [
        Layer::Core,
        Layer::Protocol,
        Layer::Net,
        Layer::Shard,
        Layer::Durable,
    ];

    /// The layer's metric-name prefix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Protocol => "protocol",
            Layer::Net => "net",
            Layer::Shard => "shard",
            Layer::Durable => "durable",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `net.od_query`.
    pub name: &'static str,
    /// The layer its self time is charged to.
    pub layer: Layer,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request this span serves (period or burst index).
    pub request: u64,
    /// Whether this is a ledger root (a client call inside a measured
    /// end-to-end interval).
    pub ledger_root: bool,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every method is a no-op when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only if `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Records a client call that ran from `start` to `end` inside a
    /// measured interval; returns its id for shadow children.
    pub fn client(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let span = Span {
            name,
            layer: Layer::Net,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            request,
            ledger_root: true,
        };
        self.push(span)
    }

    /// Records a span outside every measured interval; returns its id
    /// for shadow children.
    pub fn side(
        &mut self,
        name: &'static str,
        layer: Layer,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let span = Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            request,
            ledger_root: false,
        };
        self.push(span)
    }

    /// Runs `f` as a shadow child of `parent` (when tracing) and
    /// returns its result with the span id.
    pub fn shadow<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            ledger_root: false,
        };
        (out, self.push(span))
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of spans named `name`, in milliseconds (0 if none).
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64 / 1e6,
        }
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.request
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the durations of its
/// direct children. Shadow children never overlap their parent in
/// wall time, so this is the parent's share once the children's work
/// is charged to their own layers; it is negative when the in-process
/// repeat took longer than the whole call it shadows.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns() as i64;
        }
    }
    out
}

/// The end-to-end time of one workload broken into layer self times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    /// The measured end-to-end time.
    pub measured_ns: i64,
    /// Self time per layer, summed over every span under a ledger root.
    pub layers: BTreeMap<Layer, i64>,
    /// `measured − Σ layers`: time inside the measured intervals that
    /// no client span covers.
    pub unattributed_ns: i64,
}

impl Ledger {
    /// Closes the ledger over `spans` for `measured_ns` of end-to-end
    /// time.
    #[must_use]
    pub fn close(measured_ns: i64, spans: &[Span]) -> Self {
        let self_ns = self_times(spans);
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            i
        };
        let mut layers: BTreeMap<Layer, i64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
        for (i, s) in spans.iter().enumerate() {
            if spans[root_of(i)].ledger_root {
                *layers.get_mut(&s.layer).expect("every layer present") += self_ns[i];
            }
        }
        let attributed: i64 = layers.values().sum();
        Self {
            measured_ns,
            layers,
            unattributed_ns: measured_ns - attributed,
        }
    }

    /// Whether layers + unattributed = measured.
    #[must_use]
    pub fn closes(&self) -> bool {
        self.layers.values().sum::<i64>() + self.unattributed_ns == self.measured_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            ledger_root: parent.is_none(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("net.od_query", Layer::Net, 0, 100, None),
            span("shard.od_assembly", Layer::Shard, 120, 180, Some(0)),
            span("net.od_encode", Layer::Net, 180, 190, Some(0)),
            span("durable.ingest", Layer::Durable, 200, 230, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
    }

    #[test]
    fn self_time_goes_negative_when_children_outgrow_parent() {
        let spans = vec![
            span("net.ingest", Layer::Net, 0, 10, None),
            span("durable.ingest", Layer::Durable, 20, 35, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![-5, 15]);
    }

    #[test]
    fn ledger_closes_exactly() {
        let mut spans = vec![
            span("net.ingest", Layer::Net, 0, 40, None),
            span("durable.ingest", Layer::Durable, 50, 70, Some(0)),
            span("shard.ingest", Layer::Shard, 70, 75, Some(1)),
            span("net.od_query", Layer::Net, 41, 141, None),
            span("shard.od_assembly", Layer::Shard, 150, 210, Some(3)),
        ];
        // A side span (RSU encode) is outside the measured intervals.
        spans.push(Span {
            ledger_root: false,
            ..span("core.encode", Layer::Core, 300, 400, None)
        });
        let ledger = Ledger::close(145, &spans);
        assert!(ledger.closes());
        assert_eq!(ledger.layers[&Layer::Net], 20 + 40);
        assert_eq!(ledger.layers[&Layer::Durable], 15);
        assert_eq!(ledger.layers[&Layer::Shard], 5 + 60);
        assert_eq!(ledger.layers[&Layer::Core], 0);
        assert_eq!(ledger.unattributed_ns, 145 - 140);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.client("net.ingest", 0, now, now), None);
        let (v, id) = t.shadow("x", Layer::Shard, None, 0, || 7);
        assert_eq!((v, id), (7, None));
        assert!(t.spans().is_empty());
    }
}
