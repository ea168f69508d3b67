//! The metrics registry: counters, gauges and log-2 histograms folded
//! from an event stream.
//!
//! A [`Registry`] is a deterministic pure function of its events: same
//! stream, same snapshot, on every host and at every thread count — so a
//! rendered snapshot can be pinned as a golden fixture. The registry is
//! cross-checked against [`ServeReport`](crate::serve::ServeReport) /
//! [`PoolReport`](crate::pool::PoolReport) in the telemetry suite: every
//! quantity both accounting paths expose must agree exactly.

use super::Event;

/// Number of finite histogram bucket edges: `2^0 .. 2^32`.
const EDGES: usize = 33;

/// A fixed-bucket histogram with deterministic log-2 edges.
///
/// Bucket `i` (for `i < 33`) counts observations `v ≤ 2^i`; one overflow
/// bucket (`+Inf`) catches the rest. The edges are fixed at construction
/// so snapshots are stable fixtures — no adaptive resizing, no
/// quantile sketching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; index 33 is the `+Inf` bucket.
    counts: [u64; EDGES + 1],
    sum: u128,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; EDGES + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.sum += u128::from(v);
        self.count += 1;
    }

    /// The bucket index `v` falls into (the first edge `2^i ≥ v`; 33 for
    /// the `+Inf` overflow bucket).
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        (0..EDGES as u32)
            .find(|&i| v <= 1u64 << i)
            .map_or(EDGES, |i| i as usize)
    }

    /// Upper edge of bucket `i` (`None` for the `+Inf` bucket, or out of
    /// range).
    #[must_use]
    pub fn edge(i: usize) -> Option<u64> {
        (i < EDGES).then(|| 1u64 << i)
    }

    /// Number of buckets including `+Inf`.
    #[must_use]
    pub fn buckets() -> usize {
        EDGES + 1
    }

    /// Non-cumulative count of bucket `i` (0 out of range).
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }
}

/// A metrics snapshot folded from one run's event stream.
///
/// All series are insertion-ordered (the fold order below is fixed), so
/// iteration — and therefore the Prometheus exposition — is deterministic.
///
/// | kind | names |
/// |---|---|
/// | counter | `requests_total`, `requests_completed_total`, `batches_total`, `model_switches_total`, `switch_bytes_total`, `weight_bytes_total`, `external_bytes_total`, `layer_spans_total`, `mac_slots_total`, `gated_slots_total` |
/// | per-worker counter | `worker_requests_total`, `worker_batches_total`, `worker_busy_cycles`, `worker_switch_bytes` |
/// | gauge | `makespan_ticks`, `queue_depth_max` |
/// | per-worker gauge | `worker_queue_depth_max` |
/// | histogram | `latency_ticks`, `queue_ticks`, `batch_size`, `switch_bytes`, `queue_depth`, `gated_slots` |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    worker_counters: Vec<(&'static str, Vec<u64>)>,
    gauges: Vec<(&'static str, u64)>,
    worker_gauges: Vec<(&'static str, Vec<u64>)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// Folds an event stream into a snapshot. Pure and deterministic: the
    /// same events always yield the same registry.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let workers = events
            .iter()
            .filter_map(Event::worker)
            .max()
            .map_or(0, |w| w + 1);
        let z = || vec![0u64; workers];

        let mut requests = 0u64;
        let mut completed = 0u64;
        let mut batches = 0u64;
        let mut switches = 0u64;
        let mut switch_bytes_total = 0u64;
        let mut weight_bytes_total = 0u64;
        let mut external_bytes_total = 0u64;
        let mut layer_spans = 0u64;
        let mut mac_slots_total = 0u64;
        let mut gated_slots_total = 0u64;
        let mut makespan = 0u64;
        let mut w_requests = z();
        let mut w_batches = z();
        let mut w_busy = z();
        let mut w_switch = z();
        let mut w_depth_max = z();
        let mut h_latency = Histogram::new();
        let mut h_queue = Histogram::new();
        let mut h_batch_size = Histogram::new();
        let mut h_switch = Histogram::new();
        let mut h_depth = Histogram::new();
        let mut h_gated = Histogram::new();

        for ev in events {
            match *ev {
                Event::RequestArrived { .. } => requests += 1,
                Event::RequestEnqueued { worker, depth, .. } => {
                    w_requests[worker] += 1;
                    w_depth_max[worker] = w_depth_max[worker].max(depth as u64);
                    h_depth.observe(depth as u64);
                }
                Event::BatchFormed { .. } | Event::BatchDispatched { .. } => {}
                Event::ModelSwitch { worker, bytes, .. } => {
                    switches += 1;
                    switch_bytes_total += bytes;
                    w_switch[worker] += bytes;
                    h_switch.observe(bytes);
                }
                Event::LayerExecuted {
                    mac_slots,
                    gated_slots,
                    ..
                } => {
                    layer_spans += 1;
                    mac_slots_total += mac_slots;
                    gated_slots_total += gated_slots;
                    h_gated.observe(gated_slots);
                }
                Event::BatchExecuted {
                    end,
                    worker,
                    size,
                    cycles,
                    weight_bytes,
                    external_bytes,
                    ..
                } => {
                    batches += 1;
                    weight_bytes_total += weight_bytes;
                    external_bytes_total += external_bytes;
                    // Batches arrive in dispatch order, not completion
                    // order: `ServeReport::makespan` is the latest
                    // completion, so take the max.
                    makespan = makespan.max(end);
                    w_batches[worker] += 1;
                    w_busy[worker] += cycles;
                    h_batch_size.observe(size as u64);
                }
                Event::RequestCompleted {
                    latency,
                    queue_ticks,
                    ..
                } => {
                    completed += 1;
                    h_latency.observe(latency);
                    h_queue.observe(queue_ticks);
                }
            }
        }

        Self {
            counters: vec![
                ("requests_total", requests),
                ("requests_completed_total", completed),
                ("batches_total", batches),
                ("model_switches_total", switches),
                ("switch_bytes_total", switch_bytes_total),
                ("weight_bytes_total", weight_bytes_total),
                ("external_bytes_total", external_bytes_total),
                ("layer_spans_total", layer_spans),
                ("mac_slots_total", mac_slots_total),
                ("gated_slots_total", gated_slots_total),
            ],
            worker_counters: vec![
                ("worker_requests_total", w_requests),
                ("worker_batches_total", w_batches),
                ("worker_busy_cycles", w_busy),
                ("worker_switch_bytes", w_switch),
            ],
            gauges: vec![
                ("makespan_ticks", makespan),
                (
                    "queue_depth_max",
                    w_depth_max.iter().copied().max().unwrap_or(0),
                ),
            ],
            worker_gauges: vec![("worker_queue_depth_max", w_depth_max)],
            histograms: vec![
                ("latency_ticks", h_latency),
                ("queue_ticks", h_queue),
                ("batch_size", h_batch_size),
                ("switch_bytes", h_switch),
                ("queue_depth", h_depth),
                ("gated_slots", h_gated),
            ],
        }
    }

    /// An unlabeled counter's value (`None` for an unknown name).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// A per-worker counter series (`None` for an unknown name).
    #[must_use]
    pub fn worker_counter(&self, name: &str) -> Option<&[u64]> {
        self.worker_counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// A gauge's value (`None` for an unknown name).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// A per-worker gauge series (`None` for an unknown name).
    #[must_use]
    pub fn worker_gauge(&self, name: &str) -> Option<&[u64]> {
        self.worker_gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// A histogram (`None` for an unknown name).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// All unlabeled counters, in fold order.
    #[must_use]
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All per-worker counter series, in fold order.
    #[must_use]
    pub fn worker_counters(&self) -> &[(&'static str, Vec<u64>)] {
        &self.worker_counters
    }

    /// All gauges, in fold order.
    #[must_use]
    pub fn gauges(&self) -> &[(&'static str, u64)] {
        &self.gauges
    }

    /// All per-worker gauge series, in fold order.
    #[must_use]
    pub fn worker_gauges(&self) -> &[(&'static str, Vec<u64>)] {
        &self.worker_gauges
    }

    /// All histograms, in fold order.
    #[must_use]
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::NetworkId;

    #[test]
    fn bucket_edges_are_log2_and_stable() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(1 << 32), EDGES - 1);
        assert_eq!(Histogram::bucket_of((1 << 32) + 1), EDGES);
        assert_eq!(Histogram::bucket_of(u64::MAX), EDGES);
        assert_eq!(Histogram::edge(0), Some(1));
        assert_eq!(Histogram::edge(32), Some(1 << 32));
        assert_eq!(Histogram::edge(33), None);
        assert_eq!(Histogram::buckets(), 34);
    }

    #[test]
    fn histogram_conserves_count_and_sum() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 8 + (1 << 20) + u128::from(u64::MAX));
        let total: u64 = (0..Histogram::buckets()).map(|i| h.bucket_count(i)).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn registry_folds_a_tiny_stream() {
        let n = NetworkId::PRIMARY;
        let events = vec![
            Event::RequestArrived {
                t: 0,
                request: 0,
                network: n,
            },
            Event::RequestEnqueued {
                t: 0,
                request: 0,
                worker: 1,
                depth: 1,
            },
            Event::BatchFormed {
                t: 5,
                batch: 0,
                worker: 1,
                size: 1,
                network: n,
            },
            Event::ModelSwitch {
                t: 5,
                batch: 0,
                worker: 1,
                network: n,
                bytes: 64,
            },
            Event::BatchDispatched {
                t: 5,
                batch: 0,
                worker: 1,
                size: 1,
                network: n,
            },
            Event::LayerExecuted {
                start: 5,
                end: 15,
                batch: 0,
                worker: 1,
                layer: 0,
                network: n,
                cycles: 10,
                mac_slots: 100,
                gated_slots: 40,
            },
            Event::BatchExecuted {
                start: 5,
                end: 15,
                batch: 0,
                worker: 1,
                size: 1,
                network: n,
                cycles: 10,
                weight_bytes: 32,
                external_bytes: 48,
                switch_bytes: 64,
            },
            Event::RequestCompleted {
                t: 15,
                request: 0,
                batch: 0,
                worker: 1,
                network: n,
                latency: 15,
                queue_ticks: 5,
            },
        ];
        let r = Registry::from_events(&events);
        assert_eq!(r.counter("requests_total"), Some(1));
        assert_eq!(r.counter("requests_completed_total"), Some(1));
        assert_eq!(r.counter("batches_total"), Some(1));
        assert_eq!(r.counter("model_switches_total"), Some(1));
        assert_eq!(r.counter("switch_bytes_total"), Some(64));
        assert_eq!(r.counter("weight_bytes_total"), Some(32));
        assert_eq!(r.counter("external_bytes_total"), Some(48));
        assert_eq!(r.counter("mac_slots_total"), Some(100));
        assert_eq!(r.counter("gated_slots_total"), Some(40));
        assert_eq!(r.counter("nope"), None);
        assert_eq!(r.gauge("makespan_ticks"), Some(15));
        assert_eq!(r.gauge("queue_depth_max"), Some(1));
        // Worker series cover workers 0..=1 (index 1 was the max seen).
        assert_eq!(r.worker_counter("worker_busy_cycles"), Some(&[0, 10][..]));
        assert_eq!(r.worker_counter("worker_requests_total"), Some(&[0, 1][..]));
        assert_eq!(r.worker_gauge("worker_queue_depth_max"), Some(&[0, 1][..]));
        let lat = r.histogram("latency_ticks").unwrap();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum(), 15);
        assert!(r.histogram("unknown").is_none());
    }

    #[test]
    fn empty_stream_yields_zeroed_registry() {
        let r = Registry::from_events(&[]);
        assert_eq!(r.counter("requests_total"), Some(0));
        assert_eq!(r.gauge("makespan_ticks"), Some(0));
        assert_eq!(r.worker_counter("worker_busy_cycles"), Some(&[][..]));
        assert_eq!(r.histogram("latency_ticks").unwrap().count(), 0);
    }
}
