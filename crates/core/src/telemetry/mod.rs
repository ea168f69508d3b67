//! Deterministic observability on the simulated clock.
//!
//! Every number this crate produces lives on the simulated clock (one tick
//! = one accelerator cycle), so observability here is unlike wall-clock
//! tracing: a run's telemetry is a **pure function of the run's inputs**,
//! bit-identical across hosts, repetitions and thread counts. That makes
//! traces and metric snapshots pinnable as golden fixtures, exactly like
//! the paper artifacts.
//!
//! The subsystem has three parts:
//!
//! * **Events** ([`Event`]) — the full request lifecycle (arrival →
//!   enqueue → batch-form → dispatch → model-switch → execute → complete),
//!   per-layer execution spans, and per-batch traffic/sparsity counter
//!   deltas, each stamped with sim-time and stable ids (request, batch,
//!   worker, layer, network). A [`Telemetry`] sink receives them; the
//!   default [`Recorder`] keeps a bounded ring buffer, the no-op
//!   [`Disabled`] sink costs one branch on the hot path and nothing else.
//! * **Metrics** ([`metrics::Registry`]) — named counters, gauges and
//!   fixed log-2-bucket histograms folded from an event stream, snapshot
//!   cross-checked against [`ServeReport`](crate::serve::ServeReport) /
//!   [`PoolReport`](crate::pool::PoolReport) so the two accounting paths
//!   must agree.
//! * **Exporters** ([`export`]) — Chrome trace-event JSON (opens in
//!   Perfetto / `chrome://tracing`; complements the stage-level VCD of
//!   [`crate::trace`]) and Prometheus text exposition.
//!
//! # Determinism contract
//!
//! Events are **derived, not sampled**: the serving event loop
//! (`pool::drive`) records its serial routing decisions and then emits the
//! whole event stream in one post-pass over the assembled run — responses,
//! batch records and per-layer traces that are already pinned bit-identical
//! across thread counts by the `parallel_identity` suite. Worker threads
//! never touch the sink, so parallel runs produce byte-identical telemetry
//! to serial ones by construction, and enabling a recorder can never
//! change the run it observes.
//!
//! The canonical emission order is: first the request intake in routing
//! order ([`Event::RequestArrived`], [`Event::RequestEnqueued`] per
//! request), then per batch in dispatch order: [`Event::BatchFormed`],
//! [`Event::ModelSwitch`] (only when switch traffic was paid),
//! [`Event::BatchDispatched`], one [`Event::LayerExecuted`] per layer
//! (cycle-accurate backends only; the spans exactly tile the batch span),
//! [`Event::BatchExecuted`], and one [`Event::RequestCompleted`] per
//! member.
//!
//! Timestamps always come from the **caller's simulated clock** — never
//! from [`std::time::Instant`] or any other wall-clock source (enforced by
//! clippy's `disallowed_types`, which rejects `Instant` and `SystemTime`
//! in every crate under `crates/`).

pub mod derive;
pub mod export;
pub mod metrics;

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

use edea_nn::workload::NetworkId;

/// One telemetry event on the simulated clock.
///
/// Every variant is plain-old-data (`Copy`), so recording never allocates
/// and event streams compare bit-exactly with `==`. Span-shaped variants
/// carry explicit `start`/`end` ticks; point events carry one tick `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request entered the run at its arrival tick.
    RequestArrived {
        /// Arrival tick.
        t: u64,
        /// Request id.
        request: u64,
        /// The network the request targets.
        network: NetworkId,
    },
    /// The dispatcher routed the request onto a worker's FIFO queue.
    RequestEnqueued {
        /// Enqueue tick (= the arrival tick; routing is immediate).
        t: u64,
        /// Request id.
        request: u64,
        /// The worker whose queue received the request.
        worker: usize,
        /// Queue depth *after* the enqueue.
        depth: usize,
    },
    /// A worker's queue head formed a batch (same-network prefix).
    BatchFormed {
        /// Formation tick (= the dispatch tick; a batch forms when its
        /// dispatch condition fires).
        t: u64,
        /// Batch index in global dispatch order.
        batch: usize,
        /// The worker that formed it.
        worker: usize,
        /// Number of member requests.
        size: usize,
        /// The network every member targets.
        network: NetworkId,
    },
    /// The dispatch flipped the worker's resident model and paid the
    /// incoming network's weight refetch. Emitted only when traffic was
    /// actually paid (a same-network dispatch emits nothing).
    ModelSwitch {
        /// The dispatch tick the switch was charged at.
        t: u64,
        /// The batch whose dispatch caused the switch.
        batch: usize,
        /// The switching worker.
        worker: usize,
        /// The network switched *to*.
        network: NetworkId,
        /// The refetch traffic in bytes.
        bytes: u64,
    },
    /// A batch left its queue for execution.
    BatchDispatched {
        /// Dispatch tick.
        t: u64,
        /// Batch index in global dispatch order.
        batch: usize,
        /// The executing worker.
        worker: usize,
        /// Number of member requests.
        size: usize,
        /// The network the batch runs.
        network: NetworkId,
    },
    /// One layer's execution span inside a dispatched batch. Emitted only
    /// by backends that report per-layer traces (the cycle-accurate
    /// simulator); the spans of one batch exactly tile its
    /// [`Event::BatchExecuted`] span, in layer order.
    LayerExecuted {
        /// Span start tick.
        start: u64,
        /// Span end tick (`start + cycles`).
        end: u64,
        /// The enclosing batch.
        batch: usize,
        /// The executing worker.
        worker: usize,
        /// Layer index within the network.
        layer: usize,
        /// The network the batch runs.
        network: NetworkId,
        /// Layer cycles over the whole batch.
        cycles: u64,
        /// MAC slots exercised over the batch (DWC + PWC engines).
        mac_slots: u64,
        /// Slots gated by zero activations (the sparsity the paper's
        /// Fig. 11 measures), DWC + PWC.
        gated_slots: u64,
    },
    /// A batch's whole execution span plus its traffic counter deltas.
    BatchExecuted {
        /// Dispatch tick.
        start: u64,
        /// Completion tick (`start + cycles`).
        end: u64,
        /// Batch index in global dispatch order.
        batch: usize,
        /// The executing worker.
        worker: usize,
        /// Number of member requests.
        size: usize,
        /// The network the batch ran.
        network: NetworkId,
        /// Service cycles.
        cycles: u64,
        /// External weight + offline-parameter bytes (paid once per batch).
        weight_bytes: u64,
        /// Total external bytes.
        external_bytes: u64,
        /// Model-switch traffic charged at this dispatch (its own
        /// category, never folded into `external_bytes`).
        switch_bytes: u64,
    },
    /// A request's batch completed: the end of its lifecycle.
    RequestCompleted {
        /// Completion tick.
        t: u64,
        /// Request id.
        request: u64,
        /// The batch that carried it.
        batch: usize,
        /// The worker that executed it.
        worker: usize,
        /// The network that served it.
        network: NetworkId,
        /// End-to-end latency in ticks (arrival → completion).
        latency: u64,
        /// Ticks spent queued before dispatch.
        queue_ticks: u64,
    },
}

impl Event {
    /// The simulated tick the event is stamped with (span events answer
    /// their start tick).
    #[must_use]
    pub fn time(&self) -> u64 {
        match *self {
            Event::RequestArrived { t, .. }
            | Event::RequestEnqueued { t, .. }
            | Event::BatchFormed { t, .. }
            | Event::ModelSwitch { t, .. }
            | Event::BatchDispatched { t, .. }
            | Event::RequestCompleted { t, .. } => t,
            Event::LayerExecuted { start, .. } | Event::BatchExecuted { start, .. } => start,
        }
    }

    /// The worker the event concerns, if any (arrivals precede routing).
    #[must_use]
    pub fn worker(&self) -> Option<usize> {
        match *self {
            Event::RequestArrived { .. } => None,
            Event::RequestEnqueued { worker, .. }
            | Event::BatchFormed { worker, .. }
            | Event::ModelSwitch { worker, .. }
            | Event::BatchDispatched { worker, .. }
            | Event::LayerExecuted { worker, .. }
            | Event::BatchExecuted { worker, .. }
            | Event::RequestCompleted { worker, .. } => Some(worker),
        }
    }
}

/// A sink for telemetry events.
///
/// The serving loop consults [`Telemetry::enabled`] once per decision
/// point and skips **all** telemetry work — side-record collection,
/// per-layer trace retention, event derivation — when it answers `false`,
/// so a disabled sink costs one predictable branch and nothing else.
///
/// Implementations must be `Sync` (sinks are shared by reference across a
/// serve call) and must not reorder events: the emission order is part of
/// the determinism contract (see the module docs). All events arrive from
/// the serial post-pass of the event loop — never from worker threads.
pub trait Telemetry: Sync + fmt::Debug {
    /// Whether this sink wants events at all. `false` must be constant for
    /// the sink's lifetime (the loop gates collection on it up front).
    fn enabled(&self) -> bool;

    /// Receives one event. Timestamps inside `event` are simulated ticks
    /// supplied by the caller — a sink never stamps time itself.
    fn record(&self, event: &Event);
}

/// The no-op sink: telemetry off, zero hot-path cost beyond one branch.
///
/// This is what every serve path uses unless a recorder is wired in; the
/// alloc-regression suite pins that serving through `Disabled` allocates
/// exactly as much as serving with no telemetry argument at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Disabled;

impl Telemetry for Disabled {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// Default capacity of a [`Recorder`] ring buffer, in events.
pub const DEFAULT_CAPACITY: usize = 1 << 14;

/// The default sink: a bounded ring buffer of events.
///
/// The buffer is preallocated at construction and never grows; once full,
/// the **oldest** event is dropped per new arrival and the drop counter
/// advances, so steady-state recording allocates nothing. Interior
/// mutability is a [`Mutex`] (recording happens on the serial post-pass,
/// so the lock is uncontended; a poisoned lock is recovered, the buffer
/// being plain data that is always valid).
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
}

#[derive(Debug)]
struct RecorderInner {
    events: VecDeque<Event>,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with the default capacity ([`DEFAULT_CAPACITY`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (at least 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(RecorderInner {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        // The buffer is plain data, always valid to reuse after a panic
        // elsewhere — recover instead of propagating poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The fixed event capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events dropped because the buffer was full (oldest-first).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// A snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().copied().collect()
    }

    /// Clears the buffer and the drop counter.
    pub fn clear(&self) {
        let mut g = self.lock();
        g.events.clear();
        g.dropped = 0;
    }
}

impl Telemetry for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let mut g = self.lock();
        if g.events.len() == self.capacity {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event::RequestArrived {
            t,
            request: t,
            network: NetworkId::PRIMARY,
        }
    }

    #[test]
    fn disabled_is_off_and_recorder_is_on() {
        assert!(!Disabled.enabled());
        Disabled.record(&ev(0)); // no-op, no panic
        let r = Recorder::new();
        assert!(r.enabled());
        assert_eq!(r.capacity(), DEFAULT_CAPACITY);
        assert!(r.is_empty());
    }

    #[test]
    fn recorder_keeps_events_in_order() {
        let r = Recorder::with_capacity(8);
        for t in 0..5 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let events = r.events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.time(), i as u64);
        }
    }

    #[test]
    fn full_recorder_drops_oldest_and_counts() {
        let r = Recorder::with_capacity(3);
        for t in 0..5 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let times: Vec<u64> = r.events().iter().map(Event::time).collect();
        assert_eq!(times, vec![2, 3, 4]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let r = Recorder::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.record(&ev(1));
        r.record(&ev(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].time(), 2);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn event_accessors_answer_time_and_worker() {
        let a = Event::RequestArrived {
            t: 7,
            request: 0,
            network: NetworkId::PRIMARY,
        };
        assert_eq!(a.time(), 7);
        assert_eq!(a.worker(), None);
        let l = Event::LayerExecuted {
            start: 10,
            end: 20,
            batch: 0,
            worker: 3,
            layer: 1,
            network: NetworkId::PRIMARY,
            cycles: 10,
            mac_slots: 0,
            gated_slots: 0,
        };
        assert_eq!(l.time(), 10);
        assert_eq!(l.worker(), Some(3));
    }
}
