//! Derived views over an event stream: busy/idle intervals, utilization,
//! and queue-depth-over-time, plus a structural well-formedness check.
//!
//! These reconstruct the same quantities `PoolReport` computes
//! independently inside `pool::drive` — `worker_utilization`,
//! `max_queue_depth`, `mean_queue_depth` — from nothing but the telemetry
//! stream. The equality tests in `telemetry_properties` hold the two
//! accounting paths to *exact* equality (same integer arithmetic, same
//! single float division), which is the point: two derivations, one truth.

use super::Event;

/// Number of workers that appear in the stream (max worker id + 1).
#[must_use]
pub fn worker_count(events: &[Event]) -> usize {
    events
        .iter()
        .filter_map(Event::worker)
        .max()
        .map_or(0, |w| w + 1)
}

/// Completion tick of the last batch to finish (0 for an empty stream):
/// the maximum `BatchExecuted` end. The canonical stream emits batches in
/// global dispatch order, and on a multi-worker pool an earlier, larger
/// batch can finish after a later one, so this is a maximum, not the last
/// event's end. This is `ServeReport::makespan`'s definition, the
/// denominator of both `worker_utilization` and `mean_queue_depth`.
#[must_use]
pub fn makespan(events: &[Event]) -> u64 {
    events
        .iter()
        .filter_map(|ev| match *ev {
            Event::BatchExecuted { end, .. } => Some(end),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Per-worker busy intervals `(start, end)` in batch-execution order.
#[must_use]
pub fn busy_intervals(events: &[Event], workers: usize) -> Vec<Vec<(u64, u64)>> {
    let mut out = vec![Vec::new(); workers];
    for ev in events {
        if let Event::BatchExecuted {
            start, end, worker, ..
        } = *ev
        {
            if worker < workers {
                out[worker].push((start, end));
            }
        }
    }
    out
}

/// Per-worker busy cycles (sum of batch-execution span lengths). Matches
/// `WorkerReport::busy_cycles`.
#[must_use]
pub fn busy_cycles(events: &[Event], workers: usize) -> Vec<u64> {
    let mut out = vec![0u64; workers];
    for ev in events {
        if let Event::BatchExecuted { worker, cycles, .. } = *ev {
            if worker < workers {
                out[worker] += cycles;
            }
        }
    }
    out
}

/// Per-worker utilization: busy cycles over the pool makespan. Performs
/// the same `busy as f64 / makespan as f64` division as
/// `PoolReport::worker_utilization`, so the results are bit-identical.
#[must_use]
pub fn utilization(events: &[Event], workers: usize) -> Vec<f64> {
    let span = makespan(events);
    busy_cycles(events, workers)
        .into_iter()
        .map(|busy| {
            if span == 0 {
                0.0
            } else {
                busy as f64 / span as f64
            }
        })
        .collect()
}

/// Queue-depth-over-time for one worker: `(tick, depth)` samples, one per
/// depth change, merged from enqueue (+1 each) and dispatch (−size)
/// events. At equal ticks enqueues apply before dispatches, mirroring the
/// event loop's arrival-before-dispatch ordering.
#[must_use]
pub fn queue_depth_series(events: &[Event], worker: usize) -> Vec<(u64, i64)> {
    // (tick, kind, delta): kind 0 = enqueue, 1 = dispatch, so a stable
    // sort puts same-tick enqueues first.
    let mut deltas: Vec<(u64, u8, i64)> = Vec::new();
    for ev in events {
        match *ev {
            Event::RequestEnqueued { t, worker: w, .. } if w == worker => {
                deltas.push((t, 0, 1));
            }
            Event::BatchDispatched {
                t, worker: w, size, ..
            } if w == worker => {
                deltas.push((t, 1, -(size as i64)));
            }
            _ => {}
        }
    }
    deltas.sort_by_key(|&(t, kind, _)| (t, kind));
    let mut out = Vec::new();
    let mut depth = 0i64;
    for (t, _, delta) in deltas {
        depth += delta;
        out.push((t, depth));
    }
    out
}

/// Deepest the worker's queue ever got. Matches
/// `WorkerReport::max_queue_depth`: enqueue events carry the post-push
/// depth, and the loop only samples depth on pushes.
#[must_use]
pub fn max_queue_depth(events: &[Event], worker: usize) -> usize {
    events
        .iter()
        .filter_map(|ev| match *ev {
            Event::RequestEnqueued {
                worker: w, depth, ..
            } if w == worker => Some(depth),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Time-weighted mean queue depth for one worker over the pool makespan.
///
/// Replays the depth series and accumulates `depth × dt` in `u128`, then
/// performs the single `integral as f64 / makespan as f64` division —
/// the identical arithmetic `pool::drive` uses for
/// `WorkerReport::mean_queue_depth`, so equality is exact, not
/// approximate. (Same-tick segments have `dt = 0` and queues drain to
/// empty before the loop ends, so ordering within a tick cannot perturb
/// the integral.)
#[must_use]
pub fn mean_queue_depth(events: &[Event], worker: usize, makespan: u64) -> f64 {
    if makespan == 0 {
        return 0.0;
    }
    let series = queue_depth_series(events, worker);
    let mut integral: u128 = 0;
    let mut prev_t = 0u64;
    let mut depth = 0i64;
    for (t, d) in series {
        integral += u128::from(t - prev_t) * depth.max(0) as u128;
        prev_t = t;
        depth = d;
    }
    integral += u128::from(makespan - prev_t) * depth.max(0) as u128;
    integral as f64 / makespan as f64
}

/// Structural well-formedness of a canonical event stream.
///
/// Checks the span-tree invariants the emitter promises:
/// - every request that arrives is enqueued at the same tick, and every
///   completion closes an arrival (ids match one-to-one);
/// - every batch is formed, dispatched, and executed at consistent ticks
///   (`formed.t == dispatched.t == executed.start`, `end − start ==
///   cycles`, `end` never precedes `start`);
/// - layer spans nest inside their batch span and exactly tile it
///   (contiguous, in order, summing to the batch's cycles) when present;
/// - per-worker batch spans never overlap and appear in start order;
/// - request completions land at their batch's end tick.
///
/// Returns `Err` with a description of the first violation found.
pub fn check_well_formed(events: &[Event]) -> Result<(), String> {
    use std::collections::BTreeMap;

    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new(); // request -> t
    let mut enqueued: BTreeMap<u64, u64> = BTreeMap::new();
    let mut completed: BTreeMap<u64, u64> = BTreeMap::new();
    // batch -> (t_formed, t_dispatched, span)
    let mut formed: BTreeMap<usize, u64> = BTreeMap::new();
    let mut dispatched: BTreeMap<usize, u64> = BTreeMap::new();
    let mut executed: BTreeMap<usize, (u64, u64, u64, usize)> = BTreeMap::new();
    let mut layers: BTreeMap<usize, Vec<(u64, u64, u64)>> = BTreeMap::new();
    let mut worker_spans: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();

    for ev in events {
        match *ev {
            Event::RequestArrived { t, request, .. } => {
                if arrivals.insert(request, t).is_some() {
                    return Err(format!("request {request} arrived twice"));
                }
            }
            Event::RequestEnqueued { t, request, .. } => {
                if enqueued.insert(request, t).is_some() {
                    return Err(format!("request {request} enqueued twice"));
                }
            }
            Event::BatchFormed { t, batch, .. } => {
                if formed.insert(batch, t).is_some() {
                    return Err(format!("batch {batch} formed twice"));
                }
            }
            Event::BatchDispatched { t, batch, .. } => {
                if dispatched.insert(batch, t).is_some() {
                    return Err(format!("batch {batch} dispatched twice"));
                }
            }
            Event::ModelSwitch { .. } => {}
            Event::LayerExecuted {
                start,
                end,
                batch,
                cycles,
                ..
            } => {
                if end < start {
                    return Err(format!("layer span in batch {batch} ends before it starts"));
                }
                if end - start != cycles {
                    return Err(format!("layer span in batch {batch} disagrees with cycles"));
                }
                layers.entry(batch).or_default().push((start, end, cycles));
            }
            Event::BatchExecuted {
                start,
                end,
                batch,
                worker,
                size,
                cycles,
                ..
            } => {
                if end < start {
                    return Err(format!("batch {batch} ends before it starts"));
                }
                if end - start != cycles {
                    return Err(format!("batch {batch} span disagrees with cycles"));
                }
                if executed.insert(batch, (start, end, cycles, size)).is_some() {
                    return Err(format!("batch {batch} executed twice"));
                }
                worker_spans.entry(worker).or_default().push((start, end));
            }
            Event::RequestCompleted {
                t,
                request,
                batch,
                latency,
                ..
            } => {
                if completed.insert(request, t).is_some() {
                    return Err(format!("request {request} completed twice"));
                }
                let Some(&(_, end, _, _)) = executed.get(&batch) else {
                    return Err(format!(
                        "request {request} completed in unexecuted batch {batch}"
                    ));
                };
                if t != end {
                    return Err(format!(
                        "request {request} completes at {t}, batch {batch} ends at {end}"
                    ));
                }
                let Some(&arrived) = arrivals.get(&request) else {
                    return Err(format!("request {request} completed without arriving"));
                };
                if t - arrived != latency {
                    return Err(format!("request {request} latency disagrees with span"));
                }
            }
        }
    }

    for (&request, &t) in &arrivals {
        match enqueued.get(&request) {
            Some(&te) if te == t => {}
            Some(_) => return Err(format!("request {request} enqueued at a different tick")),
            None => return Err(format!("request {request} arrived but never enqueued")),
        }
        if !completed.contains_key(&request) {
            return Err(format!("request {request} arrived but never completed"));
        }
    }
    for &request in completed.keys() {
        if !arrivals.contains_key(&request) {
            return Err(format!("request {request} completed without arriving"));
        }
    }

    for (&batch, &(start, end, cycles, _)) in &executed {
        match (formed.get(&batch), dispatched.get(&batch)) {
            (Some(&tf), Some(&td)) if tf == td && td == start => {}
            (None, _) => return Err(format!("batch {batch} executed but never formed")),
            (_, None) => return Err(format!("batch {batch} executed but never dispatched")),
            _ => return Err(format!("batch {batch} form/dispatch/start ticks disagree")),
        }
        if let Some(spans) = layers.get(&batch) {
            let mut cursor = start;
            let mut total = 0u64;
            for &(s, e, c) in spans {
                if s != cursor {
                    return Err(format!("batch {batch} layer spans do not tile the batch"));
                }
                cursor = e;
                total += c;
            }
            if cursor != end || total != cycles {
                return Err(format!(
                    "batch {batch} layer spans do not sum to its cycles"
                ));
            }
        }
    }
    for &batch in layers.keys() {
        if !executed.contains_key(&batch) {
            return Err(format!("batch {batch} has layer spans but never executed"));
        }
    }

    for (&worker, spans) in &worker_spans {
        for pair in spans.windows(2) {
            let (s0, e0) = pair[0];
            let (s1, _) = pair[1];
            if s1 < e0 || s1 < s0 {
                return Err(format!("worker {worker} batch spans overlap or regress"));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::NetworkId;

    fn stream() -> Vec<Event> {
        let n = NetworkId::PRIMARY;
        vec![
            Event::RequestArrived {
                t: 0,
                request: 0,
                network: n,
            },
            Event::RequestEnqueued {
                t: 0,
                request: 0,
                worker: 0,
                depth: 1,
            },
            Event::RequestArrived {
                t: 1,
                request: 1,
                network: n,
            },
            Event::RequestEnqueued {
                t: 1,
                request: 1,
                worker: 0,
                depth: 2,
            },
            Event::BatchFormed {
                t: 4,
                batch: 0,
                worker: 0,
                size: 2,
                network: n,
            },
            Event::BatchDispatched {
                t: 4,
                batch: 0,
                worker: 0,
                size: 2,
                network: n,
            },
            Event::LayerExecuted {
                start: 4,
                end: 10,
                batch: 0,
                worker: 0,
                layer: 0,
                network: n,
                cycles: 6,
                mac_slots: 8,
                gated_slots: 2,
            },
            Event::LayerExecuted {
                start: 10,
                end: 14,
                batch: 0,
                worker: 0,
                layer: 1,
                network: n,
                cycles: 4,
                mac_slots: 6,
                gated_slots: 1,
            },
            Event::BatchExecuted {
                start: 4,
                end: 14,
                batch: 0,
                worker: 0,
                size: 2,
                network: n,
                cycles: 10,
                weight_bytes: 5,
                external_bytes: 6,
                switch_bytes: 0,
            },
            Event::RequestCompleted {
                t: 14,
                request: 0,
                batch: 0,
                worker: 0,
                network: n,
                latency: 14,
                queue_ticks: 4,
            },
            Event::RequestCompleted {
                t: 14,
                request: 1,
                batch: 0,
                worker: 0,
                network: n,
                latency: 13,
                queue_ticks: 3,
            },
        ]
    }

    #[test]
    fn derives_busy_and_utilization() {
        let events = stream();
        assert_eq!(worker_count(&events), 1);
        assert_eq!(makespan(&events), 14);
        assert_eq!(busy_cycles(&events, 1), vec![10]);
        assert_eq!(busy_intervals(&events, 1), vec![vec![(4, 14)]]);
        assert_eq!(utilization(&events, 1), vec![10.0 / 14.0]);
    }

    #[test]
    fn derives_queue_depth() {
        let events = stream();
        assert_eq!(queue_depth_series(&events, 0), vec![(0, 1), (1, 2), (4, 0)]);
        assert_eq!(max_queue_depth(&events, 0), 2);
        // Integral: depth 1 over [0,1) + depth 2 over [1,4) = 7.
        assert_eq!(mean_queue_depth(&events, 0, 14), 7.0 / 14.0);
    }

    #[test]
    fn well_formed_stream_passes() {
        assert_eq!(check_well_formed(&stream()), Ok(()));
        assert_eq!(check_well_formed(&[]), Ok(()));
    }

    #[test]
    fn malformed_streams_are_rejected() {
        // Completion tick off the batch end.
        let mut events = stream();
        let last = events.len() - 1;
        if let Event::RequestCompleted { t, latency, .. } = &mut events[last] {
            *t += 1;
            *latency += 1;
        }
        assert!(check_well_formed(&events).is_err());

        // Layer spans that no longer tile the batch.
        let mut events = stream();
        if let Event::LayerExecuted { start, end, .. } = &mut events[6] {
            *start += 1;
            *end += 1;
        }
        assert!(check_well_formed(&events).is_err());

        // A request that never completes.
        let mut events = stream();
        events.pop();
        assert!(check_well_formed(&events).is_err());
    }
}
