//! On-chip buffers and the external-memory interface, with access counting.
//!
//! Fig. 4's buffer set: DWC ifmap buffer, DWC weight buffer, offline
//! (Non-Conv parameter) buffer, intermediate buffer, PWC weight buffer —
//! plus the psum SRAM the portion-wise PWC accumulation requires (not
//! detailed in the paper; see ARCHITECTURE.md). Every transfer in the
//! functional simulator goes through these objects so the energy model and
//! the DSE cross-checks read real counts, not estimates.

use crate::CoreError;

/// A capacity-checked buffer that counts bytes read/written and tracks the
/// peak occupancy a schedule actually required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackedBuffer {
    name: &'static str,
    capacity: usize,
    reads: u64,
    writes: u64,
    occupancy: usize,
    peak: usize,
}

impl TrackedBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new(name: &'static str, capacity: usize) -> Self {
        Self {
            name,
            capacity,
            reads: 0,
            writes: 0,
            occupancy: 0,
            peak: 0,
        }
    }

    /// Buffer name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Configured capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes read so far.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Bytes written so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Peak occupancy observed.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Records a read of `bytes`.
    pub fn read(&mut self, bytes: usize) {
        self.reads += bytes as u64;
    }

    /// Declares the live contents to be `bytes` (e.g. after loading a tile),
    /// checking capacity, and counts the fill as writes.
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOverflow`] if `bytes` exceeds the capacity.
    pub fn fill(&mut self, bytes: usize) -> Result<(), CoreError> {
        if bytes > self.capacity {
            return Err(CoreError::BufferOverflow {
                buffer: self.name,
                required: bytes,
                capacity: self.capacity,
            });
        }
        self.writes += bytes as u64;
        self.occupancy = bytes;
        self.peak = self.peak.max(bytes);
        Ok(())
    }

    /// Records `times` successive [`TrackedBuffer::fill`]s of `bytes`
    /// each — a run of identical per-tile fills counted in one call.
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOverflow`] if `bytes` exceeds the capacity.
    pub fn fill_times(&mut self, bytes: usize, times: usize) -> Result<(), CoreError> {
        if times == 0 {
            return Ok(());
        }
        self.fill(bytes)?;
        self.writes += (bytes * (times - 1)) as u64;
        Ok(())
    }

    /// Declares `bytes` of live contents *without* counting write traffic —
    /// used to capacity-check a residency whose fill traffic is accounted
    /// separately (e.g. psum write-backs counted per engine invocation).
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOverflow`] if `bytes` exceeds the capacity.
    pub fn reserve(&mut self, bytes: usize) -> Result<(), CoreError> {
        if bytes > self.capacity {
            return Err(CoreError::BufferOverflow {
                buffer: self.name,
                required: bytes,
                capacity: self.capacity,
            });
        }
        self.occupancy = bytes;
        self.peak = self.peak.max(bytes);
        Ok(())
    }

    /// Records a write of `bytes` on top of the current occupancy.
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOverflow`] if the occupancy would exceed capacity.
    pub fn append(&mut self, bytes: usize) -> Result<(), CoreError> {
        let new = self.occupancy + bytes;
        if new > self.capacity {
            return Err(CoreError::BufferOverflow {
                buffer: self.name,
                required: new,
                capacity: self.capacity,
            });
        }
        self.writes += bytes as u64;
        self.occupancy = new;
        self.peak = self.peak.max(new);
        Ok(())
    }

    /// Empties the buffer (occupancy only; counters persist).
    pub fn clear(&mut self) {
        self.occupancy = 0;
    }

    /// Folds another buffer's traffic counters into this one — the
    /// fixed-order reduction step of the parallel portion loop, where each
    /// lane counts its traffic into a private [`BufferSet`] and the lanes
    /// are merged in lane order afterwards. Byte counters are exact sums
    /// (`u64` addition is associative), so the merged totals are
    /// bit-identical to the serial run; peak occupancy takes the max over
    /// lanes.
    pub(crate) fn absorb(&mut self, other: &Self) {
        debug_assert_eq!(self.name, other.name);
        debug_assert_eq!(self.capacity, other.capacity);
        self.reads += other.reads;
        self.writes += other.writes;
        self.peak = self.peak.max(other.peak);
    }
}

/// External (off-chip) memory interface counters, in bytes, split by
/// stream.
///
/// The split matters for batching: weight and offline-parameter fetches
/// depend only on the layer, so a batched schedule pays them **once per
/// batch**, while ifmap reads and ofmap writes are inherently per-image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExternalMemory {
    /// Weight bytes read (DWC kernels + PWC tile slices).
    pub weight_reads: u64,
    /// Offline Non-Conv parameter bytes read.
    pub param_reads: u64,
    /// Activation (ifmap slice) bytes read.
    pub ifmap_reads: u64,
    /// Bytes written to external memory (the ofmap).
    pub writes: u64,
}

impl ExternalMemory {
    /// Records a weight fetch.
    pub fn read_weights(&mut self, bytes: usize) {
        self.weight_reads += bytes as u64;
    }

    /// Records an offline-parameter fetch.
    pub fn read_params(&mut self, bytes: usize) {
        self.param_reads += bytes as u64;
    }

    /// Records an ifmap-slice fetch.
    pub fn read_ifmap(&mut self, bytes: usize) {
        self.ifmap_reads += bytes as u64;
    }

    /// Records a write.
    pub fn write(&mut self, bytes: usize) {
        self.writes += bytes as u64;
    }

    /// Total bytes read, over all streams.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.weight_reads + self.param_reads + self.ifmap_reads
    }

    /// Total traffic.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads() + self.writes
    }

    /// Folds another interface's counters into this one (exact `u64`
    /// sums; see [`TrackedBuffer::absorb`]).
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.weight_reads += other.weight_reads;
        self.param_reads += other.param_reads;
        self.ifmap_reads += other.ifmap_reads;
        self.writes += other.writes;
    }
}

/// The complete buffer set of Fig. 4 (plus the psum SRAM).
#[derive(Debug, Clone)]
pub struct BufferSet {
    /// DWC ifmap buffer.
    pub ifmap: TrackedBuffer,
    /// DWC weight buffer.
    pub dwc_weight: TrackedBuffer,
    /// Offline buffer (Non-Conv `k`, `b` parameters).
    pub offline: TrackedBuffer,
    /// Intermediate buffer (direct DWC→PWC transfer).
    pub intermediate: TrackedBuffer,
    /// PWC weight buffer.
    pub pwc_weight: TrackedBuffer,
    /// PWC partial-sum SRAM.
    pub psum: TrackedBuffer,
    /// External memory interface.
    pub external: ExternalMemory,
}

impl BufferSet {
    /// Builds the buffer set from an [`crate::EdeaConfig`].
    #[must_use]
    pub fn new(cfg: &crate::EdeaConfig) -> Self {
        Self::for_batch(cfg, 1)
    }

    /// Builds the buffer set for a batched schedule keeping `batch` images
    /// in flight per portion.
    ///
    /// The batched loop nest (portion → channel pass → image) holds one
    /// psum residency *per in-flight image*, so the psum SRAM must be
    /// provisioned `batch×` — that is the silicon cost of weight-residency
    /// amortization, and the capacity check here is what surfaces it. All
    /// other buffers hold one image's (or one layer's) working set at a
    /// time regardless of batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn for_batch(cfg: &crate::EdeaConfig, batch: usize) -> Self {
        assert!(batch > 0, "batch must be non-empty");
        Self {
            ifmap: TrackedBuffer::new("dwc_ifmap", cfg.ifmap_buf_bytes),
            dwc_weight: TrackedBuffer::new("dwc_weight", cfg.dwc_weight_buf_bytes),
            offline: TrackedBuffer::new("offline", cfg.offline_buf_bytes),
            intermediate: TrackedBuffer::new("intermediate", cfg.intermediate_buf_bytes),
            pwc_weight: TrackedBuffer::new("pwc_weight", cfg.pwc_weight_buf_bytes),
            psum: TrackedBuffer::new("psum", cfg.psum_buf_bytes * batch),
            external: ExternalMemory::default(),
        }
    }

    /// Total on-chip SRAM bytes read.
    #[must_use]
    pub fn onchip_reads(&self) -> u64 {
        self.ifmap.reads()
            + self.dwc_weight.reads()
            + self.offline.reads()
            + self.intermediate.reads()
            + self.pwc_weight.reads()
            + self.psum.reads()
    }

    /// Total on-chip SRAM bytes written.
    #[must_use]
    pub fn onchip_writes(&self) -> u64 {
        self.ifmap.writes()
            + self.dwc_weight.writes()
            + self.offline.writes()
            + self.intermediate.writes()
            + self.pwc_weight.writes()
            + self.psum.writes()
    }

    /// Folds a lane-private buffer set's counters into this one, in the
    /// caller's (lane) order — the parallel portion loop's reduction.
    pub(crate) fn absorb(&mut self, other: &Self) {
        self.ifmap.absorb(&other.ifmap);
        self.dwc_weight.absorb(&other.dwc_weight);
        self.offline.absorb(&other.offline);
        self.intermediate.absorb(&other.intermediate);
        self.pwc_weight.absorb(&other.pwc_weight);
        self.psum.absorb(&other.psum);
        self.external.absorb(&other.external);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdeaConfig;

    #[test]
    fn fill_checks_capacity() {
        let mut b = TrackedBuffer::new("test", 100);
        b.fill(100).unwrap();
        assert_eq!(b.peak(), 100);
        let err = b.fill(101).unwrap_err();
        assert!(matches!(
            err,
            CoreError::BufferOverflow { buffer: "test", .. }
        ));
    }

    #[test]
    fn fill_times_equals_repeated_fills() {
        let mut bulk = TrackedBuffer::new("test", 100);
        let mut each = bulk.clone();
        bulk.fill_times(40, 3).unwrap();
        for _ in 0..3 {
            each.fill(40).unwrap();
        }
        assert_eq!(bulk, each);
        bulk.fill_times(0, 0).unwrap();
        assert_eq!(bulk, each);
        assert!(bulk.fill_times(101, 2).is_err());
    }

    #[test]
    fn append_accumulates_and_overflows() {
        let mut b = TrackedBuffer::new("test", 10);
        b.append(6).unwrap();
        b.append(4).unwrap();
        assert!(b.append(1).is_err());
        b.clear();
        b.append(10).unwrap();
        assert_eq!(b.writes(), 20);
        assert_eq!(b.peak(), 10);
    }

    #[test]
    fn counters_accumulate() {
        let mut b = TrackedBuffer::new("test", 1000);
        b.read(10);
        b.read(20);
        b.fill(500).unwrap();
        assert_eq!(b.reads(), 30);
        assert_eq!(b.writes(), 500);
    }

    #[test]
    fn external_memory_totals() {
        let mut e = ExternalMemory::default();
        e.read_weights(60);
        e.read_params(30);
        e.read_ifmap(10);
        e.write(50);
        assert_eq!(e.reads(), 100);
        assert_eq!(e.total(), 150);
    }

    #[test]
    fn batched_set_scales_only_the_psum_banks() {
        let cfg = EdeaConfig::paper();
        let one = BufferSet::new(&cfg);
        let four = BufferSet::for_batch(&cfg, 4);
        assert_eq!(four.psum.capacity(), 4 * one.psum.capacity());
        assert_eq!(four.ifmap.capacity(), one.ifmap.capacity());
        assert_eq!(four.pwc_weight.capacity(), one.pwc_weight.capacity());
        assert_eq!(four.intermediate.capacity(), one.intermediate.capacity());
    }

    #[test]
    fn buffer_set_aggregates() {
        let mut set = BufferSet::new(&EdeaConfig::paper());
        set.ifmap.read(5);
        set.psum.fill(7).unwrap();
        assert_eq!(set.onchip_reads(), 5);
        assert_eq!(set.onchip_writes(), 7);
    }

    #[test]
    fn paper_capacities_hold_worst_layers() {
        let set = BufferSet::new(&EdeaConfig::paper());
        // Layer-3 psums: 8×8 portion × 256 kernels × 4 B.
        assert!(set.psum.capacity() >= 8 * 8 * 256 * 4);
        // Deepest DWC weights: 3·3·1024.
        assert!(set.dwc_weight.capacity() >= 9 * 1024);
        // Widest PWC weight slice: 8 × 1024, double-buffered.
        assert!(set.pwc_weight.capacity() >= 2 * 8 * 1024);
        // Stride-2 portion window: 17×17×8, double-buffered.
        assert!(set.ifmap.capacity() >= 2 * 17 * 17 * 8);
    }
}
