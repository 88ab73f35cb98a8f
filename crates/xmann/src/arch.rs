//! The X-MANN architecture: banks of subarrays of transposable
//! crossbar-based processing tiles (TCPTs), a near-memory SFU per tile and
//! a global reduce unit (paper Fig. 4, ref. \[7\]).
//!
//! The simulator is *functional + analytical*: every differentiable-memory
//! operation computes its exact numerical result (checked against the
//! `enw-mann` reference in integration tests) while charging the
//! event-accurate energy/latency of the datapath that would produce it.

use crate::cost::{Cost, XmannCostParams};
use enw_mann::memory::DifferentiableMemory;
use enw_numerics::vector::softmax_into;

/// Geometry of the tile hierarchy.
///
/// Construct via [`XmannConfig::builder`]; direct struct-literal
/// construction in downstream code is deprecated (it bypasses
/// validation and will stop compiling as fields are added).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmannConfig {
    /// Crossbar rows per TCPT (memory slots per tile).
    pub tile_rows: usize,
    /// Crossbar columns per TCPT (feature dimensions per tile).
    pub tile_cols: usize,
    /// TCPTs sharing one subarray bus.
    pub tiles_per_subarray: usize,
    /// Physical TCPTs on the accelerator. A memory needing more tiles
    /// than this is processed in serial passes (the chip is finite;
    /// without this bound, speedups over a linearly-scaling GPU would
    /// grow without limit instead of sitting in the paper's band).
    pub total_tiles: usize,
}

impl Default for XmannConfig {
    fn default() -> Self {
        XmannConfig { tile_rows: 256, tile_cols: 64, tiles_per_subarray: 8, total_tiles: 256 }
    }
}

impl XmannConfig {
    /// Starts a validating builder seeded with the default geometry.
    pub fn builder() -> XmannConfigBuilder {
        XmannConfigBuilder { cfg: XmannConfig::default() }
    }
}

/// Validating builder for [`XmannConfig`].
///
/// `build()` rejects degenerate tile hierarchies with a typed
/// [`XmannError`](crate::error::XmannError) instead of panicking at
/// [`Xmann::new`] time, which is the contract candidate-probing search
/// drivers rely on.
#[derive(Debug, Clone)]
pub struct XmannConfigBuilder {
    cfg: XmannConfig,
}

impl XmannConfigBuilder {
    /// Sets crossbar rows per TCPT.
    pub fn tile_rows(mut self, tile_rows: usize) -> Self {
        self.cfg.tile_rows = tile_rows;
        self
    }

    /// Sets crossbar columns per TCPT.
    pub fn tile_cols(mut self, tile_cols: usize) -> Self {
        self.cfg.tile_cols = tile_cols;
        self
    }

    /// Sets TCPTs sharing one subarray bus.
    pub fn tiles_per_subarray(mut self, tiles_per_subarray: usize) -> Self {
        self.cfg.tiles_per_subarray = tiles_per_subarray;
        self
    }

    /// Sets physical TCPTs on the accelerator.
    pub fn total_tiles(mut self, total_tiles: usize) -> Self {
        self.cfg.total_tiles = total_tiles;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<XmannConfig, crate::error::XmannError> {
        use crate::error::XmannError;
        if self.cfg.tile_rows == 0 {
            return Err(XmannError::InvalidConfig { reason: "tile_rows must be at least 1" });
        }
        if self.cfg.tile_cols == 0 {
            return Err(XmannError::InvalidConfig { reason: "tile_cols must be at least 1" });
        }
        if self.cfg.tiles_per_subarray == 0 {
            return Err(XmannError::InvalidConfig {
                reason: "tiles_per_subarray must be at least 1",
            });
        }
        if self.cfg.total_tiles == 0 {
            return Err(XmannError::InvalidConfig { reason: "total_tiles must be at least 1" });
        }
        if self.cfg.tiles_per_subarray > self.cfg.total_tiles {
            return Err(XmannError::InvalidConfig {
                reason: "tiles_per_subarray cannot exceed total_tiles",
            });
        }
        Ok(self.cfg)
    }
}

/// Result of one architectural operation: the numerical output plus its
/// cost.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult<T> {
    /// The functional result.
    pub value: T,
    /// Accounted energy/latency.
    pub cost: Cost,
}

/// An X-MANN accelerator instance holding one differentiable memory.
///
/// # Example
///
/// ```
/// use enw_xmann::arch::{Xmann, XmannConfig};
/// use enw_xmann::cost::XmannCostParams;
///
/// let mut x = Xmann::new(1024, 64, XmannConfig::default(), XmannCostParams::default());
/// let q = vec![0.1f32; 64];
/// let sim = x.similarity(&q);
/// assert_eq!(sim.value.len(), 1024);
/// assert!(sim.cost.energy_pj > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Xmann {
    memory: DifferentiableMemory,
    cfg: XmannConfig,
    params: XmannCostParams,
    total: Cost,
}

impl Xmann {
    /// Builds an accelerator for a `slots × dim` differentiable memory.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero or a subarray holds more
    /// tiles than the chip — what [`XmannConfigBuilder::build`] rejects,
    /// for configs written as struct literals.
    pub fn new(slots: usize, dim: usize, cfg: XmannConfig, params: XmannCostParams) -> Self {
        assert!(
            cfg.tile_rows > 0
                && cfg.tile_cols > 0
                && cfg.tiles_per_subarray > 0
                && cfg.total_tiles > 0
                && cfg.tiles_per_subarray <= cfg.total_tiles,
            "degenerate tile geometry"
        );
        Xmann { memory: DifferentiableMemory::new(slots, dim), cfg, params, total: Cost::zero() }
    }

    /// Memory slots.
    pub fn slots(&self) -> usize {
        self.memory.slots()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.memory.dim()
    }

    /// The stored memory (for functional verification).
    pub fn memory(&self) -> &DifferentiableMemory {
        &self.memory
    }

    /// Accumulated cost of every operation so far.
    pub fn total_cost(&self) -> Cost {
        self.total
    }

    /// Number of TCPT-sized partitions the memory needs.
    pub fn tile_count(&self) -> usize {
        self.row_tiles() * self.col_tiles()
    }

    /// Number of partitions concurrently resident on hardware.
    fn resident_tiles(&self) -> usize {
        self.tile_count().min(self.cfg.total_tiles)
    }

    /// Serial passes needed when the memory exceeds the hardware budget.
    pub fn passes(&self) -> usize {
        self.tile_count().div_ceil(self.cfg.total_tiles)
    }

    fn row_tiles(&self) -> usize {
        self.memory.slots().div_ceil(self.cfg.tile_rows)
    }

    fn col_tiles(&self) -> usize {
        self.memory.dim().div_ceil(self.cfg.tile_cols)
    }

    /// Loads memory contents exactly (initialization; not charged — the
    /// paper's results measure steady-state operation).
    pub fn load_memory(&mut self, rows: &[Vec<f32>]) {
        for (i, r) in rows.iter().enumerate() {
            self.memory.write_slot(i, r);
        }
    }

    /// Overwrites one slot (hard write, charged as one update phase on the
    /// owning tile row).
    pub fn write_slot(&mut self, slot: usize, word: &[f32]) -> Cost {
        self.memory.write_slot(slot, word);
        let cost =
            Cost::new(word.len() as f64 * self.params.write_pulse_pj, self.params.update_op_ns);
        self.total += cost;
        cost
    }

    /// Cost of one crossbar evaluation on every tile in parallel, with
    /// `inputs` DAC conversions and `outputs` ADC conversions per tile.
    fn crossbar_phase(&self, inputs: usize, outputs: usize) -> Cost {
        let macs = (self.memory.slots() * self.memory.dim()) as f64;
        let tiles = self.tile_count() as f64;
        let energy = macs * self.params.xbar_mac_pj
            + tiles * inputs as f64 * self.params.dac_pj
            + tiles * outputs as f64 * self.params.adc_pj;
        // Resident tiles evaluate concurrently; the shared ADCs serialize
        // the per-tile output conversions, and an over-budget memory adds
        // serial passes.
        let adc_rounds = outputs.div_ceil(self.params.adcs_per_tile) as f64;
        let latency =
            (self.params.xbar_op_ns + adc_rounds * self.params.adc_ns) * self.passes() as f64;
        Cost::new(energy, latency)
    }

    /// Number of subarrays (each with its own shared bus) the tiles
    /// occupy.
    fn subarrays(&self) -> usize {
        self.resident_tiles().div_ceil(self.cfg.tiles_per_subarray)
    }

    /// Cost of reducing per-tile partial vectors of length `len` across
    /// the column tiles (tree reduce in the global reduce unit) and
    /// shipping the result over the per-subarray buses, which operate in
    /// parallel.
    fn reduce_phase(&self, len: usize, partials: usize) -> Cost {
        if partials <= 1 {
            return Cost::zero();
        }
        let adds = len as f64 * (partials - 1) as f64;
        let stages = (partials as f64).log2().ceil();
        let bytes = len as f64 * partials as f64 * 4.0;
        let parallel_bw = self.params.bus_bytes_per_ns * self.subarrays() as f64;
        Cost::new(
            adds * self.params.reduce_add_pj + bytes * self.params.bus_byte_pj,
            stages * self.params.reduce_stage_ns + bytes / parallel_bw,
        )
    }

    /// SFU work of `ops` scalar operations, distributed across the
    /// per-tile SFUs (each TCPT integrates its own vPE/SPE, paper
    /// Sec. III-A4), so latency scales with the per-tile share.
    fn sfu_phase(&self, ops: usize) -> Cost {
        let per_tile = ops.div_ceil(self.resident_tiles());
        Cost::new(ops as f64 * self.params.sfu_op_pj, per_tile as f64 / self.params.sfu_ops_per_ns)
    }

    /// Similarity-measure operation (paper Sec. III-A2): dot products of
    /// the query against every memory row plus per-row L1 norms — *two
    /// crossbar operations* — then the SFU normalizes.
    ///
    /// Returns the normalized similarity `dot(m, q) / (‖m‖₁ + ε)` per row.
    ///
    /// # Panics
    ///
    /// Panics if the query width mismatches.
    pub fn similarity(&mut self, query: &[f32]) -> OpResult<Vec<f32>> {
        let mut value = vec![0.0f32; self.memory.slots()];
        let cost = self.similarity_into(query, &mut value);
        OpResult { value, cost }
    }

    /// [`similarity`](Xmann::similarity) into a caller-owned buffer of
    /// `slots` scores (`out` is fully overwritten); returns the charged
    /// cost. Dot product and norm come out of one pass over the memory,
    /// so the call needs no intermediate buffer and never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the query width or output length mismatches.
    pub fn similarity_into(&mut self, query: &[f32], out: &mut [f32]) -> Cost {
        assert_eq!(query.len(), self.memory.dim(), "query width mismatch");
        assert_eq!(out.len(), self.memory.slots(), "similarity output length mismatch");
        // The hardware runs two crossbar ops — the query against the
        // array, then an all-ones vector against the magnitude array for
        // every row's L1 norm — and the SFU divides as norms arrive. The
        // host computes both reductions while a row is in registers.
        self.memory.matrix().scan_matvec_l1(query, out, |dot, l1| dot / (l1 + 1e-6));
        // Cost: two crossbar phases (dot + norm), inputs = dim per column
        // tile, outputs = rows per tile; SFU does one divide per slot.
        let phase = self.crossbar_phase(self.cfg.tile_cols, self.cfg.tile_rows);
        let reduce = self.reduce_phase(self.memory.slots(), self.col_tiles());
        let sfu = self.sfu_phase(self.memory.slots());
        let cost = phase.repeat(2) + reduce + sfu;
        self.total += cost;
        let (slots, dim) = (self.memory.slots() as u64, self.memory.dim() as u64);
        // Booked as the datapath's two array reads (dot + norm), one
        // query vector in, one score per slot out — the simulated op's
        // traffic, which the host's single fused pass does not change.
        enw_trace::record_span_io(
            "xmann/similarity",
            2 * slots * dim,
            4 * (2 * slots * dim + dim),
            4 * slots,
        );
        cost
    }

    /// Content addressing: similarity + softmax in the SFU.
    pub fn content_address(&mut self, query: &[f32], beta: f32) -> OpResult<Vec<f32>> {
        let mut value = vec![0.0f32; self.memory.slots()];
        let cost = self.content_address_into(query, beta, &mut value);
        OpResult { value, cost }
    }

    /// [`content_address`](Xmann::content_address) into a caller-owned
    /// buffer (`out` is fully overwritten); returns the charged cost. The
    /// similarity scores stage through thread-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if the query width or output length mismatches.
    pub fn content_address_into(&mut self, query: &[f32], beta: f32, out: &mut [f32]) -> Cost {
        let mut sim = enw_parallel::scratch::take_f32(self.memory.slots());
        let sim_cost = self.similarity_into(query, &mut sim);
        softmax_into(&sim, beta, out);
        // Softmax: ~3 SFU ops per slot (exp, sum contribution, divide).
        let sfu = self.sfu_phase(3 * self.memory.slots());
        self.total += sfu;
        sim_cost + sfu
    }

    /// Soft read (paper Sec. III-A3): a *single* crossbar operation with
    /// the attention weights driven on the rows and outputs read along the
    /// columns (the transposable direction).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != slots`.
    pub fn soft_read(&mut self, weights: &[f32]) -> OpResult<Vec<f32>> {
        let mut value = vec![0.0f32; self.memory.dim()];
        let cost = self.soft_read_into(weights, &mut value);
        OpResult { value, cost }
    }

    /// [`soft_read`](Xmann::soft_read) into a caller-owned buffer of `dim`
    /// elements (`out` is fully overwritten); returns the charged cost.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != slots` or `out.len() != dim`.
    pub fn soft_read_into(&mut self, weights: &[f32], out: &mut [f32]) -> Cost {
        self.memory.soft_read_into(weights, out);
        let phase = self.crossbar_phase(self.cfg.tile_rows, self.cfg.tile_cols);
        let reduce = self.reduce_phase(self.memory.dim(), self.row_tiles());
        let cost = phase + reduce;
        self.total += cost;
        let (slots, dim) = (self.memory.slots() as u64, self.memory.dim() as u64);
        enw_trace::record_span_io(
            "xmann/soft_read",
            slots * dim,
            4 * (slots * dim + slots),
            4 * dim,
        );
        cost
    }

    /// Soft write: a rank-1 parallel update of every tile (weights ×
    /// (add − erase∘M) in NTM semantics), one update phase plus SFU
    /// preprocessing of the erase/add vectors.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn soft_write(&mut self, weights: &[f32], erase: &[f32], add: &[f32]) -> OpResult<()> {
        self.memory.soft_write(weights, erase, add);
        let pulses = (self.memory.slots() * self.memory.dim()) as f64;
        let update = Cost::new(
            pulses * self.params.write_pulse_pj,
            self.params.update_op_ns * self.passes() as f64,
        );
        let sfu = self.sfu_phase(2 * self.memory.dim());
        let cost = update + sfu;
        self.total += cost;
        let (slots, dim) = (self.memory.slots() as u64, self.memory.dim() as u64);
        // Rank-1 update: reads the weight/erase/add vectors, rewrites M.
        enw_trace::record_span_io(
            "xmann/soft_write",
            slots * dim,
            4 * (slots * dim + slots + 2 * dim),
            4 * slots * dim,
        );
        OpResult { value: (), cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Xmann {
        let mut x = Xmann::new(
            4,
            3,
            XmannConfig { tile_rows: 2, tile_cols: 2, tiles_per_subarray: 2, total_tiles: 4 },
            XmannCostParams::default(),
        );
        x.load_memory(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.0],
        ]);
        x
    }

    #[test]
    fn tile_partitioning() {
        let x = tiny();
        // 4 slots / 2 rows = 2 row tiles; 3 dims / 2 cols = 2 col tiles.
        assert_eq!(x.tile_count(), 4);
    }

    #[test]
    fn similarity_favors_matching_row() {
        let mut x = tiny();
        let r = x.similarity(&[1.0, 0.0, 0.0]);
        let best = enw_numerics::vector::argmax(&r.value);
        assert_eq!(best, 0);
    }

    #[test]
    fn soft_read_matches_reference() {
        let mut x = tiny();
        let w = [0.25f32, 0.25, 0.25, 0.25];
        let r = x.soft_read(&w);
        let reference = x.memory().soft_read(&w);
        assert_eq!(r.value, reference);
    }

    #[test]
    fn content_address_is_distribution() {
        let mut x = tiny();
        let r = x.content_address(&[0.0, 1.0, 0.0], 5.0);
        assert!((r.value.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn soft_write_updates_memory() {
        let mut x = tiny();
        x.soft_write(&[1.0, 0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], &[9.0, 9.0, 9.0]);
        assert_eq!(x.memory().slot(0), &[9.0, 9.0, 9.0]);
    }

    #[test]
    fn costs_accumulate() {
        let mut x = tiny();
        assert_eq!(x.total_cost(), Cost::zero());
        x.similarity(&[1.0, 0.0, 0.0]);
        let after_one = x.total_cost();
        assert!(after_one.energy_pj > 0.0 && after_one.latency_ns > 0.0);
        x.soft_read(&[0.25; 4]);
        assert!(x.total_cost().energy_pj > after_one.energy_pj);
    }

    #[test]
    fn similarity_is_two_crossbar_ops_latency() {
        // The similarity op's crossbar latency must be twice the soft
        // read's crossbar phase (2 ops vs 1), independent of array size —
        // the paper's "two crossbar operations" claim.
        let p = XmannCostParams::default();
        let mut small = Xmann::new(64, 32, XmannConfig::default(), p);
        let mut large = Xmann::new(4096, 32, XmannConfig::default(), p);
        let cs = small.similarity(&[0.1; 32]).cost;
        let cl = large.similarity(&[0.1; 32]).cost;
        // Crossbar phase latency identical; only reduce/SFU grow.
        assert!(cl.latency_ns < cs.latency_ns * 64.0, "latency must not scale with slots");
    }

    #[test]
    fn bigger_memory_costs_more_energy() {
        let p = XmannCostParams::default();
        let mut small = Xmann::new(64, 32, XmannConfig::default(), p);
        let mut large = Xmann::new(4096, 32, XmannConfig::default(), p);
        let es = small.similarity(&[0.1; 32]).cost.energy_pj;
        let el = large.similarity(&[0.1; 32]).cost.energy_pj;
        assert!(el > es * 10.0);
    }

    #[test]
    #[should_panic(expected = "degenerate tile geometry")]
    fn zero_total_tiles_is_rejected_at_construction() {
        // Unchecked, this divides by zero in `passes()` on first use.
        let cfg = XmannConfig { total_tiles: 0, ..XmannConfig::default() };
        Xmann::new(64, 32, cfg, XmannCostParams::default());
    }

    #[test]
    #[should_panic(expected = "degenerate tile geometry")]
    fn subarray_larger_than_chip_is_rejected_at_construction() {
        let cfg = XmannConfig { tiles_per_subarray: 8, total_tiles: 4, ..XmannConfig::default() };
        Xmann::new(64, 32, cfg, XmannCostParams::default());
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(XmannConfig::builder().build().unwrap(), XmannConfig::default());
    }

    #[test]
    fn builder_rejects_zero_total_tiles() {
        let err = XmannConfig::builder().total_tiles(0).build().unwrap_err();
        assert!(err.to_string().contains("total_tiles"), "{err}");
    }

    #[test]
    fn builder_rejects_subarray_larger_than_chip() {
        let err =
            XmannConfig::builder().tiles_per_subarray(32).total_tiles(16).build().unwrap_err();
        assert!(err.to_string().contains("tiles_per_subarray"), "{err}");
    }

    #[test]
    fn builder_sets_geometry() {
        let cfg =
            XmannConfig::builder().tile_rows(64).tile_cols(32).total_tiles(16).build().unwrap();
        assert_eq!((cfg.tile_rows, cfg.tile_cols, cfg.total_tiles), (64, 32, 16));
    }
}
