//! Open-row DRAM timing model.
//!
//! A deliberately small model: per-bank open-row tracking with two latency
//! classes (row hit vs. row conflict). Calibrated so that a page-table-walk
//! leaf access that misses the whole cache hierarchy costs ≈131–181 cycles
//! end to end, reproducing the paper's Fig. 4 distribution (mean ≈137
//! cycles, tail to ≈190, rare outliers beyond).

use vm_types::{Cycles, PhysAddr};

/// DRAM geometry and latencies.
#[derive(Clone, Debug)]
pub struct DramConfig {
    /// Number of banks (power of two).
    pub banks: usize,
    /// log2 of the row size in bytes (bits of the address that stay within
    /// one row).
    pub row_shift: u32,
    /// Latency of a row-buffer hit, in core cycles.
    pub row_hit_latency: Cycles,
    /// Latency of a row-buffer conflict (precharge + activate + access).
    pub row_miss_latency: Cycles,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self { banks: 16, row_shift: 13, row_hit_latency: 80, row_miss_latency: 130 }
    }
}

/// Per-run DRAM statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
}

/// The DRAM device model.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    /// Statistics.
    pub stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks.is_power_of_two(), "bank count must be a power of two");
        Self { open_rows: vec![None; cfg.banks], cfg, stats: DramStats::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Performs one access and returns its latency.
    #[inline]
    pub fn access(&mut self, pa: PhysAddr) -> Cycles {
        self.stats.accesses += 1;
        let bank = (pa.raw() >> self.cfg.row_shift) as usize & (self.cfg.banks - 1);
        let row = pa.raw() >> (self.cfg.row_shift + self.cfg.banks.trailing_zeros());
        let hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        if hit {
            self.stats.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            self.cfg.row_miss_latency
        }
    }

    /// Number of checkpoint words [`Dram::save_state`] emits (one open-row
    /// word per bank).
    pub fn state_words(&self) -> usize {
        self.open_rows.len()
    }

    /// Serialises the per-bank open rows into checkpoint words
    /// (`row << 1 | 1`, or 0 for a closed bank).
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.extend(self.open_rows.iter().map(|r| match r {
            Some(row) => row << 1 | 1,
            None => 0,
        }));
    }

    /// Restores state captured by [`Dram::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match the bank count.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != self.open_rows.len() {
            return Err(format!(
                "DRAM: checkpoint section has {} words, {} banks configured",
                words.len(),
                self.open_rows.len()
            ));
        }
        for (r, &w) in self.open_rows.iter_mut().zip(words) {
            *r = (w & 1 != 0).then_some(w >> 1);
        }
        Ok(())
    }

    /// Row-buffer hit rate so far.
    pub fn row_hit_rate(&self) -> f64 {
        if self.stats.accesses == 0 {
            0.0
        } else {
            self.stats.row_hits as f64 / self.stats.accesses as f64
        }
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_row_miss() {
        let mut d = Dram::default();
        let lat = d.access(PhysAddr::new(0x10_0000));
        assert_eq!(lat, d.config().row_miss_latency);
    }

    #[test]
    fn same_row_hits() {
        let mut d = Dram::default();
        d.access(PhysAddr::new(0x10_0000));
        let lat = d.access(PhysAddr::new(0x10_0040));
        assert_eq!(lat, d.config().row_hit_latency);
        assert_eq!(d.stats.row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut d = Dram::default();
        let cfg = d.config().clone();
        let a = PhysAddr::new(0);
        // Same bank, next row: advance by banks * row_size.
        let b = PhysAddr::new((cfg.banks as u64) << cfg.row_shift);
        d.access(a);
        assert_eq!(d.access(b), cfg.row_miss_latency);
        assert_eq!(d.access(a), cfg.row_miss_latency);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut d = Dram::default();
        let cfg = d.config().clone();
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(1 << cfg.row_shift); // next bank
        d.access(a);
        d.access(b);
        assert_eq!(d.access(a), cfg.row_hit_latency);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut d = Dram::default();
        d.access(PhysAddr::new(0));
        d.access(PhysAddr::new(8));
        d.access(PhysAddr::new(16));
        assert!((d.row_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
