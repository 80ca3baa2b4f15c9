//! The virtualised pieces of the translation path (Figs. 18/19). The
//! backstop chain itself is `System::resolve_l2_miss`, shared with
//! native mode; a guest VM contributes nested paging's two-dimensional
//! demand walk, the composed gVA→hPA entries, and the gPA→hPA host
//! translation behind the nested TLB (with Victima's nested TLB blocks).
//! I-SP (ideal shadow paging) needs nothing here: its demand walk is one
//! four-level walk of the shadow table.
//!
//! Hardware TLB entries in virtualised mode hold the *composed* gVA→hPA
//! translation at the splintered granularity: 2MB only when both the
//! guest page and its host backing are 2MB-aligned huge mappings.

use crate::system::{entry_pa, leaf_entry, Memory, System};
use mem_sim::{BlockKind, MemClass};
use page_table::{nested::gpa_as_va_addr, NestedMemory};
use tlb_sim::{pwc::PWC_LATENCY, TlbEntry, WalkOutcome};
use vm_types::{Cycles, PageSize, PhysAddr, VirtAddr};

impl System {
    /// The two-dimensional nested walk (Sec. 2.3): every guest page-table
    /// access needs its own gPA→hPA translation, and so does the final
    /// data page — up to 24 memory accesses when everything misses.
    ///
    /// Returns the guest dimension of the walk as the walker would report
    /// it — except that the leaf PTE address is its host-physical copy,
    /// where Victima finds the cluster to transform — plus the composed
    /// gVA→hPA entry and the host-translation latency.
    ///
    /// `demand` distinguishes core-visible walks from Victima's background
    /// eviction-flow walks (traffic without stall, and no demand
    /// statistics). The walk never touches `walker.stats`, so nested-mode
    /// `ptw_latency_mean` and `ptw_dram_fraction` read 0 (pinned by the
    /// benchmark's digests).
    pub(crate) fn nested_walk(&mut self, gva: VirtAddr, demand: bool) -> (WalkOutcome, TlbEntry, Cycles) {
        let ctx = self.epoch.ctx();
        let asid = self.proc.asid;
        let gw =
            self.nested().guest.page_table.walk(gva).unwrap_or_else(|| panic!("guest page fault at {gva}"));
        let leaf_level = gw.page_size.leaf_level();
        let mut guest_lat = PWC_LATENCY;
        let mut host_lat: Cycles = 0;
        let mut guest_dram = false;
        let mut accesses = 0u8;
        let deepest = self.walker.pwc.deepest_hit(gva, asid, leaf_level);
        for step in gw.steps() {
            if let Some(l) = deepest {
                if step.level >= l {
                    continue;
                }
            }
            // The guest PTE lives at a guest-physical address; translate it.
            let (pte_hpa, h) = self.host_translate(step.pte_paddr, demand);
            host_lat += h;
            let r = self.hier.access(pte_hpa, false, MemClass::Ptw, &ctx);
            guest_lat += r.latency;
            guest_dram |= r.dram_access;
            accesses += 1;
        }
        self.walker.pwc.fill_all(gva, asid, leaf_level);

        // Update the guest leaf's predictor counters.
        let mut leaf_pte = gw.leaf_pte;
        self.nested_mut().guest.page_table.update_leaf(gva, |p| {
            p.bump_ptw_freq();
            if guest_dram {
                p.bump_ptw_cost();
            }
            leaf_pte = *p;
        });

        // Compose the final gVA→hPA entry, charging the final host
        // translation of the accessed 4KB piece.
        let gpa = PhysAddr::new((gw.frame << 12) | gva.page_offset(gw.page_size));
        let (_, h) = self.host_translate(PhysAddr::new(gpa.raw() & !0xfff), demand);
        host_lat += h;
        let nested = self.nested();
        let (size, frame) = composed_mapping(nested, gpa, gw.page_size);
        let entry = leaf_entry(gva, asid, size, frame, leaf_pte);
        let (leaf_hpa, _) =
            nested.host_translate(gw.leaf_pte_paddr()).expect("guest page tables are host-mapped");
        let walk = WalkOutcome {
            latency: guest_lat,
            dram_touched: guest_dram,
            frame: gw.frame,
            page_size: gw.page_size,
            leaf_pte,
            leaf_pte_paddr: leaf_hpa,
            memory_accesses: accesses,
        };
        (walk, entry, host_lat)
    }

    /// Translates a guest-physical address to host-physical through the
    /// nested TLB, Victima's nested TLB blocks (Fig. 18) and the host
    /// page-table walker, returning the hPA and the latency.
    pub(crate) fn host_translate(&mut self, gpa: PhysAddr, demand: bool) -> (PhysAddr, Cycles) {
        if demand {
            self.stats.host_translations += 1;
        }
        let ctx = self.epoch.ctx();
        let asid = self.proc.asid;
        let gpa_va = gpa_as_va_addr(gpa);
        let mut latency = self.nested_tlb.latency();

        // Nested TLB, both host page sizes.
        for size in PageSize::ALL {
            if let Some(e) = self.nested_tlb.probe(gpa_va.vpn(size), asid, size) {
                if demand {
                    self.stats.nested_tlb_hits += 1;
                }
                return (entry_pa(&e, gpa_va), latency);
            }
        }

        // Victima: nested TLB block in the L2 cache.
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), gpa_va, asid, BlockKind::NestedTlb, &ctx) {
                // One software walk of the host table validates the hit's
                // page-size view *and* yields the entry.
                let walk = self.nested().host_pt.walk(gpa_va).filter(|w| w.page_size == hit.size);
                if let Some(w) = walk {
                    let e = leaf_entry(gpa_va, asid, w.page_size, w.frame, w.leaf_pte);
                    latency += self.hier.l2().latency();
                    if demand {
                        self.stats.nested_block_hits += 1;
                    }
                    self.fill_nested_tlb(e);
                    return (entry_pa(&e, gpa_va), latency);
                }
            }
        }

        // Host page-table walk.
        let table = self.proc.memory.radix_mut(BlockKind::NestedTlb);
        let walk = self
            .host_walker
            .walk(table, gpa_va, asid, &mut self.hier, &ctx)
            .unwrap_or_else(|| panic!("host page fault at gpa {gpa}"));
        if demand {
            self.stats.host_ptws += 1;
        }
        latency += walk.latency;
        let e = leaf_entry(gpa_va, asid, walk.page_size, walk.frame, walk.leaf_pte);
        self.fill_nested_tlb(e);
        if let Some(v) = self.victima.as_mut() {
            // Host-side miss inserts stay out of `victima_inserts` (nested-TLB
            // eviction inserts count): counting them would move every
            // virtualised Victima result.
            v.insert_after_walk(self.hier.l2_mut(), gpa_va, asid, BlockKind::NestedTlb, &walk, &ctx);
        }
        (entry_pa(&e, gpa_va), latency)
    }

    /// Fills the nested TLB; a displaced entry runs Victima's eviction
    /// flow for nested TLB blocks.
    fn fill_nested_tlb(&mut self, e: TlbEntry) {
        if let Some(ev) = self.nested_tlb.fill(e) {
            if self.victima.is_some() {
                self.victima_eviction_flow(BlockKind::NestedTlb, ev);
            }
        }
    }

    fn nested(&self) -> &NestedMemory {
        let Memory::Virt { nested } = &self.proc.memory else {
            unreachable!("virtualised flow");
        };
        nested
    }

    fn nested_mut(&mut self) -> &mut NestedMemory {
        let Memory::Virt { nested } = &mut self.proc.memory else {
            unreachable!("virtualised flow");
        };
        nested
    }
}

/// The composed gVA→hPA mapping of the guest page of `gsize` holding
/// `gpa`, as (page size, 4KB-frame number): the whole page when the host
/// backs it with one aligned 2MB page, else the 4KB piece holding `gpa`
/// (page splintering). Software lookup; no timing.
pub(crate) fn composed_mapping(nested: &NestedMemory, gpa: PhysAddr, gsize: PageSize) -> (PageSize, u64) {
    if gsize == PageSize::Size2M {
        let gpa_base = PhysAddr::new(gpa.raw() & !((2u64 << 20) - 1));
        if let Some((hpa_base, PageSize::Size2M)) = nested.host_translate(gpa_base) {
            if hpa_base.page_offset(PageSize::Size2M) == 0 {
                return (PageSize::Size2M, hpa_base.frame(PageSize::Size4K));
            }
        }
    }
    let (hpa, _) = nested.host_translate(gpa).expect("gpa host-mapped");
    (PageSize::Size4K, hpa.frame(PageSize::Size4K))
}
