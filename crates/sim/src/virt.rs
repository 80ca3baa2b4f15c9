//! Virtualised translation flows: nested paging's two-dimensional walk,
//! ideal shadow paging, and Victima's virtualised extensions (TLB blocks
//! for guest translations plus nested TLB blocks for gPA→hPA, Figs. 18/19).
//!
//! Hardware TLB entries in virtualised mode hold the *composed* gVA→hPA
//! translation at the splintered granularity: 2MB only when both the
//! guest page and its host backing are 2MB-aligned huge mappings.

use crate::config::{ExecMode, TranslationMechanism};
use crate::system::{Memory, MissResolution, System};
use mem_sim::{BlockKind, MemClass};
use page_table::nested::gpa_as_va_addr;
use tlb_sim::{TlbEntry, WalkOutcome};
use vm_types::{Cycles, PageSize, PhysAddr, VirtAddr};

/// PWC probe latency (mirrors `tlb_sim::pwc::PWC_LATENCY`).
const PWC_LATENCY: Cycles = 2;

impl System {
    /// Resolves an L2 TLB miss in a virtualised mode.
    pub(crate) fn resolve_l2_miss_virt(&mut self, gva: VirtAddr) -> MissResolution {
        match self.cfg.mode {
            ExecMode::VirtualizedShadow => self.shadow_resolve(gva),
            ExecMode::VirtualizedNested => self.nested_resolve(gva),
            ExecMode::Native => unreachable!("native misses use resolve_l2_miss"),
        }
    }

    /// I-SP: one four-level walk of the shadow table (gVA → hPA); shadow
    /// maintenance is free by definition of the ideal baseline.
    fn shadow_resolve(&mut self, gva: VirtAddr) -> MissResolution {
        let ctx = self.epoch.ctx();
        let Memory::Virt { nested } = &mut self.proc.memory else {
            unreachable!("virtualised flow");
        };
        let walk = self
            .walker
            .walk(&mut nested.shadow.table, gva, self.proc.asid, &mut self.hier, &ctx)
            .unwrap_or_else(|| panic!("shadow page fault at {gva}"));
        self.stats.record_walk(&walk);
        let entry = TlbEntry::with_counters(
            gva.vpn(walk.page_size),
            self.proc.asid,
            walk.page_size,
            walk.frame,
            walk.leaf_pte.ptw_freq(),
            walk.leaf_pte.ptw_cost(),
        );
        MissResolution { entry, latency: walk.latency, components: [0, 0, walk.latency, 0] }
    }

    /// Nested paging resolution, with the POM-TLB / Victima front-ends
    /// when configured.
    fn nested_resolve(&mut self, gva: VirtAddr) -> MissResolution {
        let ctx = self.epoch.ctx();

        // Victima: probe the L2 cache for a guest TLB block (Fig. 19). On
        // a hit the guest walk is skipped entirely; only the gPA→hPA step
        // remains (nested TLB, nested block, or host walk).
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), gva, self.proc.asid, BlockKind::Tlb, &ctx) {
                // Validate the view — the cluster must actually map this
                // gVA at the hit size (see the native flow) — and compose
                // the entry from the *same* guest translation instead of
                // re-walking. Virtualised TLB blocks store *direct*
                // gVA→hPA mappings (Fig. 19): a hit costs one L2 access
                // and skips both the guest and the host walk.
                if let Some(entry) = self.compose_entry_sw_if_sized(gva, hit.size) {
                    let latency = self.hier.l2().latency();
                    let mut components = [0u64; 4];
                    components[1] += latency;
                    self.stats.victima_hits += 1;
                    return MissResolution { entry, latency, components };
                }
            }
        }

        // POM-TLB (stores composed gVA→hPA translations).
        if self.pom.is_some() {
            let mut pom_lat: Cycles = 0;
            let mut hit: Option<TlbEntry> = None;
            for size in PageSize::ALL {
                let lk = self.pom.as_mut().expect("checked").lookup(gva.vpn(size), self.proc.asid, size);
                let r = self.hier.access(lk.line, false, MemClass::PomTlb, &ctx);
                pom_lat = pom_lat.max(r.latency);
                if let Some(frame) = lk.frame {
                    hit = Some(TlbEntry::new(gva.vpn(size), self.proc.asid, size, frame));
                    break;
                }
            }
            if let Some(entry) = hit {
                return MissResolution { entry, latency: pom_lat, components: [pom_lat, 0, 0, 0] };
            }
            let mut res = self.nested_walk(gva, true);
            res.latency += pom_lat;
            res.components[0] += pom_lat;
            // Install the composed translation in the POM-TLB.
            let e = res.entry;
            let line = self.pom.as_mut().expect("checked").insert(e.vpn, e.asid, e.size, e.frame);
            self.hier.access(line, true, MemClass::PomTlb, &ctx);
            return res;
        }

        self.nested_walk(gva, true)
    }

    /// The two-dimensional nested walk (Sec. 2.3): every guest page-table
    /// access needs its own gPA→hPA translation, and so does the final
    /// data page — up to 24 memory accesses when everything misses.
    ///
    /// `demand` distinguishes core-visible walks from Victima's background
    /// eviction-flow walks (traffic without stall, and no demand
    /// statistics).
    pub(crate) fn nested_walk(&mut self, gva: VirtAddr, demand: bool) -> MissResolution {
        let ctx = self.epoch.ctx();
        let gw = {
            let Memory::Virt { nested } = &self.proc.memory else {
                unreachable!("virtualised flow");
            };
            nested.guest.page_table.walk(gva).unwrap_or_else(|| panic!("guest page fault at {gva}"))
        };
        let leaf_level = gw.page_size.leaf_level();
        let mut guest_lat = PWC_LATENCY;
        let mut host_lat: Cycles = 0;
        let mut guest_dram = false;
        let mut accesses = 0u8;
        let deepest = self.walker.pwc.deepest_hit(gva, self.proc.asid, leaf_level);
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
        self.walker.pwc.fill_all(gva, self.proc.asid, leaf_level);

        // Update the guest leaf's predictor counters.
        let mut leaf_pte = gw.leaf_pte;
        {
            let Memory::Virt { nested } = &mut self.proc.memory else {
                unreachable!("virtualised flow");
            };
            nested.guest.page_table.update_leaf(gva, |p| {
                p.bump_ptw_freq();
                if guest_dram {
                    p.bump_ptw_cost();
                }
                leaf_pte = *p;
            });
        }
        // The guest dimension of the walk, as the walker would report it
        // (Victima re-points the leaf address at its host copy below).
        let mut wo = WalkOutcome {
            latency: guest_lat,
            dram_touched: guest_dram,
            frame: gw.frame,
            page_size: gw.page_size,
            leaf_pte,
            leaf_pte_paddr: gw.leaf_pte_paddr(),
            memory_accesses: accesses,
        };
        if demand {
            self.stats.record_walk(&wo);
        }

        // Compose the final gVA→hPA entry (+ final host translation).
        let (entry_base, h) = self.compose_entry(gva, gw.page_size, demand);
        host_lat += h;
        let entry = TlbEntry::with_counters(
            entry_base.vpn,
            entry_base.asid,
            entry_base.size,
            entry_base.frame,
            leaf_pte.ptw_freq(),
            leaf_pte.ptw_cost(),
        );

        // Victima: transform the guest leaf PTE cluster (cached under its
        // host-physical address) into a guest TLB block.
        let victima_active = self.victima.is_some();
        if victima_active {
            let leaf_hpa = {
                let Memory::Virt { nested } = &self.proc.memory else {
                    unreachable!("virtualised flow");
                };
                nested.host_translate(gw.leaf_pte_paddr()).map(|(hpa, _)| hpa)
            };
            if let Some(leaf_hpa) = leaf_hpa {
                wo.leaf_pte_paddr = leaf_hpa;
                let Some(v) = self.victima.as_mut() else { unreachable!("victima_active checked") };
                let inserted = if demand {
                    v.insert_after_walk(self.hier.l2_mut(), gva, self.proc.asid, BlockKind::Tlb, &wo, &ctx)
                } else {
                    v.insert_after_eviction_walk(
                        self.hier.l2_mut(),
                        gva,
                        self.proc.asid,
                        BlockKind::Tlb,
                        &wo,
                        &ctx,
                    )
                };
                if inserted {
                    self.stats.victima_inserts += 1;
                }
            }
        }

        MissResolution { entry, latency: guest_lat + host_lat, components: [0, 0, guest_lat, host_lat] }
    }

    /// Builds the composed gVA→hPA entry without timing — the TLB-block
    /// hit path, where the hardware reads the composed mapping straight
    /// out of the hit block (Fig. 19). Returns `None` when the guest
    /// mapping's page size differs from `gsize` (a stale 2MB/4KB view):
    /// one guest translation serves both the view validation and the
    /// entry composition.
    fn compose_entry_sw_if_sized(&self, gva: VirtAddr, gsize: PageSize) -> Option<TlbEntry> {
        let Memory::Virt { nested } = &self.proc.memory else {
            unreachable!("virtualised flow");
        };
        let (gpa, s) = nested.guest.page_table.translate(gva)?;
        if s != gsize {
            return None;
        }
        if gsize == PageSize::Size2M {
            let gpa_base = PhysAddr::new(gpa.raw() & !((2u64 << 20) - 1));
            if let Some((hpa_base, PageSize::Size2M)) = nested.host_translate(gpa_base) {
                if hpa_base.page_offset(PageSize::Size2M) == 0 {
                    return Some(TlbEntry::new(
                        gva.vpn(PageSize::Size2M),
                        self.proc.asid,
                        PageSize::Size2M,
                        hpa_base.frame(PageSize::Size4K),
                    ));
                }
            }
        }
        let gpa_piece = PhysAddr::new(gpa.raw() & !0xfff);
        let (hpa_piece, _) = nested.host_translate(gpa_piece).expect("gpa host-mapped");
        Some(TlbEntry::new(
            gva.vpn(PageSize::Size4K),
            self.proc.asid,
            PageSize::Size4K,
            hpa_piece.frame(PageSize::Size4K),
        ))
    }

    /// Builds the composed (possibly splintered) gVA→hPA TLB entry for a
    /// guest page of `gsize`, charging the final host translation.
    fn compose_entry(&mut self, gva: VirtAddr, gsize: PageSize, demand: bool) -> (TlbEntry, Cycles) {
        // Guest-physical address of the accessed 4KB piece.
        let (gpa_page, host_view) = {
            let Memory::Virt { nested } = &self.proc.memory else {
                unreachable!("virtualised flow");
            };
            let (gpa, s) = nested.guest.page_table.translate(gva).expect("guest mapped");
            debug_assert_eq!(s, gsize);
            let gpa_piece = PhysAddr::new(gpa.raw() & !0xfff);
            // For 2MB guest pages, check whether the host backs the whole
            // page with an aligned 2MB mapping (no splintering).
            let host_view = if gsize == PageSize::Size2M {
                let gpa_base = PhysAddr::new(gpa.raw() & !((2u64 << 20) - 1));
                nested.host_translate(gpa_base)
            } else {
                None
            };
            (gpa_piece, host_view)
        };
        let (hpa_piece, lat) = self.host_translate(gpa_page, demand);
        if gsize == PageSize::Size2M {
            if let Some((hpa_base, PageSize::Size2M)) = host_view {
                if hpa_base.page_offset(PageSize::Size2M) == 0 {
                    let entry = TlbEntry::new(
                        gva.vpn(PageSize::Size2M),
                        self.proc.asid,
                        PageSize::Size2M,
                        hpa_base.frame(PageSize::Size4K),
                    );
                    return (entry, lat);
                }
            }
        }
        let entry = TlbEntry::new(
            gva.vpn(PageSize::Size4K),
            self.proc.asid,
            PageSize::Size4K,
            hpa_piece.frame(PageSize::Size4K),
        );
        (entry, lat)
    }

    /// Translates a guest-physical address to host-physical through the
    /// nested TLB, Victima's nested TLB blocks (Fig. 18) and the host
    /// page-table walker, returning the hPA and the latency.
    pub(crate) fn host_translate(&mut self, gpa: PhysAddr, demand: bool) -> (PhysAddr, Cycles) {
        if demand {
            self.stats.host_translations += 1;
        }
        let ctx = self.epoch.ctx();
        let gpa_va = gpa_as_va_addr(gpa);
        let mut latency = self.nested_tlb.latency();

        // Nested TLB, both host page sizes.
        for size in PageSize::ALL {
            if let Some(e) = self.nested_tlb.probe(gpa_va.vpn(size), self.proc.asid, size) {
                if demand {
                    self.stats.nested_tlb_hits += 1;
                }
                return (compose(e.frame, size, gpa_va), latency);
            }
        }

        // Victima: nested TLB block in the L2 cache.
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), gpa_va, self.proc.asid, BlockKind::NestedTlb, &ctx)
            {
                // One software walk of the host table validates the hit's
                // page-size view *and* yields the entry (previously a
                // translate followed by a full re-walk).
                let entry = {
                    let Memory::Virt { nested } = &self.proc.memory else {
                        unreachable!("virtualised flow");
                    };
                    nested
                        .host_pt
                        .walk(gpa_va)
                        .filter(|w| w.page_size == hit.size)
                        .map(|w| crate::system::soft_walk_entry(gpa_va, self.proc.asid, &w))
                };
                if let Some(e) = entry {
                    latency += self.hier.l2().latency();
                    if demand {
                        self.stats.nested_block_hits += 1;
                    }
                    self.fill_nested_tlb(e);
                    return (compose(e.frame, e.size, gpa_va), latency);
                }
            }
        }

        // Host page-table walk.
        let walk = {
            let Memory::Virt { nested } = &mut self.proc.memory else {
                unreachable!("virtualised flow");
            };
            self.host_walker
                .walk(&mut nested.host_pt, gpa_va, self.proc.asid, &mut self.hier, &ctx)
                .unwrap_or_else(|| panic!("host page fault at gpa {gpa}"))
        };
        if demand {
            self.stats.host_ptws += 1;
        }
        latency += walk.latency;
        let e = TlbEntry::with_counters(
            gpa_va.vpn(walk.page_size),
            self.proc.asid,
            walk.page_size,
            walk.frame,
            walk.leaf_pte.ptw_freq(),
            walk.leaf_pte.ptw_cost(),
        );
        self.fill_nested_tlb(e);
        if let Some(v) = self.victima.as_mut() {
            v.insert_after_walk(
                self.hier.l2_mut(),
                gpa_va,
                self.proc.asid,
                BlockKind::NestedTlb,
                &walk,
                &ctx,
            );
        }
        (compose(walk.frame, walk.page_size, gpa_va), latency)
    }

    /// Fills the nested TLB; a displaced entry runs Victima's nested
    /// eviction flow (background host walk + nested-block insert).
    fn fill_nested_tlb(&mut self, e: TlbEntry) {
        let Some(ev) = self.nested_tlb.fill(e) else {
            return;
        };
        let ev_va = VirtAddr::new(ev.vpn << ev.size.shift());
        let ctx = self.epoch.ctx();
        let Some(v) = self.victima.as_mut() else {
            return;
        };
        if !v.wants_eviction_insert(
            self.hier.l2(),
            ev_va,
            ev.asid,
            BlockKind::NestedTlb,
            ev.size,
            ev.ptw_freq,
            ev.ptw_cost,
            &ctx,
        ) {
            return;
        }
        self.stats.victima_background_walks += 1;
        let walk = {
            let Memory::Virt { nested } = &mut self.proc.memory else {
                unreachable!("virtualised flow");
            };
            self.bg_walker.walk(&mut nested.host_pt, ev_va, ev.asid, &mut self.hier, &ctx)
        };
        if let Some(w) = walk {
            let v = self.victima.as_mut().expect("checked above");
            if v.insert_after_eviction_walk(
                self.hier.l2_mut(),
                ev_va,
                ev.asid,
                BlockKind::NestedTlb,
                &w,
                &ctx,
            ) {
                self.stats.victima_inserts += 1;
            }
        }
    }

    /// Victima's guest-side eviction flow (an L2 TLB entry for a guest
    /// translation was displaced): background 2D walk, then insert the
    /// guest TLB block.
    pub(crate) fn victima_eviction_flow_virt(&mut self, ev: TlbEntry, ev_va: VirtAddr) {
        debug_assert_eq!(self.cfg.mode, ExecMode::VirtualizedNested);
        // TLB entries may be splintered; the TLB *block* is keyed by the
        // guest page size.
        let gsize = self.page_size_of(ev_va);
        let ctx = self.epoch.ctx();
        let v = self.victima.as_mut().expect("victima mechanism has an engine");
        if !v.wants_eviction_insert(
            self.hier.l2(),
            ev_va,
            ev.asid,
            BlockKind::Tlb,
            gsize,
            ev.ptw_freq,
            ev.ptw_cost,
            &ctx,
        ) {
            return;
        }
        self.stats.victima_background_walks += 1;
        // Background 2D walk: full traffic, no core stall, and the
        // eviction-mode insert at the end.
        self.nested_walk(ev_va, false);
    }
}

#[inline]
fn compose(frame: u64, size: PageSize, gpa_va: VirtAddr) -> PhysAddr {
    match size {
        PageSize::Size4K => {
            PhysAddr::from_frame(frame, PageSize::Size4K, gpa_va.page_offset(PageSize::Size4K))
        }
        PageSize::Size2M => {
            PhysAddr::from_frame(frame >> 9, PageSize::Size2M, gpa_va.page_offset(PageSize::Size2M))
        }
    }
}

/// Guards against misuse of virtualised-only mechanisms.
pub(crate) fn assert_mode_supported(mechanism: &TranslationMechanism, mode: ExecMode) {
    if matches!(mechanism, TranslationMechanism::IdealBackstop(_)) {
        assert_eq!(mode, ExecMode::Native, "the Fig. 10 ideal backstop is a native-mode study");
    }
}
