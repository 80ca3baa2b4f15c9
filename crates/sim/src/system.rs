//! One simulated core's memory system, driven by a workload stream.
//!
//! The translation flow follows Fig. 2 (and Figs. 14/17 for Victima):
//! L1 D-TLBs (per page size) → unified L2 TLB → one backstop chain,
//! `System::resolve_l2_miss`, for every execution mode: hardware L3
//! TLB → Fig. 10 ideal backstop → Victima's L2-cache TLB-block probe →
//! POM-TLB lookup → demand page-table walk. A displaced L2 TLB entry runs
//! the POM-TLB spill and Victima's eviction flow. Virtualisation
//! (Figs. 18/19) changes only two steps of the chain — composing an entry
//! in software and the demand walk — and adds the gPA→hPA translation
//! behind the nested TLB; those pieces live in [`crate::virt`]. See
//! DESIGN.md, "Translation path".

use crate::config::{ExecMode, SystemConfig, TranslationMechanism};
use crate::epochs::EpochTracker;
use crate::stats::SimStats;
use mem_sim::{BlockKind, Hierarchy, MemClass, MemLevel, Policy, SharedLlc};
use obs::Tracer;
use page_table::{AddressSpace, FrameAllocator, MappedRegion, NestedMemory, Pte, RadixPageTable};
use std::cell::RefCell;
use std::rc::Rc;
use tlb_sim::{PageTableWalker, PomTlb, SetAssocTlb, TlbEntry, WalkOutcome};
use victima::{features::FeatureTracker, Victima};
use vm_types::{Asid, Cycles, MemRef, PageSize, PhysAddr, VirtAddr};
use workloads::{Workload, WorkloadStream};

/// Where the translated memory image lives.
pub(crate) enum Memory {
    /// Native: one process address space over (possibly shared) physical
    /// memory.
    Native {
        /// Physical frame allocator — shared between every process of a
        /// multi-core system, private otherwise.
        alloc: Rc<RefCell<FrameAllocator>>,
        /// The process.
        aspace: AddressSpace,
    },
    /// Virtualised: a guest VM with nested (and shadow) page tables
    /// (boxed: the image is much larger than the native variant).
    Virt {
        /// The guest memory image.
        nested: Box<NestedMemory>,
    },
}

impl Memory {
    /// The radix table a one-dimensional hardware walk of `kind`
    /// translations reads: the process table natively; in a guest VM the
    /// shadow table (gVA→hPA, I-SP) for [`BlockKind::Tlb`] and the host
    /// table (gPA→hPA) for [`BlockKind::NestedTlb`].
    pub(crate) fn radix_mut(&mut self, kind: BlockKind) -> &mut RadixPageTable {
        match (self, kind) {
            (Memory::Native { aspace, .. }, _) => &mut aspace.page_table,
            (Memory::Virt { nested }, BlockKind::NestedTlb) => &mut nested.host_pt,
            (Memory::Virt { nested }, _) => &mut nested.shadow.table,
        }
    }
}

/// Everything that belongs to the *process* rather than the core: the
/// memory image, the workload stream, the code region and the ASID — plus
/// per-process progress counters so oversubscribed schedules can account
/// each process individually. The multi-core scheduler context-switches by
/// swapping one of these in and out of a core ([`System`]).
pub struct ProcessCtx {
    pub(crate) memory: Memory,
    pub(crate) stream: WorkloadStream,
    pub(crate) code: MappedRegion,
    pub(crate) asid: Asid,
    /// Instructions this process has retired (across every core it ran on).
    pub retired: u64,
    /// Core cycles this process has consumed (fractional accumulation).
    pub cycles: f64,
}

impl std::fmt::Debug for ProcessCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessCtx")
            .field("workload", &self.stream.name())
            .field("asid", &self.asid)
            .field("retired", &self.retired)
            .finish()
    }
}

impl ProcessCtx {
    /// Builds a native-mode process: allocates its address space and code
    /// region from `alloc`, maps the workload's regions, and binds the
    /// stream. `seed` drives region placement (page-size mixing).
    pub fn new_native(
        asid: Asid,
        mut workload: Box<dyn Workload>,
        alloc: &Rc<RefCell<FrameAllocator>>,
        seed: u64,
    ) -> Self {
        let specs = workload.region_specs();
        let (aspace, code, bases) = {
            let mut a = alloc.borrow_mut();
            let mut aspace = AddressSpace::new(asid, &mut a, seed);
            let code = aspace.map_small_region(256 << 10, &mut a);
            let bases: Vec<VirtAddr> =
                specs.iter().map(|s| aspace.map_region(s.bytes, s.huge_fraction, &mut a).base).collect();
            (aspace, code, bases)
        };
        workload.init(&bases);
        Self {
            memory: Memory::Native { alloc: Rc::clone(alloc), aspace },
            stream: WorkloadStream::new(workload),
            code,
            asid,
            retired: 0,
            cycles: 0.0,
        }
    }

    /// The workload name.
    pub fn workload_name(&self) -> &'static str {
        self.stream.name()
    }

    /// The process's address-space identifier.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Instructions per cycle over this process's whole runtime.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.retired as f64 / self.cycles
        }
    }

    /// Zeroes the progress counters (end of warm-up).
    pub fn reset_counters(&mut self) {
        self.retired = 0;
        self.cycles = 0.0;
    }

    /// Remaps one data page of this process to a fresh physical frame (a
    /// migration), as the OS would before issuing a shootdown. Returns the
    /// new ground truth. Native mode only.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped or the process is virtualised.
    pub fn migrate_page(&mut self, va: VirtAddr) -> PhysAddr {
        let Memory::Native { alloc, aspace } = &mut self.memory else {
            panic!("migrate_page supports native mode only");
        };
        let mut alloc = alloc.borrow_mut();
        let old = aspace.page_table.unmap(va.align_down(PageSize::Size4K)).expect("page must be mapped");
        assert_eq!(old.page_size(), PageSize::Size4K, "migration test uses 4KB pages");
        let frame = alloc.alloc_4k();
        aspace.page_table.map(va.align_down(PageSize::Size4K), frame, PageSize::Size4K, &mut alloc);
        aspace.page_table.translate(va).expect("just mapped").0
    }
}

/// A complete simulated core bound to one resident process.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) hier: Hierarchy,
    pub(crate) itlb: SetAssocTlb,
    pub(crate) dtlb4k: SetAssocTlb,
    pub(crate) dtlb2m: SetAssocTlb,
    pub(crate) l2_tlb: SetAssocTlb,
    pub(crate) l3_tlb: Option<SetAssocTlb>,
    /// Demand walker (guest-side in virtualised mode). Its PWCs serve the
    /// demand path.
    pub(crate) walker: PageTableWalker,
    /// Walker used for Victima's background (eviction-flow) walks.
    pub(crate) bg_walker: PageTableWalker,
    /// Host page-table walker (virtualised mode).
    pub(crate) host_walker: PageTableWalker,
    /// Nested TLB (gPA → hPA, virtualised mode).
    pub(crate) nested_tlb: SetAssocTlb,
    /// Fig. 10 ideal backstop: the fixed latency of every L2 TLB miss.
    ideal_backstop: Option<Cycles>,
    pub(crate) pom: Option<PomTlb>,
    pub(crate) victima: Option<Victima>,
    /// The resident process (swapped by the multi-core scheduler).
    pub(crate) proc: ProcessCtx,
    pub(crate) epoch: EpochTracker,
    /// Run statistics.
    pub stats: SimStats,
    /// Optional per-page feature tracker (Table 2 profiling runs).
    pub tracker: Option<FeatureTracker>,
    /// Optional tap on the consumed reference stream (trace recording):
    /// sees every [`MemRef`] exactly as [`System::step`] consumes it,
    /// warm-up included, so a recorded trace replays the whole run.
    record_hook: Option<Box<dyn FnMut(MemRef)>>,
    /// Optional phase-span tracer: `run_with_warmup`, the sampling loop
    /// and checkpoint restore record wall-clock phase timings into it.
    /// Timings never reach [`SimStats`] or any `--check` artifact.
    pub(crate) tracer: Option<Tracer>,
    /// Memory references consumed from the stream over the system's
    /// whole lifetime (detailed *and* fast-forwarded; never reset).
    /// This is the stream position a checkpoint records so a resumed
    /// run can drain the generator back to the same point.
    refs_consumed: u64,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("config", &self.cfg.name)
            .field("workload", &self.proc.stream.name())
            .finish()
    }
}

/// Outcome of resolving one L2 TLB miss.
pub(crate) struct MissResolution {
    pub entry: TlbEntry,
    pub latency: Cycles,
    /// Fig. 22/29 components: (pom, l2-cache, walk, host).
    pub components: [Cycles; 4],
}

impl System {
    /// Builds a system: allocates physical memory, maps the workload's
    /// regions (and the virtualised image if configured), and wires up
    /// every component.
    ///
    /// # Panics
    ///
    /// Panics if the Fig. 10 ideal backstop is configured outside native
    /// mode.
    pub fn new(cfg: SystemConfig, mut workload: Box<dyn Workload>) -> Self {
        if matches!(cfg.mechanism, TranslationMechanism::IdealBackstop(_)) {
            assert_eq!(cfg.mode, ExecMode::Native, "the Fig. 10 ideal backstop is a native-mode study");
        }
        let asid = Asid::new(1);

        // Build the memory image and map regions.
        let proc = match cfg.mode {
            ExecMode::Native => {
                let alloc = Rc::new(RefCell::new(FrameAllocator::new(cfg.phys_mem_bytes, cfg.seed)));
                ProcessCtx::new_native(asid, workload, &alloc, cfg.seed)
            }
            ExecMode::VirtualizedNested | ExecMode::VirtualizedShadow => {
                let specs = workload.region_specs();
                let footprint: u64 = specs.iter().map(|s| s.bytes).sum();
                // Guest-physical space: footprint plus table overheads and
                // fragmentation-skip slack.
                let guest_phys = footprint * 2 + (1 << 30);
                // Hosts back VM memory with THP (EPT huge pages):
                // 70% of the 2MB chunks of guest-physical space get a
                // host 2MB page (calibrated; see EXPERIMENTS.md).
                let mut nested = NestedMemory::new(asid, guest_phys, cfg.phys_mem_bytes, 0.7, cfg.seed);
                let code = nested.map_small_region(256 << 10);
                let bases: Vec<VirtAddr> =
                    specs.iter().map(|s| nested.map_region(s.bytes, s.huge_fraction).base).collect();
                workload.init(&bases);
                ProcessCtx {
                    memory: Memory::Virt { nested: Box::new(nested) },
                    stream: WorkloadStream::new(workload),
                    code,
                    asid,
                    retired: 0,
                    cycles: 0.0,
                }
            }
        };
        Self::assemble(cfg, proc, None)
    }

    /// Builds a core over an externally owned (shared) LLC, bound to a
    /// pre-built native process — the multi-core construction path. The
    /// POM-TLB region, when configured, is carved out of the process's
    /// (shared) frame allocator: one private in-DRAM TLB per core.
    pub fn new_shared(cfg: SystemConfig, proc: ProcessCtx, llc: Rc<RefCell<SharedLlc>>) -> Self {
        assert_eq!(cfg.mode, ExecMode::Native, "multi-core cores are native-mode");
        Self::assemble(cfg, proc, Some(llc))
    }

    /// Wires every hardware component around a process. The `Option`
    /// backstops (`l3_tlb`, `ideal_backstop`, `pom`, `victima`) are the
    /// static composition of the configured mechanism; the per-reference
    /// path only ever asks which of them are present.
    fn assemble(cfg: SystemConfig, mut proc: ProcessCtx, llc: Option<Rc<RefCell<SharedLlc>>>) -> Self {
        let (tlb_aware_l2, ideal_backstop, victima_cfg, pom_cfg) = match &cfg.mechanism {
            TranslationMechanism::Radix => (false, None, None, None),
            TranslationMechanism::IdealBackstop(l) => (false, Some(*l), None, None),
            TranslationMechanism::PomTlb(p) => (true, None, None, Some(p)),
            TranslationMechanism::Victima(v) => (true, None, Some(v), None),
            TranslationMechanism::VictimaAgnostic(v) => (false, None, Some(v), None),
            TranslationMechanism::VictimaPom(v, p) => (true, None, Some(v), Some(p)),
        };
        let l2_policy = if tlb_aware_l2 { Policy::tlb_aware_srrip() } else { Policy::srrip() };
        let hier = match llc {
            Some(llc) => Hierarchy::with_shared_llc(cfg.hierarchy.clone(), l2_policy, llc),
            None => Hierarchy::with_l2_policy(cfg.hierarchy.clone(), l2_policy),
        };
        // The in-DRAM POM-TLB region comes out of the process's physical
        // memory (host memory in a guest VM), after the process is mapped.
        let pom = pom_cfg.map(|p| {
            let bytes = p.storage_bytes();
            let base = match &mut proc.memory {
                Memory::Native { alloc, .. } => alloc.borrow_mut().alloc_contiguous(bytes),
                Memory::Virt { nested } => nested.host_alloc.alloc_contiguous(bytes),
            };
            PomTlb::new(p.clone(), base)
        });
        let victima = victima_cfg.map(|v| Victima::new(v.clone()));

        Self {
            itlb: SetAssocTlb::new(cfg.mmu.l1_itlb.clone()),
            dtlb4k: SetAssocTlb::new(cfg.mmu.l1_dtlb_4k.clone()),
            dtlb2m: SetAssocTlb::new(cfg.mmu.l1_dtlb_2m.clone()),
            l2_tlb: SetAssocTlb::new(cfg.mmu.l2_tlb.clone()),
            l3_tlb: cfg.mmu.l3_tlb.clone().map(SetAssocTlb::new),
            walker: PageTableWalker::new(),
            bg_walker: PageTableWalker::new(),
            host_walker: PageTableWalker::new(),
            nested_tlb: SetAssocTlb::new(cfg.mmu.nested_tlb.clone()),
            ideal_backstop,
            pom,
            victima,
            proc,
            epoch: EpochTracker::new(),
            stats: SimStats::default(),
            tracker: None,
            record_hook: None,
            tracer: None,
            refs_consumed: 0,
            hier,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The workload name.
    pub fn workload_name(&self) -> &'static str {
        self.proc.stream.name()
    }

    /// Enables per-page feature collection (Table 2 profiling).
    pub fn enable_feature_tracking(&mut self) {
        self.tracker = Some(FeatureTracker::new());
    }

    /// Installs a tap on the reference stream the core consumes. The
    /// hook fires once per [`MemRef`], *before* the reference executes
    /// and from the very first instruction (warm-up included) — exactly
    /// the stream a `.vtrace` recorder must capture for replay to be
    /// byte-identical to the live run. Replaces any previous hook.
    pub fn set_record_hook(&mut self, hook: Box<dyn FnMut(MemRef)>) {
        self.record_hook = Some(hook);
    }

    /// Removes and returns the record hook, releasing whatever sink it
    /// captured (recorders reclaim their writer through this).
    pub fn take_record_hook(&mut self) -> Option<Box<dyn FnMut(MemRef)>> {
        self.record_hook.take()
    }

    /// Enables phase-span tracing into a fresh [`Tracer`].
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::new());
    }

    /// Removes and returns the tracer (end-of-run harvest).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Stamps a span start when tracing is on (0 otherwise — the stamp
    /// is only ever consumed by [`System::span_end`], which is a no-op
    /// in that case).
    pub(crate) fn span_start(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::start)
    }

    /// Closes a phase span opened at `start_us`; no-op when tracing is
    /// off.
    pub(crate) fn span_end(&mut self, name: &'static str, start_us: u64, fields: &[(&'static str, u64)]) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(name, start_us, fields);
        }
    }

    /// Runs for `instructions` instructions (memory + gap instructions).
    ///
    /// The budget is counted locally, not off `stats.instructions`, so
    /// callers that clear statistics mid-run (warm-up resets, sampling
    /// windows) always advance by exactly the requested amount.
    pub fn run(&mut self, instructions: u64) {
        let mut advanced = 0u64;
        while advanced < instructions {
            let r = self.proc.stream.next_ref();
            advanced += r.instructions();
            self.step(r);
        }
    }

    /// Runs `warmup` instructions, discards all statistics, then runs
    /// `measured` instructions. The record hook (when installed) sees
    /// every reference of both phases, from the very first warm-up ref,
    /// exactly once — statistics resets never skip or replay hook fires.
    pub fn run_with_warmup(&mut self, warmup: u64, measured: u64) {
        let t0 = self.span_start();
        self.run(warmup);
        self.span_end("warmup", t0, &[("instr", warmup)]);
        self.reset_stats();
        self.proc.reset_counters();
        let t0 = self.span_start();
        self.run(measured);
        self.span_end("measured", t0, &[("instr", measured)]);
    }

    /// Memory references consumed from the workload stream since
    /// construction (never reset; fast-forwarded references included).
    pub fn refs_consumed(&self) -> u64 {
        self.refs_consumed
    }

    /// Advances the system *functionally* for `instructions`
    /// instructions: the workload stream, the L2 TLB's content and the
    /// page-table ground truth move forward, but no timing is accounted
    /// — no cache or DRAM traffic, no prefetcher training, no Victima /
    /// POM-TLB activity, and no PTE counter bumps. This is the
    /// fast-forward phase of SMARTS-style interval sampling
    /// ([`crate::sampling`]): orders of magnitude faster than
    /// [`System::run`], with the smaller structures (L1 TLBs, caches,
    /// PWCs) repaired by the detailed warm-up that precedes each
    /// measurement window. The record hook still sees every reference,
    /// so recording stays exact under sampling.
    ///
    /// # Panics
    ///
    /// Panics in virtualised mode (sampling is native-only).
    pub fn fast_forward(&mut self, instructions: u64) {
        assert_eq!(self.cfg.mode, ExecMode::Native, "fast_forward supports native mode only");
        // Page-level short-circuit: consecutive references to the same
        // 4KB-aligned page skip even the L2 TLB probe.
        let mut last_vpn4k = u64::MAX;
        let mut advanced = 0u64;
        while advanced < instructions {
            let r = self.proc.stream.next_ref();
            if let Some(hook) = self.record_hook.as_mut() {
                hook(r);
            }
            self.refs_consumed += 1;
            advanced += r.instructions();
            let vpn4k = r.vaddr.vpn(PageSize::Size4K);
            if vpn4k == last_vpn4k {
                continue;
            }
            last_vpn4k = vpn4k;
            // Walk the page table first (functionally it is a handful of
            // array reads — cheaper than a TLB probe), then fill
            // unconditionally: `fill` refreshes in place when the
            // translation is already resident, so one set scan replaces
            // the probe-then-fill pair. PTE counters are frozen in
            // functional mode, so a refresh writes back an identical
            // payload and only touches the LRU stamp — exactly what a
            // probe hit would do. Fill/eviction statistics are clobbered,
            // but every measurement window starts with `reset_stats`.
            let entry = self
                .software_entry(r.vaddr, None)
                .unwrap_or_else(|| panic!("page fault at {}: workload touched an unmapped page", r.vaddr));
            // Raw fill: the eviction-side hooks (Victima background
            // walks, POM spills) are timing/traffic mechanisms and stay
            // off in functional mode.
            self.l2_tlb.fill(entry);
        }
    }

    /// Advances the workload stream for `instructions` instructions
    /// without simulating anything at all — not even the functional L2
    /// TLB warming of [`System::fast_forward`]. The record hook still
    /// sees every reference and `refs_consumed` advances, so recording
    /// and checkpoint stream positions stay exact.
    ///
    /// Sound because workloads never page-fault after construction: the
    /// page-table ground truth cannot change while instructions are
    /// skipped, so the only state a skip loses is TLB recency — which
    /// [`crate::sampling`] repairs with a bounded functional-warming
    /// tail before each measurement window.
    pub fn skip(&mut self, instructions: u64) {
        let mut advanced = 0u64;
        while advanced < instructions {
            let r = self.proc.stream.next_ref();
            if let Some(hook) = self.record_hook.as_mut() {
                hook(r);
            }
            self.refs_consumed += 1;
            advanced += r.instructions();
        }
    }

    /// Runs the *resident process* for up to `instructions` more retired
    /// instructions (the multi-core scheduler's quantum unit: core stats
    /// blend processes, per-process progress lives in the [`ProcessCtx`]).
    pub fn run_quantum(&mut self, instructions: u64) {
        let target = self.proc.retired + instructions;
        while self.proc.retired < target {
            let r = self.proc.stream.next_ref();
            self.step(r);
        }
    }

    /// Consumes `refs` references from the workload stream without
    /// simulating them or firing the record hook (checkpoint resume:
    /// generators are deterministic, so draining the stream back to a
    /// recorded position reproduces exactly the stream the saved run
    /// would have continued with).
    pub(crate) fn drain_stream_refs(&mut self, refs: u64) {
        for _ in 0..refs {
            let _ = self.proc.stream.next_ref();
        }
        self.refs_consumed += refs;
    }

    /// The resident process.
    pub fn process(&self) -> &ProcessCtx {
        &self.proc
    }

    /// Mutable access to the resident process (migrations, counter resets).
    pub fn process_mut(&mut self) -> &mut ProcessCtx {
        &mut self.proc
    }

    /// Swaps the resident process with `other` (a context switch). The
    /// caller applies whatever TLB invalidation policy the hardware model
    /// calls for — see `scheduler::CtxSwitchPolicy`.
    pub fn swap_process(&mut self, other: &mut ProcessCtx) {
        std::mem::swap(&mut self.proc, other);
    }

    /// Clears statistics on every component; cache/TLB contents stay warm.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.hier.reset_stats();
        self.itlb.reset_stats();
        self.dtlb4k.reset_stats();
        self.dtlb2m.reset_stats();
        self.l2_tlb.reset_stats();
        if let Some(l3) = &mut self.l3_tlb {
            l3.reset_stats();
        }
        self.walker.reset_stats();
        self.host_walker.reset_stats();
        self.epoch = EpochTracker::new();
        if let Some(v) = &mut self.victima {
            v.stats = Default::default();
        }
        if let Some(p) = &mut self.pom {
            p.stats = Default::default();
        }
    }

    /// Executes one memory reference through the full model.
    fn step(&mut self, r: MemRef) {
        if let Some(hook) = self.record_hook.as_mut() {
            hook(r);
        }
        self.refs_consumed += 1;
        let instrs = r.instructions();
        self.stats.instructions += instrs;
        self.stats.mem_refs += 1;

        // Instruction side: translate and fetch from the small code region.
        let ifetch_lat = self.ifetch(r.pc);

        // Data side.
        let (pa, t_lat) = self.translate_data(r.vaddr);
        let ctx = self.epoch.ctx();
        let res = self.hier.access_pc(pa, r.kind.is_write(), MemClass::Data, r.pc, &ctx);
        if matches!(res.served_by, MemLevel::L3 | MemLevel::Dram) {
            self.epoch.on_l2_cache_miss();
        }
        if self.tracker.is_some() {
            let size = self.page_size_at(r.vaddr).unwrap_or(PageSize::Size4K);
            let asid = self.proc.asid;
            if let Some(t) = self.tracker.as_mut() {
                t.on_access(asid, r.vaddr, size);
                if res.served_by == MemLevel::L2 {
                    t.on_l2_cache_hit(asid, r.vaddr, size);
                }
            }
        }
        let d_stall = if r.kind.is_write() { 0 } else { res.latency };

        self.stats.translation_cycles += t_lat + ifetch_lat;
        self.stats.data_cycles += d_stall;
        let t = &self.cfg.timing;
        let cycles = instrs as f64 / t.issue_width
            + t.t_expose * (t_lat + ifetch_lat) as f64
            + t.d_expose * d_stall as f64;
        self.stats.add_cycles(cycles);
        self.proc.retired += instrs;
        self.proc.cycles += cycles;

        if self.epoch.on_instructions(instrs) {
            let reach = self.hier.l2().translation_block_count() as u64 * 8 * 4096;
            self.epoch.sample_reach(reach);
            self.stats.reach_mean_bytes = self.epoch.reach.mean();
            self.stats.reach_max_bytes = self.epoch.reach_max;
        }
    }

    /// Instruction fetch through the I-TLB and L1I. Returns the exposed
    /// translation latency (nonzero only on I-TLB misses, which are rare
    /// since the code region is small).
    fn ifetch(&mut self, pc: u64) -> Cycles {
        // Code regions are power-of-two sized; masking avoids a 64-bit
        // division per simulated instruction.
        let bytes = self.proc.code.bytes;
        let offset = if bytes.is_power_of_two() { pc & (bytes - 1) } else { pc % bytes };
        let va = self.proc.code.at(offset);
        let vpn = va.vpn(PageSize::Size4K);
        let (frame, lat) = match self.itlb.probe(vpn, self.proc.asid, PageSize::Size4K) {
            Some(e) => (e.frame, 0),
            None => {
                // Miss: L2 TLB, then walk. Code pages are always 4KB.
                let mut lat = self.l2_tlb.latency();
                let entry = match self.l2_tlb.probe(vpn, self.proc.asid, PageSize::Size4K) {
                    Some(e) => e,
                    None => {
                        let res = self.resolve_l2_miss(va);
                        lat += res.latency;
                        self.fill_l2_tlb(res.entry);
                        res.entry
                    }
                };
                self.itlb.fill(entry);
                (entry.frame, lat)
            }
        };
        let pa = PhysAddr::from_frame(frame, PageSize::Size4K, va.page_offset(PageSize::Size4K));
        let ctx = self.epoch.ctx();
        self.hier.access(pa, false, MemClass::IFetch, &ctx);
        lat
    }

    /// Full data-side translation. Returns the physical address and the
    /// translation latency beyond the (pipelined) L1 TLB hit.
    pub(crate) fn translate_data(&mut self, va: VirtAddr) -> (PhysAddr, Cycles) {
        // L1 D-TLBs, one per page size, probed in parallel (1 cycle,
        // hidden in the pipeline).
        if let Some(e) = self.dtlb4k.probe(va.vpn(PageSize::Size4K), self.proc.asid, PageSize::Size4K) {
            self.stats.l1_tlb_hits += 1;
            return (entry_pa(&e, va), 0);
        }
        if let Some(e) = self.dtlb2m.probe(va.vpn(PageSize::Size2M), self.proc.asid, PageSize::Size2M) {
            self.stats.l1_tlb_hits += 1;
            return (entry_pa(&e, va), 0);
        }
        self.stats.l1_tlb_misses += 1;

        // Unified L2 TLB, both page sizes probed in parallel.
        let mut latency = self.l2_tlb.latency();
        for size in PageSize::ALL {
            if let Some(e) = self.l2_tlb.probe(va.vpn(size), self.proc.asid, size) {
                self.stats.l2_tlb_hits += 1;
                self.fill_l1(e);
                self.track_l1_miss(va, size);
                return (entry_pa(&e, va), latency);
            }
        }
        self.stats.l2_tlb_misses += 1;
        self.epoch.on_l2_tlb_miss();

        let res = self.resolve_l2_miss(va);
        latency += res.latency;
        self.stats.l2_miss_latency_sum += res.latency;
        self.stats.l2_miss_latency_hist.record(res.latency);
        self.stats.l2_miss_pom_component += res.components[0];
        self.stats.l2_miss_cache_component += res.components[1];
        self.stats.l2_miss_walk_component += res.components[2];
        self.stats.l2_miss_host_component += res.components[3];

        self.fill_l2_tlb(res.entry);
        self.fill_l1(res.entry);
        self.track_l1_miss(va, res.entry.size);
        self.track_l2_miss(va, res.entry.size);
        (entry_pa(&res.entry, va), latency)
    }

    /// Translates once (public hook for tests and examples): runs the full
    /// translation path with timing and returns the physical address.
    pub fn translate_once(&mut self, va: VirtAddr) -> PhysAddr {
        self.translate_data(va).0
    }

    /// Ground-truth translation straight from the page tables (no timing,
    /// no state changes). `None` if unmapped.
    pub fn ground_truth(&self, va: VirtAddr) -> Option<PhysAddr> {
        match &self.proc.memory {
            Memory::Native { aspace, .. } => aspace.page_table.translate(va).map(|(pa, _)| pa),
            Memory::Virt { nested } => nested.full_translate(va),
        }
    }

    /// The page size backing `va` (guest-side in virtualised mode), or
    /// `None` if unmapped. Software lookup; no timing or state changes.
    pub fn page_size_at(&self, va: VirtAddr) -> Option<PageSize> {
        match &self.proc.memory {
            Memory::Native { aspace, .. } => aspace.page_table.translate(va).map(|(_, s)| s),
            Memory::Virt { nested } => nested.guest.page_table.translate(va).map(|(_, s)| s),
        }
    }

    fn track_l1_miss(&mut self, va: VirtAddr, size: PageSize) {
        if let Some(t) = self.tracker.as_mut() {
            t.on_l1_tlb_miss(self.proc.asid, va, size);
        }
    }

    fn track_l2_miss(&mut self, va: VirtAddr, size: PageSize) {
        if let Some(t) = self.tracker.as_mut() {
            t.on_l2_tlb_miss(self.proc.asid, va, size);
        }
    }

    fn fill_l1(&mut self, e: TlbEntry) {
        let evicted = match e.size {
            PageSize::Size4K => self.dtlb4k.fill(e),
            PageSize::Size2M => self.dtlb2m.fill(e),
        };
        if let (Some(ev), Some(t)) = (evicted, self.tracker.as_mut()) {
            t.on_l1_tlb_eviction(ev.asid, VirtAddr::new(ev.vpn << ev.size.shift()), ev.size);
        }
    }

    /// Fills the L2 TLB and runs the eviction-side hooks (POM-TLB's spill,
    /// then Victima's eviction flow).
    pub(crate) fn fill_l2_tlb(&mut self, e: TlbEntry) {
        let Some(ev) = self.l2_tlb.fill(e) else {
            return;
        };
        if let Some(t) = self.tracker.as_mut() {
            t.on_l2_tlb_eviction(ev.asid, VirtAddr::new(ev.vpn << ev.size.shift()), ev.size);
        }
        // Spill the evicted entry to the in-memory TLB (off the critical
        // path: traffic only).
        if let Some(pom) = self.pom.as_mut() {
            let line = pom.insert(ev.vpn, ev.asid, ev.size, ev.frame);
            let ctx = self.epoch.ctx();
            self.hier.access(line, true, MemClass::PomTlb, &ctx);
        }
        if self.victima.is_some() {
            self.victima_eviction_flow(BlockKind::Tlb, ev);
        }
    }

    /// Victima's eviction flow (Fig. 14, right path) for an entry `ev`
    /// displaced from the L2 TLB ([`BlockKind::Tlb`]) or the nested TLB
    /// ([`BlockKind::NestedTlb`]): predictor check, background walk, block
    /// insert. The background walk generates real cache traffic but no
    /// core stall.
    pub(crate) fn victima_eviction_flow(&mut self, kind: BlockKind, ev: TlbEntry) {
        let ev_va = VirtAddr::new(ev.vpn << ev.size.shift());
        let guest_2d = kind == BlockKind::Tlb && self.cfg.mode == ExecMode::VirtualizedNested;
        // Composed gVA→hPA entries may be splintered; a guest TLB block is
        // keyed by the guest page size.
        let view = if guest_2d { self.page_size_at(ev_va).unwrap_or(PageSize::Size4K) } else { ev.size };
        let ctx = self.epoch.ctx();
        let v = self.victima.as_mut().expect("victima mechanism has an engine");
        if !v.wants_eviction_insert(
            self.hier.l2(),
            ev_va,
            ev.asid,
            kind,
            view,
            ev.ptw_freq,
            ev.ptw_cost,
            &ctx,
        ) {
            return;
        }
        self.stats.victima_background_walks += 1;
        let walk = if guest_2d {
            // A background 2D walk. Guest-side background walks share the
            // demand walker's PWC (native ones use `bg_walker`): a private
            // guest PWC would move every virtualised Victima result.
            Some(self.nested_walk(ev_va, false).0)
        } else {
            let table = self.proc.memory.radix_mut(kind);
            self.bg_walker.walk(table, ev_va, ev.asid, &mut self.hier, &ctx)
        };
        if let Some(w) = walk {
            let v = self.victima.as_mut().expect("checked above");
            if v.insert_after_eviction_walk(self.hier.l2_mut(), ev_va, ev.asid, kind, &w, &ctx) {
                self.stats.victima_inserts += 1;
            }
        }
    }

    /// Resolves an L2 TLB miss: the one backstop chain of every execution
    /// mode (DESIGN.md, "Translation path"). Each step runs only when its
    /// component is configured; the first that yields the translation
    /// ends the chain.
    pub(crate) fn resolve_l2_miss(&mut self, va: VirtAddr) -> MissResolution {
        let ctx = self.epoch.ctx();
        let asid = self.proc.asid;
        let mut latency: Cycles = 0;
        let mut components = [0u64; 4];

        // 1. Hardware L3 TLB (Fig. 8 design point).
        if let Some(l3) = self.l3_tlb.as_mut() {
            latency += l3.latency();
            components[2] += l3.latency();
            for size in PageSize::ALL {
                if let Some(e) = l3.probe(va.vpn(size), asid, size) {
                    self.stats.l3_tlb_hits += 1;
                    return MissResolution { entry: e, latency, components };
                }
            }
        }

        // 2. Fig. 10 ideal backstop: a fixed-latency oracle.
        if let Some(l) = self.ideal_backstop {
            latency += l;
            components[1] += l;
            let entry = self.software_entry(va, None).expect("mapped");
            return MissResolution { entry, latency, components };
        }

        // 3. Victima: probe the L2 cache for a TLB block in parallel with
        // the walk (Figs. 17/19). A tag hit still requires the cluster's
        // PTE to actually map this VA (a 2MB-view block spans 16MB that
        // may also contain 4KB-mapped chunks); on a stale view the
        // parallel PTW simply continues, costing nothing extra. One
        // software lookup validates the view *and* composes the entry (the
        // hardware reads the PTE out of the hit block).
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), va, asid, BlockKind::Tlb, &ctx) {
                if let Some(entry) = self.software_entry(va, Some(hit.size)) {
                    let l2c = self.hier.l2().latency();
                    latency += l2c;
                    components[1] += l2c;
                    self.stats.victima_hits += 1;
                    return MissResolution { entry, latency, components };
                }
            }
        }

        // 4. POM-TLB lookup (two parallel per-size probes through the data
        // hierarchy).
        if let Some(pom) = self.pom.as_mut() {
            let mut hit: Option<TlbEntry> = None;
            let mut pom_lat: Cycles = 0;
            for size in PageSize::ALL {
                let lk = pom.lookup(va.vpn(size), asid, size);
                let r = self.hier.access(lk.line, false, MemClass::PomTlb, &ctx);
                pom_lat = pom_lat.max(r.latency);
                if let Some(frame) = lk.frame {
                    hit = Some(TlbEntry::new(va.vpn(size), asid, size, frame));
                    break;
                }
            }
            latency += pom_lat;
            components[0] += pom_lat;
            if let Some(entry) = hit {
                return MissResolution { entry, latency, components };
            }
        }

        // 5. The demand page-table walk.
        let (walk, entry, host_lat) = self.demand_walk(va);

        // 6. Walk statistics, then the feature tracker.
        self.stats.record_walk(&walk);
        latency += walk.latency + host_lat;
        components[2] += walk.latency;
        components[3] += host_lat;
        if let Some(t) = self.tracker.as_mut() {
            let pwc_hit = walk.served_by_pwc();
            t.on_walk(asid, va, walk.page_size, walk.latency, walk.dram_touched, pwc_hit);
        }

        // 7. Post-walk insertions.
        if let Some(l3) = self.l3_tlb.as_mut() {
            l3.fill(entry);
        }
        if let Some(pom) = self.pom.as_mut() {
            let line = pom.insert(entry.vpn, entry.asid, entry.size, entry.frame);
            self.hier.access(line, true, MemClass::PomTlb, &ctx);
        }
        if let Some(v) = self.victima.as_mut() {
            if v.insert_after_walk(self.hier.l2_mut(), va, asid, BlockKind::Tlb, &walk, &ctx) {
                self.stats.victima_inserts += 1;
            }
        }
        MissResolution { entry, latency, components }
    }

    /// Mode hook (b) of the chain: the demand walk. Returns the walk (in a
    /// guest VM its guest dimension, leaf PTE address host-physical), the
    /// TLB entry it yields, and the host-translation latency on top of
    /// the walk's own.
    fn demand_walk(&mut self, va: VirtAddr) -> (WalkOutcome, TlbEntry, Cycles) {
        match self.cfg.mode {
            ExecMode::VirtualizedNested => self.nested_walk(va, true),
            // I-SP: one four-level walk of the shadow table (gVA → hPA);
            // shadow maintenance is free by definition of the ideal baseline.
            ExecMode::Native | ExecMode::VirtualizedShadow => {
                let ctx = self.epoch.ctx();
                let asid = self.proc.asid;
                let table = self.proc.memory.radix_mut(BlockKind::Tlb);
                let walk = self
                    .walker
                    .walk(table, va, asid, &mut self.hier, &ctx)
                    .unwrap_or_else(|| panic!("page fault at {va}: workload touched an unmapped page"));
                let entry = leaf_entry(va, asid, walk.page_size, walk.frame, walk.leaf_pte);
                (walk, entry, 0)
            }
        }
    }

    /// Mode hook (a) of the chain: the TLB entry for `va`, composed in
    /// software without timing (the ideal backstop, fast-forwarding, and
    /// Victima probe hits, where the hardware reads the PTE straight out
    /// of the hit block). With a `view`, `None` unless the mapping's page
    /// size (the guest page size in a VM) equals it: one lookup serves
    /// both the view validation and the entry composition.
    fn software_entry(&self, va: VirtAddr, view: Option<PageSize>) -> Option<TlbEntry> {
        let asid = self.proc.asid;
        match &self.proc.memory {
            Memory::Native { aspace, .. } => {
                let walk = aspace.page_table.walk(va)?;
                view.is_none_or(|s| s == walk.page_size)
                    .then(|| leaf_entry(va, asid, walk.page_size, walk.frame, walk.leaf_pte))
            }
            // Virtualised TLB blocks store *direct* gVA→hPA mappings
            // (Fig. 19): the entry is the composed translation.
            Memory::Virt { nested } => {
                let (gpa, gsize) = nested.guest.page_table.translate(va)?;
                if view.is_some_and(|s| s != gsize) {
                    return None;
                }
                let (size, frame) = crate::virt::composed_mapping(nested, gpa, gsize);
                Some(TlbEntry::new(va.vpn(size), asid, size, frame))
            }
        }
    }

    /// Finalises aggregate statistics from component counters. Call after
    /// the measured run.
    pub fn finalize_stats(&mut self) {
        self.stats.ptw_latency_hist = self.walker.stats.latency_hist.clone();
        self.stats.ptw_latency_mean = self.walker.stats.mean_latency();
        self.stats.ptw_dram_fraction = if self.walker.stats.walks == 0 {
            0.0
        } else {
            self.walker.stats.dram_walks as f64 / self.walker.stats.walks as f64
        };
        self.stats.l2_data_reuse = self.hier.l2().stats.data_reuse;
        self.stats.l2_tlb_block_reuse = self.hier.l2().stats.tlb_reuse;
        // Eviction-time reuse alone under-counts the *hottest* TLB blocks:
        // they stay resident for the whole (short) measured window and are
        // never evicted, so snapshot the resident population too.
        for b in self.hier.l2().iter_valid() {
            if b.kind.is_translation() {
                self.stats.l2_tlb_block_reuse.record(b.reuse as u64);
            }
        }
        if let Some(p) = &self.pom {
            self.stats.pom_hits = p.stats.hits;
            self.stats.pom_misses = p.stats.misses;
        }
        self.stats.itlb_misses = self.itlb.stats.misses;
        let l3 = self.hier.l3();
        for (i, c) in [self.hier.l1d(), self.hier.l2(), &*l3].into_iter().enumerate() {
            self.stats.cache_hits[i] = c.stats.hits;
            self.stats.cache_misses[i] = c.stats.misses;
            self.stats.prefetch_fills[i] = c.stats.prefetch_fills;
        }
    }

    /// Physical frames in use and still free (host side in virtualised
    /// mode).
    pub(crate) fn frame_usage(&self) -> (u64, u64) {
        match &self.proc.memory {
            Memory::Native { alloc, .. } => {
                let a = alloc.borrow();
                (a.frames_used(), a.frames_left())
            }
            Memory::Virt { nested } => (nested.host_alloc.frames_used(), nested.host_alloc.frames_left()),
        }
    }

    /// OS-initiated TLB shootdown for one page of the *resident* address
    /// space (Sec. 6.2): invalidates the page in every hardware TLB, the
    /// POM-TLB and Victima's TLB blocks.
    pub fn tlb_shootdown(&mut self, va: VirtAddr) {
        self.tlb_shootdown_asid(va, self.proc.asid);
    }

    /// Shootdown for an explicit address space — the inter-core IPI path:
    /// remote cores invalidate a page of a process that is *not* resident
    /// on them (its entries may still be cached under its ASID).
    pub fn tlb_shootdown_asid(&mut self, va: VirtAddr, asid: Asid) {
        for size in PageSize::ALL {
            let vpn = va.vpn(size);
            self.itlb.invalidate(vpn, asid, size);
            self.dtlb4k.invalidate(vpn, asid, size);
            self.dtlb2m.invalidate(vpn, asid, size);
            self.l2_tlb.invalidate(vpn, asid, size);
            if let Some(l3) = self.l3_tlb.as_mut() {
                l3.invalidate(vpn, asid, size);
            }
            if let Some(p) = self.pom.as_mut() {
                p.invalidate(vpn, asid, size);
            }
        }
        if let Some(v) = self.victima.as_mut() {
            v.shootdown(self.hier.l2_mut(), va, asid);
        }
    }

    /// Total invalidations performed by this core's hardware TLBs so far
    /// (shootdown accounting for the multi-core IPI protocol).
    pub fn invalidation_count(&self) -> u64 {
        let mut n = self.itlb.stats.invalidations
            + self.dtlb4k.stats.invalidations
            + self.dtlb2m.stats.invalidations
            + self.l2_tlb.stats.invalidations;
        if let Some(l3) = &self.l3_tlb {
            n += l3.stats.invalidations;
        }
        n
    }

    /// ASID-selective invalidation (Sec. 6.1(ii)): drops every translation
    /// of one address space from the hardware TLBs and Victima's blocks,
    /// leaving other ASIDs' entries warm. Returns the number of hardware
    /// TLB entries dropped. PWCs are not ASID-partitioned in this model,
    /// so they flush entirely.
    pub fn invalidate_asid(&mut self, asid: Asid) -> u64 {
        let mut n = self.itlb.invalidate_asid(asid);
        n += self.dtlb4k.invalidate_asid(asid);
        n += self.dtlb2m.invalidate_asid(asid);
        n += self.l2_tlb.invalidate_asid(asid);
        if let Some(l3) = self.l3_tlb.as_mut() {
            n += l3.invalidate_asid(asid);
        }
        self.walker.pwc.flush();
        if let Some(v) = self.victima.as_mut() {
            v.flush_asid(self.hier.l2_mut(), asid);
        }
        n
    }

    /// Full context-switch flush (Sec. 6.1): drops every translation the
    /// hardware holds for this address space.
    pub fn context_switch_flush(&mut self) {
        self.itlb.invalidate_all();
        self.dtlb4k.invalidate_all();
        self.dtlb2m.invalidate_all();
        self.l2_tlb.invalidate_all();
        if let Some(l3) = self.l3_tlb.as_mut() {
            l3.invalidate_all();
        }
        self.nested_tlb.invalidate_all();
        self.walker.pwc.flush();
        self.host_walker.pwc.flush();
        if let Some(v) = self.victima.as_mut() {
            v.flush_all(self.hier.l2_mut());
        }
    }

    /// Remaps one data page of the resident process to a fresh physical
    /// frame (a migration), as the OS would before issuing a shootdown.
    /// Returns the new ground truth. Native mode only.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped or the system is virtualised.
    pub fn migrate_page(&mut self, va: VirtAddr) -> PhysAddr {
        self.proc.migrate_page(va)
    }
}

/// The TLB entry mapping `va` at `size` to `frame`, carrying the leaf
/// PTE's predictor-counter snapshots.
#[inline]
pub(crate) fn leaf_entry(va: VirtAddr, asid: Asid, size: PageSize, frame: u64, leaf: Pte) -> TlbEntry {
    TlbEntry::with_counters(va.vpn(size), asid, size, frame, leaf.ptw_freq(), leaf.ptw_cost())
}

/// The physical address of `va` under the translation `e`.
#[inline]
pub(crate) fn entry_pa(e: &TlbEntry, va: VirtAddr) -> PhysAddr {
    match e.size {
        PageSize::Size4K => PhysAddr::from_frame(e.frame, PageSize::Size4K, va.page_offset(PageSize::Size4K)),
        PageSize::Size2M => {
            PhysAddr::from_frame(e.frame >> 9, PageSize::Size2M, va.page_offset(PageSize::Size2M))
        }
    }
}
