//! Cache replacement policies, statically dispatched.
//!
//! The baseline system uses LRU in the L1s and SRRIP [Jaleel+, ISCA'10] in
//! the L2/L3 (Table 3); Victima's TLB-aware SRRIP variant (Listing 1 of
//! the paper) is the third [`Policy`] variant. Policies are an `enum`
//! rather than a trait object so the per-access hot path pays a jump
//! table, not a vtable load, and so the compiler can inline the match
//! arms into [`crate::Cache`]'s scan loops.
//!
//! Replacement state never lives in fat per-block structs: the 2-bit
//! SRRIP counters are embedded in the packed presence words the lookup
//! already scanned (see [`crate::block`]), and LRU stamps sit in a packed
//! `Vec<u64>`. Victim selection therefore mutates the cache lines the
//! probe just loaded instead of re-walking cold struct fields, and each
//! policy picks its victim in one pass over the set:
//!
//! - The loop stops at the first invalid way, which is the victim. That
//!   exit is the common case while a big cache is still filling (a
//!   Tiny-scale run touches only a fraction of the 2 MB L2's 32K lines),
//!   and it is well predicted.
//! - Otherwise each valid way folds a rank into a running minimum, with
//!   no data-dependent branch: SRRIP and TLB-aware SRRIP rank by RRPV
//!   (highest first; for the TLB-aware retry, data blocks before
//!   translation blocks), LRU by `stamp << 8 | way` as `SetAssocTlb::fill`
//!   does; ties resolve to the lowest way. The SRRIP "age until a victim
//!   appears" loop stays a closed form: one add-pass, only when no way
//!   has reached [`RRIP_MAX`].
//!
//! The ranks carry the way index in their low 8 bits, so `Cache` caps
//! associativity at 256.
//!
//! The dynamic context a policy may consult — whether address-translation
//! pressure is currently high — travels in [`ReplacementCtx`].

use crate::block::{word_is_translation, word_is_valid, word_rrip, word_with_rrip, WORD_RRIP_SHIFT};

/// Maximum re-reference prediction value for 2-bit SRRIP counters.
pub const RRIP_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
pub const RRIP_INSERT: u8 = 2;

/// Dynamic context a policy may consult when inserting / evicting.
///
/// The paper keys the TLB-aware behaviour on "translation pressure", i.e.
/// the L2 TLB MPKI measured over recent execution exceeding 5 (Listing 1),
/// and bypasses the PTW cost predictor when the L2 *cache* MPKI exceeds 5
/// (Fig. 15). Both signals are epoch-sampled by the `sim` crate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplacementCtx {
    /// L2 TLB misses per kilo-instruction over the last epoch.
    pub l2_tlb_mpki: f64,
    /// L2 cache misses per kilo-instruction over the last epoch.
    pub l2_cache_mpki: f64,
}

impl ReplacementCtx {
    /// The paper's pressure threshold (MPKI > 5) for both signals.
    pub const PRESSURE_THRESHOLD: f64 = 5.0;

    /// Whether address translation pressure is high (Listing 1's
    /// `TLB_MPKI > 5`).
    #[inline]
    pub fn tlb_pressure_high(&self) -> bool {
        self.l2_tlb_mpki > Self::PRESSURE_THRESHOLD
    }

    /// Whether data caching is currently unprofitable (Fig. 15's bypass:
    /// L2 cache MPKI > 5 means data exhibits low locality).
    #[inline]
    pub fn cache_pressure_high(&self) -> bool {
        self.l2_cache_mpki > Self::PRESSURE_THRESHOLD
    }
}

/// One set's replacement view: the packed presence words (identity +
/// embedded SRRIP counters) and the packed LRU stamps.
#[derive(Debug)]
pub struct ReplSet<'a> {
    /// Packed presence words, one per way (see [`crate::block`]). Policies
    /// read validity/kind and mutate the embedded RRIP bits; they never
    /// touch the identity bits.
    pub words: &'a mut [u64],
    /// LRU stamps, one per way.
    pub lru: &'a mut [u64],
}

/// A statically dispatched cache replacement policy. One value serves one
/// cache; the only policy-global state is LRU's monotonic tick.
#[derive(Clone, Debug)]
pub enum Policy {
    /// Least-recently-used (the L1 caches).
    Lru {
        /// Monotonic touch tick; the way with the smallest stamp loses.
        tick: u64,
    },
    /// Static re-reference interval prediction (SRRIP-HP) with 2-bit
    /// RRPVs: fills insert at [`RRIP_INSERT`], hits promote by one, and
    /// victim selection searches for [`RRIP_MAX`], aging the set until
    /// one is found.
    Srrip,
    /// Victima's TLB-aware SRRIP (Listing 1). Three deviations from
    /// baseline SRRIP, all gated on high translation pressure:
    /// TLB blocks insert at RRPV 0, a hit on one promotes by 3, and a
    /// TLB-block victim triggers one retry for a non-TLB alternative.
    TlbAwareSrrip,
}

impl Policy {
    /// Creates the LRU policy.
    pub fn lru() -> Self {
        Policy::Lru { tick: 0 }
    }

    /// Creates the SRRIP policy.
    pub fn srrip() -> Self {
        Policy::Srrip
    }

    /// Creates Victima's TLB-aware SRRIP policy.
    pub fn tlb_aware_srrip() -> Self {
        Policy::TlbAwareSrrip
    }

    /// Human-readable policy name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Lru { .. } => "LRU",
            Policy::Srrip => "SRRIP",
            Policy::TlbAwareSrrip => "TLB-aware-SRRIP",
        }
    }

    /// Called after `way` has been (re)filled.
    #[inline]
    pub fn on_fill(&mut self, set: &mut ReplSet<'_>, way: usize, ctx: &ReplacementCtx) {
        match self {
            Policy::Lru { tick } => {
                *tick += 1;
                set.lru[way] = *tick;
            }
            Policy::Srrip => set.words[way] = word_with_rrip(set.words[way], RRIP_INSERT),
            Policy::TlbAwareSrrip => {
                let w = set.words[way];
                let rrip = if word_is_translation(w) && ctx.tlb_pressure_high() { 0 } else { RRIP_INSERT };
                set.words[way] = word_with_rrip(w, rrip);
            }
        }
    }

    /// Called when `way` hits.
    #[inline]
    pub fn on_hit(&mut self, set: &mut ReplSet<'_>, way: usize, ctx: &ReplacementCtx) {
        match self {
            Policy::Lru { tick } => {
                *tick += 1;
                set.lru[way] = *tick;
            }
            Policy::Srrip => {
                let w = set.words[way];
                set.words[way] = word_with_rrip(w, word_rrip(w).saturating_sub(1));
            }
            Policy::TlbAwareSrrip => {
                let w = set.words[way];
                let promote = if word_is_translation(w) && ctx.tlb_pressure_high() { 3 } else { 1 };
                set.words[way] = word_with_rrip(w, word_rrip(w).saturating_sub(promote));
            }
        }
    }

    /// Chooses a victim way. May mutate replacement metadata (the SRRIP
    /// family ages the whole set). Invalid ways are preferred.
    #[inline]
    pub fn choose_victim(&mut self, set: &mut ReplSet<'_>, ctx: &ReplacementCtx) -> usize {
        match self {
            Policy::Lru { .. } => lru_victim(set),
            Policy::Srrip => srrip_victim(set, false),
            // Listing 1 line 23: a TLB-block victim under pressure gets one
            // more attempt at a non-TLB block that has also aged to
            // RRIP_MAX; if none exists, the TLB block is evicted (and
            // dropped, not written back).
            Policy::TlbAwareSrrip => srrip_victim(set, ctx.tlb_pressure_high()),
        }
    }
}

/// LRU victim in one pass: the first invalid way, else the minimum of
/// `stamp << 8 | way` — the smallest stamp, ties to the lowest way.
/// `Cache` bounds sets to 256 ways so the index fits the low byte.
#[inline]
fn lru_victim(set: &ReplSet<'_>) -> usize {
    let mut best = u64::MAX;
    for (way, (&w, &stamp)) in set.words.iter().zip(set.lru.iter()).enumerate() {
        if !word_is_valid(w) {
            return way;
        }
        debug_assert!(stamp < 1 << 56, "LRU stamp overflows the victim fold");
        best = best.min(stamp << 8 | way as u64);
    }
    (best & 0xff) as usize
}

/// SRRIP victim in one pass: the first invalid way, else the first way
/// at the set's RRPV maximum, aging the whole set until that maximum
/// reaches [`RRIP_MAX`]. Valid ways rank as `(RRIP_MAX - rrpv) << 9 |
/// way` and the minimum rank wins: the highest RRPV, then the lowest way.
/// The iterate-and-age loop is a closed form — age everyone by
/// `RRIP_MAX - max` in one add-pass; the first way that *was* at the
/// maximum is exactly the way the stepwise loop would have found.
///
/// With `divert` (TLB-aware SRRIP under translation pressure) bit 8 of a
/// translation block's rank is set, so a *data* way at the maximum beats
/// a translation block there: after aging those are exactly the valid
/// non-TLB ways at `RRIP_MAX`, the alternatives Listing 1's retry
/// searches for.
#[inline]
fn srrip_victim(set: &mut ReplSet<'_>, divert: bool) -> usize {
    let mut best = u64::MAX;
    for (way, &w) in set.words.iter().enumerate() {
        if !word_is_valid(w) {
            return way;
        }
        let tlb = (divert && word_is_translation(w)) as u64;
        best = best.min(((RRIP_MAX - word_rrip(w)) as u64) << 9 | tlb << 8 | way as u64);
    }
    let max = RRIP_MAX - (best >> 9) as u8;
    if max < RRIP_MAX {
        // Every way is valid and at most `max`, so adding the age to the
        // counter field never carries out of it.
        let age = ((RRIP_MAX - max) as u64) << WORD_RRIP_SHIFT;
        for w in set.words.iter_mut() {
            *w += age;
        }
    }
    (best & 0xff) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{pack_word, BlockKind, INVALID_WORD};
    use vm_types::{Asid, PageSize, SplitMix64};

    const PRESSURE: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };
    const CALM: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 0.0, l2_cache_mpki: 0.0 };

    /// The multi-pass victim selection the one-pass scans replaced: a
    /// first-invalid scan, a max scan, a position scan and (TLB-aware
    /// SRRIP) a second-attempt scan. The differential tests below hold the
    /// one-pass code to it.
    fn reference_victim(policy: &Policy, set: &mut ReplSet<'_>, ctx: &ReplacementCtx) -> usize {
        fn scan(set: &mut ReplSet<'_>) -> usize {
            if let Some(way) = set.words.iter().position(|&w| !word_is_valid(w)) {
                return way;
            }
            let max = set.words.iter().map(|&w| word_rrip(w)).max().expect("cache sets are never empty");
            let victim = set.words.iter().position(|&w| word_rrip(w) >= max).expect("max exists");
            if max < RRIP_MAX {
                let age = RRIP_MAX - max;
                for w in set.words.iter_mut() {
                    *w = word_with_rrip(*w, word_rrip(*w) + age);
                }
            }
            victim
        }
        match policy {
            Policy::Lru { .. } => {
                if let Some(way) = set.words.iter().position(|&w| !word_is_valid(w)) {
                    return way;
                }
                let mut best = 0;
                for (way, &stamp) in set.lru.iter().enumerate() {
                    if stamp < set.lru[best] {
                        best = way;
                    }
                }
                best
            }
            Policy::Srrip => scan(set),
            Policy::TlbAwareSrrip => {
                let way = scan(set);
                if word_is_translation(set.words[way]) && ctx.tlb_pressure_high() {
                    let alt = set.words.iter().position(|&w| {
                        word_is_valid(w) && !word_is_translation(w) && word_rrip(w) >= RRIP_MAX
                    });
                    if let Some(alt) = alt {
                        return alt;
                    }
                }
                way
            }
        }
    }

    /// A random set: each way invalid with probability `p_invalid`, else a
    /// data / TLB / nested-TLB block with a random RRPV; LRU stamps drawn
    /// from a narrow range so equal stamps are common, and invalid ways
    /// keep stale nonzero stamps (as `Cache::invalidate_data` leaves them).
    fn random_set(rng: &mut SplitMix64, ways: usize, p_invalid: f64) -> TestSet {
        let kinds = [BlockKind::Data, BlockKind::Tlb, BlockKind::NestedTlb];
        let mut set = TestSet::new(&vec![BlockKind::Data; ways]);
        for way in 0..ways {
            let kind = kinds[rng.next_below(3) as usize];
            let word = pack_word(rng.next_below(1 << 20), kind, Asid::new(1), PageSize::Size4K);
            set.words[way] = if rng.chance(p_invalid) {
                INVALID_WORD
            } else {
                word_with_rrip(word, rng.next_below(4) as u8)
            };
            set.lru[way] = rng.next_below(8);
        }
        set
    }

    /// Drives `policy` and the reference through the same random sets:
    /// victims and every post-selection word (aging included) must agree.
    fn differential(policy: Policy, ctx: &ReplacementCtx, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..20_000 {
            let ways = [1, 2, 4, 8, 12, 16, 256][rng.next_below(7) as usize];
            let p_invalid = [0.0, 0.05, 0.5][rng.next_below(3) as usize];
            let mut a = random_set(&mut rng, ways, p_invalid);
            let mut b = TestSet { words: a.words.clone(), lru: a.lru.clone() };
            let got = policy.clone().choose_victim(&mut a.view(), ctx);
            let want = reference_victim(&policy, &mut b.view(), ctx);
            assert_eq!(got, want, "{} case {case}: victim diverged", policy.name());
            assert_eq!(a.words, b.words, "{} case {case}: aging diverged", policy.name());
        }
    }

    #[test]
    fn one_pass_srrip_matches_reference() {
        differential(Policy::srrip(), &CALM, 0x5121);
    }

    #[test]
    fn one_pass_tlb_aware_srrip_matches_reference_at_both_pressures() {
        differential(Policy::tlb_aware_srrip(), &CALM, 0x7a1);
        differential(Policy::tlb_aware_srrip(), &PRESSURE, 0x7a2);
    }

    #[test]
    fn lru_fold_matches_reference() {
        differential(Policy::lru(), &CALM, 0x11);
    }

    /// A free-standing set for driving policies directly in tests.
    struct TestSet {
        words: Vec<u64>,
        lru: Vec<u64>,
    }

    impl TestSet {
        fn new(kinds: &[BlockKind]) -> Self {
            Self {
                words: kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| pack_word(i as u64, k, Asid::new(1), PageSize::Size4K))
                    .collect(),
                lru: vec![0; kinds.len()],
            }
        }

        fn view(&mut self) -> ReplSet<'_> {
            ReplSet { words: &mut self.words, lru: &mut self.lru }
        }

        fn rrip(&self, way: usize) -> u8 {
            word_rrip(self.words[way])
        }

        fn set_rrip(&mut self, way: usize, r: u8) {
            self.words[way] = word_with_rrip(self.words[way], r);
        }
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut lru = Policy::lru();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        set.words[2] = INVALID_WORD;
        assert_eq!(lru.choose_victim(&mut set.view(), &CALM), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Policy::lru();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        for way in [0, 1, 2, 3, 0, 1, 3] {
            lru.on_hit(&mut set.view(), way, &CALM);
        }
        // Way 2 was touched least recently.
        assert_eq!(lru.choose_victim(&mut set.view(), &CALM), 2);
    }

    #[test]
    fn srrip_inserts_long_and_promotes_on_hit() {
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 2]);
        p.on_fill(&mut set.view(), 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT);
        p.on_hit(&mut set.view(), 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT - 1);
    }

    #[test]
    fn srrip_ages_until_victim_found() {
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        set.set_rrip(1, 2);
        let victim = p.choose_victim(&mut set.view(), &CALM);
        assert_eq!(victim, 1, "the block closest to RRIP_MAX is aged there first");
        // Everyone has been aged by the same amount.
        assert!((0..4).all(|w| set.rrip(w) >= 1));
    }

    #[test]
    fn closed_form_aging_matches_stepwise_semantics() {
        // rrip = [1, 0, 2, 1]: the stepwise loop ages once (→ [2,1,3,2])
        // then picks way 2; everyone's counter must read exactly that.
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        for (way, r) in [1u8, 0, 2, 1].into_iter().enumerate() {
            set.set_rrip(way, r);
        }
        assert_eq!(p.choose_victim(&mut set.view(), &CALM), 2);
        assert_eq!((0..4).map(|w| set.rrip(w)).collect::<Vec<_>>(), vec![2, 1, 3, 2]);
        // A way already at RRIP_MAX means no aging at all.
        let mut set = TestSet::new(&[BlockKind::Data; 3]);
        for (way, r) in [0u8, 3, 3].into_iter().enumerate() {
            set.set_rrip(way, r);
        }
        assert_eq!(p.choose_victim(&mut set.view(), &CALM), 1, "first way at the max wins");
        assert_eq!(set.rrip(0), 0, "no aging when a victim already exists");
    }

    #[test]
    fn tlb_fill_under_pressure_gets_rrpv_zero() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, 3);
        set.set_rrip(1, 3);
        p.on_fill(&mut set.view(), 0, &PRESSURE);
        p.on_fill(&mut set.view(), 1, &PRESSURE);
        assert_eq!(set.rrip(0), 0);
        assert_eq!(set.rrip(1), RRIP_INSERT);
    }

    #[test]
    fn tlb_fill_without_pressure_is_ordinary() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb]);
        p.on_fill(&mut set.view(), 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT);
    }

    #[test]
    fn tlb_hit_promotes_by_three() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, 3);
        set.set_rrip(1, 3);
        p.on_hit(&mut set.view(), 0, &PRESSURE);
        p.on_hit(&mut set.view(), 1, &PRESSURE);
        assert_eq!(set.rrip(0), 0, "TLB promotion is -3");
        assert_eq!(set.rrip(1), 2, "data promotion is -1");
    }

    #[test]
    fn victim_diverts_away_from_tlb_blocks_under_pressure() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, RRIP_MAX);
        // The scan finds way 0 (the TLB block) first; the second attempt
        // must divert to the data block.
        assert_eq!(p.choose_victim(&mut set.view(), &PRESSURE), 1);
        // Without pressure the TLB block is fair game.
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, RRIP_MAX);
        assert_eq!(p.choose_victim(&mut set.view(), &CALM), 0);
    }

    #[test]
    fn tlb_block_still_evictable_when_no_alternative() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Tlb]);
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, 1);
        assert_eq!(p.choose_victim(&mut set.view(), &PRESSURE), 0, "all-TLB set must still yield a victim");
    }

    #[test]
    fn nested_tlb_blocks_get_the_same_treatment() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::NestedTlb]);
        set.set_rrip(0, 3);
        p.on_fill(&mut set.view(), 0, &PRESSURE);
        assert_eq!(set.rrip(0), 0);
    }

    #[test]
    fn invalid_ways_win_immediately() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Data, BlockKind::Data]);
        set.words[1] = INVALID_WORD;
        assert_eq!(p.choose_victim(&mut set.view(), &PRESSURE), 1);
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::lru().name(), "LRU");
        assert_eq!(Policy::srrip().name(), "SRRIP");
        assert_eq!(Policy::tlb_aware_srrip().name(), "TLB-aware-SRRIP");
    }

    #[test]
    fn ctx_thresholds_follow_paper() {
        let ctx = ReplacementCtx { l2_tlb_mpki: 5.1, l2_cache_mpki: 4.9 };
        assert!(ctx.tlb_pressure_high());
        assert!(!ctx.cache_pressure_high());
        let ctx = ReplacementCtx { l2_tlb_mpki: 5.0, l2_cache_mpki: 5.0 };
        assert!(!ctx.tlb_pressure_high(), "threshold is strictly greater-than");
    }
}
