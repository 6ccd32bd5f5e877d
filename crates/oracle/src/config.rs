//! Microarchitecture configuration: the relaxation knobs of the paper's
//! Table 7 models and the §5 ISA-refinement switches, from which
//! [`crate::build_uarch_ir`] generates the built-in models and
//! [`crate::uarch_check`] evaluates them imperatively.

use std::fmt;

use tricheck_isa::SpecVersion;

/// The store-atomicity class of a model (§2.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StoreAtomicity {
    /// Multi-copy atomic: all cores (including the writer) observe a store
    /// at the same instant. No store-buffer forwarding.
    Mca,
    /// Read-own-write-early MCA: the writer may forward from its private
    /// store buffer, but remote cores agree on visibility.
    RMca,
    /// Non-multi-copy atomic: stores may reach some remote cores before
    /// others (shared store buffers or non-stalling coherence).
    NMca,
}

/// Which earlier events a release operation publishes (§5.2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReleasePredecessors {
    /// `riscv-curr`: only the releasing thread's program-order
    /// predecessors (non-cumulative release).
    ProgramOrder,
    /// `riscv-ours`: everything that happens-before the release, including
    /// writes the releasing core observed (cumulative release).
    HappensBefore,
}

/// The full relaxation/refinement configuration of one microarchitecture
/// model evaluated against one ISA specification version. The 16
/// configurations [`UarchConfig::all_builtin`] lists generate the
/// committed built-in model files; a modified configuration is a knob
/// ablation (see `tests/knob_ablations.rs`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UarchConfig {
    /// Display name, e.g. `"nMM/riscv-curr"`.
    pub name: String,
    /// Relax W→W program order (out-of-order store-buffer drain).
    pub relax_ww: bool,
    /// Relax R→R and R→W program order (out-of-order read commit).
    pub relax_rm: bool,
    /// Store atomicity class.
    pub atomicity: StoreAtomicity,
    /// Enforce same-address load→load program order (§5.1.3; `false` for
    /// `riscv-curr`, `true` for `riscv-ours`).
    pub same_addr_rr_ordered: bool,
    /// Writes of SC-annotated AMOs are globally visible to any reader
    /// (`true` on A9like, whose non-stalling directory protocol completes
    /// AMOs with all invalidations acknowledged; `false` on the
    /// shared-store-buffer models, which only serialize SC AMOs against
    /// each other via the global SC-AMO order).
    pub sc_amo_writes_globally_visible: bool,
    /// What a release publishes (§5.2.1).
    pub release_predecessors: ReleasePredecessors,
    /// `riscv-curr`: a release synchronizes with *any* load that reads it;
    /// `riscv-ours`: only with acquire operations (lazy cumulativity,
    /// §5.2.3). Lazy is weaker, permitting lazy coherence implementations.
    pub release_sync_any_load: bool,
}

impl UarchConfig {
    /// The refinement knobs implied by an ISA specification version.
    fn apply_version(&mut self, version: SpecVersion) {
        match version {
            SpecVersion::Curr => {
                self.same_addr_rr_ordered = false;
                self.release_predecessors = ReleasePredecessors::ProgramOrder;
                self.release_sync_any_load = true;
            }
            SpecVersion::Ours => {
                self.same_addr_rr_ordered = true;
                self.release_predecessors = ReleasePredecessors::HappensBefore;
                self.release_sync_any_load = false;
            }
        }
    }

    fn base(name: &str, relax_ww: bool, relax_rm: bool, atomicity: StoreAtomicity) -> Self {
        UarchConfig {
            name: name.to_string(),
            relax_ww,
            relax_rm,
            atomicity,
            same_addr_rr_ordered: false,
            sc_amo_writes_globally_visible: false,
            release_predecessors: ReleasePredecessors::ProgramOrder,
            release_sync_any_load: true,
        }
    }

    /// Table 7 `WR`: FIFO store buffer, no forwarding.
    #[must_use]
    pub fn wr(version: SpecVersion) -> Self {
        let mut c = Self::base("WR", false, false, StoreAtomicity::Mca);
        c.apply_version(version);
        c.name = format!("WR/{version}");
        c
    }

    /// Table 7 `rWR`: FIFO store buffer with value forwarding.
    #[must_use]
    pub fn rwr(version: SpecVersion) -> Self {
        let mut c = Self::base("rWR", false, false, StoreAtomicity::RMca);
        c.apply_version(version);
        c.name = format!("rWR/{version}");
        c
    }

    /// Table 7 `rWM`: out-of-order store-buffer drain.
    #[must_use]
    pub fn rwm(version: SpecVersion) -> Self {
        let mut c = Self::base("rWM", true, false, StoreAtomicity::RMca);
        c.apply_version(version);
        c.name = format!("rWM/{version}");
        c
    }

    /// Table 7 `rMM`: additionally commits reads out of order.
    #[must_use]
    pub fn rmm(version: SpecVersion) -> Self {
        let mut c = Self::base("rMM", true, true, StoreAtomicity::RMca);
        c.apply_version(version);
        c.name = format!("rMM/{version}");
        c
    }

    /// Table 7 `nWR`: `rWR` with store buffers shared between cores
    /// (non-MCA).
    #[must_use]
    pub fn nwr(version: SpecVersion) -> Self {
        let mut c = Self::base("nWR", false, false, StoreAtomicity::NMca);
        c.apply_version(version);
        c.name = format!("nWR/{version}");
        c
    }

    /// Table 7 `nMM`: `rMM` with shared store buffers (non-MCA).
    #[must_use]
    pub fn nmm(version: SpecVersion) -> Self {
        let mut c = Self::base("nMM", true, true, StoreAtomicity::NMca);
        c.apply_version(version);
        c.name = format!("nMM/{version}");
        c
    }

    /// Table 7 `A9like`: write-back caches with a non-stalling directory
    /// protocol — non-MCA plain stores, but AMO completion is globally
    /// visible (§4.3 point 7).
    #[must_use]
    pub fn a9like(version: SpecVersion) -> Self {
        let mut c = Self::base("A9like", true, true, StoreAtomicity::NMca);
        c.sc_amo_writes_globally_visible = true;
        c.apply_version(version);
        c.name = format!("A9like/{version}");
        c
    }

    /// An ARMv7-A9-like machine for the §7 compiler study: same
    /// relaxations as `A9like`, cumulative `dmb`/`sync` fences (carried by
    /// the fence annotations), and ISA-compliant same-address load→load
    /// ordering.
    #[must_use]
    pub fn armv7_a9like() -> Self {
        let mut c = Self::base("ARMv7-A9like", true, true, StoreAtomicity::NMca);
        c.sc_amo_writes_globally_visible = true;
        c.same_addr_rr_ordered = true;
        c.name = "ARMv7-A9like".to_string();
        c
    }

    /// The ARMv7-A9 with the read-after-read hazard of the paper's §1–§2:
    /// identical to [`UarchConfig::armv7_a9like`] but with same-address
    /// load→load ordering relaxed, reproducing the acknowledged Cortex-A9
    /// bug (ARM reference 761319).
    #[must_use]
    pub fn armv7_a9_ldld_hazard() -> Self {
        let mut c = Self::armv7_a9like();
        c.same_addr_rr_ordered = false;
        c.name = "ARMv7-A9-ldld-hazard".to_string();
        c
    }

    /// The ARMv7 microarchitectures of the §7 compiler study: the
    /// ISA-compliant A9-like machine first, then the load→load-hazard
    /// variant that reproduces the Cortex-A9 erratum.
    #[must_use]
    pub fn all_armv7() -> Vec<Self> {
        vec![Self::armv7_a9like(), Self::armv7_a9_ldld_hazard()]
    }

    /// All seven Table 7 models for one specification version, in the
    /// paper's presentation order.
    #[must_use]
    pub fn all_riscv(version: SpecVersion) -> Vec<Self> {
        vec![
            Self::wr(version),
            Self::rwr(version),
            Self::rwm(version),
            Self::rmm(version),
            Self::nwr(version),
            Self::nmm(version),
            Self::a9like(version),
        ]
    }

    /// The configurations of all 16 built-in models, in the built-in
    /// table's order: Table 7 under riscv-curr, under riscv-ours, then
    /// the ARMv7 machines.
    #[must_use]
    pub fn all_builtin() -> Vec<Self> {
        let mut all = Self::all_riscv(SpecVersion::Curr);
        all.extend(Self::all_riscv(SpecVersion::Ours));
        all.extend(Self::all_armv7());
        all
    }
}

/// The paper's Figure 7, the relaxation matrix of the seven Table 7
/// models, rendered from their knobs: one row per model, an `x` per
/// relaxed ordering and for its store-atomicity class.
#[must_use]
pub fn figure7() -> String {
    use fmt::Write as _;
    let tick = |b: bool| if b { "x" } else { "" };
    let mut out = String::from("== Figure 7: uSpec models (RISC-V-compliant relaxations) ==\n");
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}",
        "model", "W->R", "W->W", "R->M", "MCA", "rMCA", "nMCA"
    );
    for cfg in UarchConfig::all_riscv(SpecVersion::Curr) {
        let name = cfg.name.split('/').next().unwrap_or(&cfg.name);
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6}",
            name,
            "x", // all seven models relax W->R
            tick(cfg.relax_ww),
            tick(cfg.relax_rm),
            tick(cfg.atomicity == StoreAtomicity::Mca),
            tick(cfg.atomicity == StoreAtomicity::RMca),
            tick(cfg.atomicity == StoreAtomicity::NMca),
        );
    }
    out
}

impl fmt::Display for UarchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_relaxation_matrix() {
        use SpecVersion::Curr;
        let rows: Vec<(String, bool, bool, StoreAtomicity)> = UarchConfig::all_riscv(Curr)
            .into_iter()
            .map(|c| (c.name.clone(), c.relax_ww, c.relax_rm, c.atomicity))
            .collect();
        assert_eq!(rows.len(), 7);
        assert_eq!(
            rows[0],
            ("WR/riscv-curr".into(), false, false, StoreAtomicity::Mca)
        );
        assert_eq!(
            rows[1],
            ("rWR/riscv-curr".into(), false, false, StoreAtomicity::RMca)
        );
        assert_eq!(
            rows[2],
            ("rWM/riscv-curr".into(), true, false, StoreAtomicity::RMca)
        );
        assert_eq!(
            rows[3],
            ("rMM/riscv-curr".into(), true, true, StoreAtomicity::RMca)
        );
        assert_eq!(
            rows[4],
            ("nWR/riscv-curr".into(), false, false, StoreAtomicity::NMca)
        );
        assert_eq!(
            rows[5],
            ("nMM/riscv-curr".into(), true, true, StoreAtomicity::NMca)
        );
        assert_eq!(
            rows[6],
            ("A9like/riscv-curr".into(), true, true, StoreAtomicity::NMca)
        );
    }

    #[test]
    fn version_knobs() {
        let curr = UarchConfig::nmm(SpecVersion::Curr);
        assert!(!curr.same_addr_rr_ordered);
        assert!(curr.release_sync_any_load);
        assert_eq!(curr.release_predecessors, ReleasePredecessors::ProgramOrder);

        let ours = UarchConfig::nmm(SpecVersion::Ours);
        assert!(ours.same_addr_rr_ordered);
        assert!(!ours.release_sync_any_load);
        assert_eq!(
            ours.release_predecessors,
            ReleasePredecessors::HappensBefore
        );
    }

    #[test]
    fn a9like_differs_from_nmm_only_in_amo_visibility() {
        let a9 = UarchConfig::a9like(SpecVersion::Curr);
        let nmm = UarchConfig::nmm(SpecVersion::Curr);
        assert!(a9.sc_amo_writes_globally_visible);
        assert!(!nmm.sc_amo_writes_globally_visible);
        assert_eq!(a9.relax_ww, nmm.relax_ww);
        assert_eq!(a9.relax_rm, nmm.relax_rm);
        assert_eq!(a9.atomicity, nmm.atomicity);
    }

    #[test]
    fn hazard_model_relaxes_same_address_reads() {
        assert!(UarchConfig::armv7_a9like().same_addr_rr_ordered);
        assert!(!UarchConfig::armv7_a9_ldld_hazard().same_addr_rr_ordered);
    }
}
