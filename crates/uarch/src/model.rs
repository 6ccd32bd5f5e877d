//! The microarchitecture model type and the table of built-in models,
//! which are the committed model files under `models/`, compiled in.
//!
//! # The `prop` construction for non-MCA models
//!
//! Multi-copy-atomic models get the strong propagation relation
//! `ppo ∪ fences ∪ rf(e) ∪ fr` (every ordering a store-atomic machine
//! enforces is globally agreed). Non-MCA models build `prop` from four
//! ingredients, mirroring how real weakly-ordered machines (and the
//! paper's shared-buffer/non-stalling-coherence µspec models) create
//! global ordering:
//!
//! 1. **Non-cumulative fences** split by the kind of ordering they give:
//!    *drain* edges (ending at a read of the fencing thread) force the
//!    predecessors globally and accept an `fre` prefix (a remote read
//!    missing a drained write precedes its drain point) — this forbids
//!    SB through `fence rw,rw` without smuggling in any cumulativity;
//!    *per-observer* edges (ending at a write) relay through exactly one
//!    reads-from hop and then only the observer's local order (WRC/IRIW
//!    stay observable — the 2016 RISC-V bugs).
//! 2. **Cumulative fences** follow the Herding-Cats Power construction:
//!    `prop_base = (Fc ∪ rfe;Fc) ; hb*`,
//!    `prop_cum = (prop_base ∩ WW) ∪ (com* ; prop_base* ; Fheavy ; hb*)`.
//! 3. **Release synchronization** (AMO `rl`): when an eligible load reads
//!    a release write, the release's predecessor set becomes visible to
//!    the loading core: edges `pred(w_rel) × {r}`. The ISA version picks
//!    the predecessor set (program order vs happens-before, §5.2.1) and
//!    the eligible readers (any load vs acquires only, §5.2.3).
//! 4. **SC-AMO visibility**: on A9like, `rfe` edges out of SC-AMO writes
//!    are globally agreed (the coherence protocol completed the AMO).
//!
//! `models/riscv-curr/nMM.cat` spells the construction out as the
//! definitions `cum`, `sync`, `scvis`, `drain`, `per-observer`,
//! `strong`, `relayed` and `fre-drain`.

use std::sync::{LazyLock, OnceLock};

use tricheck_isa::{HwAnnot, SpecVersion};
use tricheck_litmus::{ConsistencyModel, Execution};
use tricheck_rel::{parse_model, CompiledModel, ModelIr, Relation};

use crate::ir::{hw_vocabulary, HwBinding};

/// A microarchitecture memory model: a declarative [`ModelIr`] judged
/// over hardware-level candidate executions by one evaluator, its
/// compiled kernel ([`UarchModel::compiled`]).
///
/// Every model is text. The built-ins ([`UarchModel::builtin`] and the
/// named constructors) are the committed model files under `models/`;
/// a user's model file is parsed against [`hw_vocabulary`] and wrapped
/// by [`UarchModel::from_ir`] the same way.
#[derive(Clone, Debug)]
pub struct UarchModel {
    ir: ModelIr,
    compiled: OnceLock<CompiledModel>,
}

/// The [`HwBinding`] bases that depend only on the program, not on the
/// candidate `rf`/`co` — hoisted into the compiled kernel's prelude.
/// `po-loc`/`same-loc` stay candidate-dependent: locations resolve per
/// candidate for dynamic-address programs.
const HW_INVARIANT_BASES: &[&str] = &[
    "po",
    "addr",
    "data",
    "rmw",
    "fence-noncum",
    "fence-cum",
    "fence-heavy",
    "R",
    "W",
    "F",
    "M",
    "init",
    "amo-aq",
    "amo-rl",
    "amo-sc",
];

/// The built-in models' files, in presentation order: Table 7's seven
/// µarchs under riscv-curr, the same seven under riscv-ours, then the
/// two ARMv7 machines of the §7 compiler study.
const BUILTIN_FILES: [&str; 16] = [
    include_str!("../../../models/riscv-curr/WR.cat"),
    include_str!("../../../models/riscv-curr/rWR.cat"),
    include_str!("../../../models/riscv-curr/rWM.cat"),
    include_str!("../../../models/riscv-curr/rMM.cat"),
    include_str!("../../../models/riscv-curr/nWR.cat"),
    include_str!("../../../models/riscv-curr/nMM.cat"),
    include_str!("../../../models/riscv-curr/A9like.cat"),
    include_str!("../../../models/riscv-ours/WR.cat"),
    include_str!("../../../models/riscv-ours/rWR.cat"),
    include_str!("../../../models/riscv-ours/rWM.cat"),
    include_str!("../../../models/riscv-ours/rMM.cat"),
    include_str!("../../../models/riscv-ours/nWR.cat"),
    include_str!("../../../models/riscv-ours/nMM.cat"),
    include_str!("../../../models/riscv-ours/A9like.cat"),
    include_str!("../../../models/armv7/A9like.cat"),
    include_str!("../../../models/armv7/A9-ldld-hazard.cat"),
];

/// The built-in models, parsed once per process; every lookup hands
/// out a clone.
static BUILTINS: LazyLock<Vec<ModelIr>> = LazyLock::new(|| {
    let vocab = hw_vocabulary();
    BUILTIN_FILES
        .iter()
        .map(|src| parse_model(src, &vocab).expect("a committed model file parses"))
        .collect()
});

fn builtins_where(keep: impl Fn(&str) -> bool) -> Vec<UarchModel> {
    BUILTINS
        .iter()
        .filter(|ir| keep(ir.name()))
        .map(|ir| UarchModel::from_ir(ir.clone()))
        .collect()
}

impl UarchModel {
    /// Wraps a model: the IR is the whole model.
    #[must_use]
    pub fn from_ir(ir: ModelIr) -> Self {
        UarchModel {
            ir,
            compiled: OnceLock::new(),
        }
    }

    /// The built-in model named `name` (`"nMM/riscv-curr"`,
    /// `"ARMv7-A9like"`, …; ASCII case-insensitive), or `None`.
    #[must_use]
    pub fn builtin(name: &str) -> Option<Self> {
        BUILTINS
            .iter()
            .find(|ir| ir.name().eq_ignore_ascii_case(name))
            .map(|ir| Self::from_ir(ir.clone()))
    }

    /// Every built-in model's name, in presentation order.
    #[must_use]
    pub fn builtin_names() -> Vec<&'static str> {
        BUILTINS.iter().map(ModelIr::name).collect()
    }

    fn table7(model: &str, version: SpecVersion) -> Self {
        Self::builtin(&format!("{model}/{version}")).expect("every Table 7 model is built in")
    }

    /// Table 7 `WR` under the given spec version
    /// (`models/<version>/WR.cat`).
    #[must_use]
    pub fn wr(version: SpecVersion) -> Self {
        Self::table7("WR", version)
    }

    /// Table 7 `rWR`.
    #[must_use]
    pub fn rwr(version: SpecVersion) -> Self {
        Self::table7("rWR", version)
    }

    /// Table 7 `rWM`.
    #[must_use]
    pub fn rwm(version: SpecVersion) -> Self {
        Self::table7("rWM", version)
    }

    /// Table 7 `rMM`.
    #[must_use]
    pub fn rmm(version: SpecVersion) -> Self {
        Self::table7("rMM", version)
    }

    /// Table 7 `nWR`.
    #[must_use]
    pub fn nwr(version: SpecVersion) -> Self {
        Self::table7("nWR", version)
    }

    /// Table 7 `nMM`.
    #[must_use]
    pub fn nmm(version: SpecVersion) -> Self {
        Self::table7("nMM", version)
    }

    /// Table 7 `A9like`.
    #[must_use]
    pub fn a9like(version: SpecVersion) -> Self {
        Self::table7("A9like", version)
    }

    /// The ARMv7 model for the §7 compiler study
    /// (`models/armv7/A9like.cat`).
    #[must_use]
    pub fn armv7_a9like() -> Self {
        Self::builtin("ARMv7-A9like").expect("built in")
    }

    /// The ARMv7-A9 with the §1/§2 read-after-read hazard
    /// (`models/armv7/A9-ldld-hazard.cat`).
    #[must_use]
    pub fn armv7_a9_ldld_hazard() -> Self {
        Self::builtin("ARMv7-A9-ldld-hazard").expect("built in")
    }

    /// All seven Table 7 models for one spec version, in the paper's
    /// presentation order.
    #[must_use]
    pub fn all_riscv(version: SpecVersion) -> Vec<Self> {
        let suffix = format!("/{version}");
        builtins_where(|name| name.ends_with(&suffix))
    }

    /// The ARMv7 models of the §7 compiler study: the compliant
    /// Cortex-A9-like machine and its read-after-read-hazard variant
    /// (the §1–§2 erratum).
    #[must_use]
    pub fn all_armv7() -> Vec<Self> {
        builtins_where(|name| name.starts_with("ARMv7-"))
    }

    /// The model's declarative IR.
    #[must_use]
    pub fn ir(&self) -> &ModelIr {
        &self.ir
    }

    /// The model's IR lowered to a fused bitset kernel — compiled once
    /// per model instance on first use. Program-only bases (`po`,
    /// dependencies, fence edge sets, annotation and event-kind sets)
    /// are hoisted into the kernel's prelude, evaluated once per stream
    /// of one program's candidates instead of once per candidate.
    #[must_use]
    pub fn compiled(&self) -> &CompiledModel {
        self.compiled
            .get_or_init(|| CompiledModel::compile(&self.ir, HW_INVARIANT_BASES))
    }

    /// One kernel judging every model in `models` at once
    /// ([`CompiledModel::fuse`], with the same hoisted bases as
    /// [`UarchModel::compiled`]): bit `j` of a
    /// [`Judge::check_mask`](tricheck_rel::Judge::check_mask) verdict is
    /// `models[j]`'s.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or holds more than 64 models.
    #[must_use]
    pub fn fuse(models: &[&UarchModel]) -> CompiledModel {
        let irs: Vec<&ModelIr> = models.iter().map(|m| &m.ir).collect();
        CompiledModel::fuse(&irs, HW_INVARIANT_BASES)
    }

    /// The model's display name (the model file's `model` line).
    #[must_use]
    pub fn name(&self) -> &str {
        self.ir.name()
    }
}

/// A µarch model judges through its compiled kernel
/// ([`UarchModel::compiled`]), which `tests/model_properties.rs` pins
/// against the test-only oracles on every candidate execution of random
/// suite subsets. [`ConsistencyModel::observes`] is the Step 3 verdict.
impl ConsistencyModel for UarchModel {
    type Ann = HwAnnot;
    type Binding<'e> = HwBinding<'e>;

    fn model_name(&self) -> &str {
        self.name()
    }

    fn kernel(&self) -> &CompiledModel {
        self.compiled()
    }

    fn bind(exec: &Execution<HwAnnot>, fr: Option<Relation>) -> HwBinding<'_> {
        match fr {
            Some(fr) => HwBinding::with_fr(exec, fr),
            None => HwBinding::new(exec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_compiler::{compile, power_mapping, riscv_mapping, Mapping, PowerSyncStyle};
    use tricheck_isa::RiscvIsa::{Base, BaseA};
    use tricheck_isa::SpecVersion::{Curr, Ours};
    use tricheck_litmus::{suite, LitmusTest, MemOrder};

    fn observes(test: &LitmusTest, mapping: &dyn Mapping, model: &UarchModel) -> bool {
        let compiled = compile(test, mapping).expect("compiles");
        model.observes(compiled.program(), compiled.target())
    }

    fn base_curr(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(Base, Curr), model)
    }

    fn base_ours(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(Base, Ours), model)
    }

    fn basea_curr(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(BaseA, Curr), model)
    }

    fn basea_ours(test: &LitmusTest, model: &UarchModel) -> bool {
        observes(test, riscv_mapping(BaseA, Ours), model)
    }

    #[test]
    fn builtin_table_holds_the_sixteen_models_in_presentation_order() {
        let names = |models: Vec<UarchModel>| -> Vec<String> {
            models.iter().map(|m| m.name().to_string()).collect()
        };
        for version in [Curr, Ours] {
            let expected: Vec<String> = ["WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like"]
                .iter()
                .map(|m| format!("{m}/{version}"))
                .collect();
            assert_eq!(names(UarchModel::all_riscv(version)), expected);
        }
        assert_eq!(
            names(UarchModel::all_armv7()),
            ["ARMv7-A9like", "ARMv7-A9-ldld-hazard"]
        );
        assert_eq!(BUILTINS.len(), 16);
        let nmm = UarchModel::builtin("NMM/RISCV-CURR").expect("case-insensitive lookup");
        assert_eq!(nmm.ir(), UarchModel::nmm(Curr).ir());
        assert!(UarchModel::builtin("nMM").is_none());
    }

    // ---- §5.1.1: lack of cumulative lightweight fences (WRC) ----

    #[test]
    fn wrc_fig3_observable_on_nmca_models_under_current_base_isa() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                base_curr(&t, &model),
                "{} must exhibit the WRC bug",
                model.name()
            );
        }
    }

    #[test]
    fn wrc_fig3_unobservable_on_store_atomic_models() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::wr(Curr),
            UarchModel::rwr(Curr),
            UarchModel::rwm(Curr),
            UarchModel::rmm(Curr),
        ] {
            assert!(!base_curr(&t, &model), "{} must forbid WRC", model.name());
        }
    }

    #[test]
    fn wrc_fig3_fixed_by_cumulative_lightweight_fences() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid WRC after the fix",
                model.name()
            );
        }
    }

    // ---- §5.1.2: lack of cumulative heavyweight fences (IRIW) ----

    #[test]
    fn iriw_sc_observable_on_nmca_models_under_current_base_isa() {
        let t = suite::fig4_iriw_sc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                base_curr(&t, &model),
                "{} must exhibit the IRIW bug",
                model.name()
            );
        }
    }

    #[test]
    fn iriw_sc_fixed_by_cumulative_heavyweight_fences() {
        let t = suite::fig4_iriw_sc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid IRIW after the fix",
                model.name()
            );
        }
    }

    #[test]
    fn iriw_lightweight_fences_insufficient() {
        // §5.1.2: cumulative *lightweight* fences between the load pairs do
        // not forbid IRIW — heavyweight cumulativity is required.
        use tricheck_isa::build::{lw, lwf, sw};
        use tricheck_litmus::{Loc, Program, Reg};
        let x = Loc(1);
        let y = Loc(2);
        let prog = Program::new(
            vec![
                vec![sw(x, 1)],
                vec![sw(y, 1)],
                vec![lw(Reg(0), x), lwf(), lw(Reg(1), y)],
                vec![lw(Reg(2), y), lwf(), lw(Reg(3), x)],
            ],
            [],
        )
        .unwrap();
        let target = suite::fig4_iriw_sc().target().clone();
        assert!(UarchModel::nmm(Ours).observes(&prog, &target));
    }

    // ---- §5.1.3: same-address load→load reordering (CoRR) ----

    #[test]
    fn corr_observable_on_read_reordering_models_under_curr() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::rmm(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(base_curr(&t, &model), "{} must exhibit CoRR", model.name());
        }
    }

    #[test]
    fn corr_unobservable_on_models_preserving_read_order() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::wr(Curr),
            UarchModel::rwr(Curr),
            UarchModel::rwm(Curr),
            UarchModel::nwr(Curr),
        ] {
            assert!(!base_curr(&t, &model), "{} must forbid CoRR", model.name());
        }
    }

    #[test]
    fn corr_fixed_by_same_address_ordering_requirement() {
        let t = suite::corr([MemOrder::Rlx; 4]);
        for model in [
            UarchModel::rmm(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !base_ours(&t, &model),
                "{} must forbid CoRR after the fix",
                model.name()
            );
        }
    }

    // ---- §5.2.1: non-cumulative releases (Base+A WRC) ----

    #[test]
    fn wrc_base_a_observable_under_current_amo_releases() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                basea_curr(&t, &model),
                "{} must exhibit the Base+A WRC bug",
                model.name()
            );
        }
    }

    #[test]
    fn wrc_base_a_aq_rl_release_does_not_help() {
        // §5.2.1: mapping the release to AMO.aq.rl (store atomic, acquire
        // AND release) still fails on shared-buffer models, because the
        // release is not cumulative.
        use tricheck_isa::build::{amo_load, amo_store, lw, sw};
        use tricheck_isa::AmoBits;
        use tricheck_litmus::{Loc, Program, Reg};
        let (x, y) = (Loc(1), Loc(2));
        let prog = Program::new(
            vec![
                vec![sw(x, 1)],
                vec![lw(Reg(0), x), amo_store(Reg(10), y, 1, AmoBits::AQ_RL)],
                vec![amo_load(Reg(1), y, AmoBits::AQ), lw(Reg(2), x)],
            ],
            [],
        )
        .unwrap();
        let target = suite::fig3_wrc().target().clone();
        assert!(UarchModel::nmm(Curr).observes(&prog, &target));
        // With cumulative releases (riscv-ours semantics) it is forbidden.
        assert!(!UarchModel::nmm(Ours).observes(&prog, &target));
    }

    #[test]
    fn wrc_base_a_fixed_by_cumulative_releases() {
        let t = suite::fig3_wrc();
        for model in [
            UarchModel::nwr(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} must forbid WRC after the fix",
                model.name()
            );
        }
    }

    // ---- §5.2.2: roach-motel movement for SC atomics ----

    #[test]
    fn roach_motel_forbidden_by_current_aq_rl_mapping() {
        // C11 allows the Figure 11 outcome, but AMO.aq.rl SC stores
        // over-order: Overly Strict on every model.
        let t = suite::fig11_mp_roach_motel();
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !basea_curr(&t, &model),
                "{} must (over-)forbid Figure 11",
                model.name()
            );
        }
    }

    #[test]
    fn roach_motel_allowed_after_sc_bit_decoupling() {
        // The refined AMO.rl.sc mapping lets the relaxed store sink below
        // the SC store on models that relax W→W.
        let t = suite::fig11_mp_roach_motel();
        for model in [
            UarchModel::rwm(Ours),
            UarchModel::rmm(Ours),
            UarchModel::nmm(Ours),
            UarchModel::a9like(Ours),
        ] {
            assert!(
                basea_ours(&t, &model),
                "{} must allow Figure 11",
                model.name()
            );
        }
        // Models that keep W→W order still cannot exhibit it (§6.1:
        // Overly Strict bars that "stay the same"). This includes the
        // shared store buffer: its FIFO drains the SC store first, and a
        // buffer-sharing reader would see both writes.
        for model in [
            UarchModel::wr(Ours),
            UarchModel::rwr(Ours),
            UarchModel::nwr(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} cannot exploit roach-motel",
                model.name()
            );
        }
    }

    // ---- §5.2.3: lazy cumulativity ----

    #[test]
    fn lazy_cumulativity_fig13_forbidden_under_current_any_load_sync() {
        let t = suite::fig13_mp_lazy();
        for model in [
            UarchModel::nwr(Curr),
            UarchModel::nmm(Curr),
            UarchModel::a9like(Curr),
        ] {
            assert!(
                !basea_curr(&t, &model),
                "{} must (over-)forbid Figure 13",
                model.name()
            );
        }
    }

    #[test]
    fn lazy_cumulativity_fig13_allowed_under_acquire_only_sync() {
        let t = suite::fig13_mp_lazy();
        for model in [UarchModel::nmm(Ours), UarchModel::a9like(Ours)] {
            assert!(
                basea_ours(&t, &model),
                "{} must allow Figure 13",
                model.name()
            );
        }
    }

    #[test]
    fn lazy_cumulativity_is_invisible_on_stronger_models() {
        // On (r)MCA machines the Figure 13 outcome stays forbidden either
        // way: the dependency-ordered load chain is globally ordered. The
        // shared FIFO buffer (nWR) likewise drains the two releases in
        // order, so its readers cannot miss the first one.
        let t = suite::fig13_mp_lazy();
        for model in [
            UarchModel::wr(Ours),
            UarchModel::rwr(Ours),
            UarchModel::nwr(Ours),
        ] {
            assert!(
                !basea_ours(&t, &model),
                "{} must forbid Figure 13",
                model.name()
            );
        }
    }

    // ---- Base sanity: SB and MP behave like the paper's models ----

    #[test]
    fn sb_all_sc_forbidden_even_without_cumulativity() {
        // fence rw,rw gives W→R ordering without cumulativity.
        let t = suite::sb([MemOrder::Sc; 4]);
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !base_curr(&t, &model),
                "{} must forbid SB+fences",
                model.name()
            );
        }
    }

    #[test]
    fn sb_relaxed_observable_everywhere() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        for version in [Curr, Ours] {
            for model in UarchModel::all_riscv(version) {
                assert!(
                    base_curr(&t, &model),
                    "{} must allow relaxed SB",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn mp_release_acquire_never_buggy_on_riscv_models() {
        let t = suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]);
        for model in UarchModel::all_riscv(Curr) {
            assert!(
                !base_curr(&t, &model),
                "{} must forbid MP rel/acq (Base)",
                model.name()
            );
            assert!(
                !basea_curr(&t, &model),
                "{} must forbid MP rel/acq (Base+A)",
                model.name()
            );
        }
    }

    #[test]
    fn mp_relaxed_observable_on_weak_models_only() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        assert!(!base_curr(&t, &UarchModel::wr(Curr)));
        assert!(!base_curr(&t, &UarchModel::rwr(Curr)));
        assert!(base_curr(&t, &UarchModel::rwm(Curr)));
        assert!(base_curr(&t, &UarchModel::nmm(Curr)));
    }

    // ---- §4.3 point 7 / §6.1: A9like vs nMM on Base+A WRC ----

    #[test]
    fn a9like_amo_visibility_prevents_sc_publisher_wrc() {
        // WRC variant: SC store on T0, rel/acq chain. On A9like the SC
        // AMO's write is globally visible when T1 reads it, so the chain
        // is forbidden; the shared-buffer nMM still exhibits it.
        use MemOrder::{Acq, Rel, Rlx, Sc};
        let t = suite::wrc([Sc, Rlx, Rel, Acq, Rlx]);
        assert!(!basea_curr(&t, &UarchModel::a9like(Curr)));
        assert!(basea_curr(&t, &UarchModel::nmm(Curr)));
    }

    // ---- ARMv7: §1–§2 load→load hazard ----

    #[test]
    fn arm_ldld_hazard_reproduces_figure_1() {
        // Relaxed atomics compile to plain loads; the A9 hazard lets two
        // same-address loads reorder, exposing a C11-forbidden outcome.
        let t = suite::corr([MemOrder::Rlx; 4]);
        assert!(observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9_ldld_hazard()
        ));
        assert!(!observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9like()
        ));
    }

    #[test]
    fn arm_iriw_sc_forbidden_with_cumulative_fences() {
        let t = suite::fig4_iriw_sc();
        assert!(!observes(
            &t,
            power_mapping(PowerSyncStyle::Leading),
            &UarchModel::armv7_a9like()
        ));
    }

    #[test]
    fn base_a_intuitive_and_model_versions_are_exercised() {
        // Guard: the Base+A intuitive mapping really produces AMOs (the
        // model distinctions above depend on it).
        let compiled = compile(&suite::fig3_wrc(), riscv_mapping(BaseA, Curr)).unwrap();
        let has_amo = compiled
            .program()
            .threads()
            .iter()
            .flatten()
            .any(|i| matches!(i, tricheck_litmus::Instr::Rmw { .. }));
        assert!(has_amo);
    }
}
