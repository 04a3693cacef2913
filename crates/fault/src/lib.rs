//! Deterministic, seed-addressable fault injection.
//!
//! The paper's evidence rests on 1000-run Monte Carlo ensembles and
//! full `VDDI × VDDO` sweeps where a single non-convergent trial can
//! silently poison a table or abort a shard. The failure paths that
//! protect against that — homotopy escalation, pivot-health fallback,
//! LTE step rejection, bypass-confirm iterations, retry ladders — are
//! exactly the paths ordinary workloads almost never exercise. This
//! crate makes them drivable on demand:
//!
//! * a [`FaultPlan`] is plain data describing *which* hooks fire and
//!   *for which trials* (a seed predicate `seed % every == offset`,
//!   matching the workspace's `derive_seed` addressing), parseable
//!   from a compact CLI string;
//! * a [`FaultSession`] is the per-analysis mutable charge counter the
//!   engine consumes: every compiled-in hook asks the session whether
//!   to fire, so with an empty plan the hooks cost one branch and the
//!   simulator is bit-identical to a build without them.
//!
//! Injection is **deterministic by construction**: a session's charges
//! depend only on the (already seed-armed) plan, never on wall time,
//! thread schedule or iteration interleaving. Replaying a failed
//! trial's seed replays its exact faults.
//!
//! The crate sits at the bottom of the workspace (no dependencies) so
//! `vls-engine`, `vls-serve` and the CLI can all speak the same plan
//! language without cycles.

/// One stage of the DC homotopy ladder — the addressing unit for
/// forced Newton non-convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LadderStage {
    /// The warm attempt from a caller-supplied guess.
    Warm,
    /// Plain Newton from zero.
    Plain,
    /// Gmin stepping.
    Gmin,
    /// Source stepping.
    Source,
}

impl LadderStage {
    /// All stages in escalation order.
    pub const ALL: [LadderStage; 4] = [
        LadderStage::Warm,
        LadderStage::Plain,
        LadderStage::Gmin,
        LadderStage::Source,
    ];

    /// Stable index, `0..4`, in escalation order.
    pub fn index(self) -> usize {
        match self {
            LadderStage::Warm => 0,
            LadderStage::Plain => 1,
            LadderStage::Gmin => 2,
            LadderStage::Source => 3,
        }
    }

    /// The plan-string token.
    pub fn token(self) -> &'static str {
        match self {
            LadderStage::Warm => "warm",
            LadderStage::Plain => "plain",
            LadderStage::Gmin => "gmin",
            LadderStage::Source => "source",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|st| st.token() == s)
            .ok_or_else(|| format!("unknown ladder stage `{s}` (warm|plain|gmin|source)"))
    }
}

impl core::fmt::Display for LadderStage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.token())
    }
}

/// A compiled-in injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Force a Newton attempt at the given homotopy stage to report
    /// non-convergence (the attempt is billed its full iteration
    /// budget, exactly like a real failure).
    Newton(LadderStage),
    /// Degrade the sparse LU's pivot health so the next numeric-only
    /// refactorization fails and the kernel falls back to a full
    /// re-pivoting factorization.
    PivotHealth,
    /// Inject a local-truncation-error rejection in the transient
    /// stepper: the accepted-looking step is rejected and the step
    /// size quartered, as if the predictor had disagreed wildly.
    LteStorm,
    /// Poison every device-bypass cache with a garbage linearization
    /// that hits once regardless of bias — the confirm-iteration
    /// guarantee must absorb it.
    BypassPoison,
}

impl FaultSite {
    /// The plan-string token (stage-qualified for Newton faults).
    pub fn token(self) -> String {
        match self {
            FaultSite::Newton(stage) => format!("newton@{}", stage.token()),
            FaultSite::PivotHealth => "pivot".into(),
            FaultSite::LteStorm => "lte".into(),
            FaultSite::BypassPoison => "bypass".into(),
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        if let Some(stage) = s.strip_prefix("newton@") {
            return Ok(FaultSite::Newton(LadderStage::parse(stage)?));
        }
        match s {
            "pivot" => Ok(FaultSite::PivotHealth),
            "lte" => Ok(FaultSite::LteStorm),
            "bypass" => Ok(FaultSite::BypassPoison),
            other => Err(format!(
                "unknown fault site `{other}` (newton@<stage>|pivot|lte|bypass)"
            )),
        }
    }
}

/// One armed injection: a site, how many times it fires per session
/// (`count` charges), and which trial seeds it applies to
/// (`seed % every == offset`; `every <= 1` means every seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: FaultSite,
    /// Charges loaded into each session this spec arms.
    pub count: u32,
    /// Seed-predicate modulus; `0` or `1` matches every seed.
    pub every: u64,
    /// Seed-predicate residue.
    pub offset: u64,
}

impl FaultSpec {
    /// An unconditional single-shot spec at `site`.
    pub fn new(site: FaultSite) -> Self {
        Self {
            site,
            count: 1,
            every: 1,
            offset: 0,
        }
    }

    /// Same spec with `count` charges.
    pub fn times(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// Whether this spec arms for `seed`.
    pub fn matches(&self, seed: u64) -> bool {
        self.every <= 1 || seed % self.every == self.offset
    }

    fn render(&self) -> String {
        let mut s = self.site.token();
        if self.count != 1 {
            s.push_str(&format!(":count={}", self.count));
        }
        if self.every > 1 {
            s.push_str(&format!(":every={}:offset={}", self.every, self.offset));
        }
        s
    }
}

/// A set of injections. Plain data: cloneable, comparable, renderable
/// back to the string it parsed from. The empty plan is inert and is
/// the default everywhere — production runs never pay more than the
/// hook branches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The inert plan: no hook ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when no injection is armed.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Builder: adds `spec`.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The armed specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Resolves the seed predicates against one trial seed: the
    /// returned plan keeps only matching specs, normalized to
    /// unconditional form. This is the plan to store in `SimOptions`
    /// for that trial — a [`FaultSession`] loads every spec of the
    /// plan it is given, so arming is the moment seed addressing
    /// happens.
    pub fn arm(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            specs: self
                .specs
                .iter()
                .filter(|s| s.matches(seed))
                .map(|s| FaultSpec {
                    every: 1,
                    offset: 0,
                    ..*s
                })
                .collect(),
        }
    }

    /// Parses the compact plan string: comma-separated specs, each
    /// `site[:count=N][:every=M:offset=K]`. Sites are
    /// `newton@warm|plain|gmin|source`, `pivot`, `lte`, `bypass`. An
    /// empty string is the inert plan.
    ///
    /// # Errors
    ///
    /// A message naming the offending token.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.split(':');
            let site = FaultSite::parse(fields.next().unwrap_or_default())?;
            let mut spec = FaultSpec::new(site);
            for field in fields {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got `{field}`"))?;
                match key {
                    "count" => {
                        spec.count = value.parse().map_err(|_| format!("bad count `{value}`"))?;
                    }
                    "every" => {
                        spec.every = value.parse().map_err(|_| format!("bad every `{value}`"))?;
                    }
                    "offset" => {
                        spec.offset = value.parse().map_err(|_| format!("bad offset `{value}`"))?;
                    }
                    other => return Err(format!("unknown fault parameter `{other}`")),
                }
            }
            plan.specs.push(spec);
        }
        Ok(plan)
    }

    /// Renders back to the [`FaultPlan::parse`] format (round-trips).
    pub fn render(&self) -> String {
        self.specs
            .iter()
            .map(FaultSpec::render)
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl core::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The per-analysis charge ledger the engine's hooks consume. One
/// session is created per analysis phase (one per DC homotopy ladder,
/// one per transient stepping run), loading the charges of every spec
/// in the plan it is given — the plan is expected to be seed-armed
/// already (see [`FaultPlan::arm`]).
///
/// Each `fire_*` call consumes one charge and returns whether the hook
/// should inject. Everything is plain sequential state: given the same
/// plan and the same solver trajectory, the same calls fire.
#[derive(Debug, Clone, Default)]
pub struct FaultSession {
    newton: [u32; 4],
    pivot: u32,
    lte: u32,
    bypass: u32,
    fired: u64,
}

impl FaultSession {
    /// A session with no charges — every hook stays cold.
    pub fn inert() -> Self {
        Self::default()
    }

    /// Loads the charges of every spec in `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut s = Self::inert();
        for spec in plan.specs() {
            let slot = match spec.site {
                FaultSite::Newton(stage) => &mut s.newton[stage.index()],
                FaultSite::PivotHealth => &mut s.pivot,
                FaultSite::LteStorm => &mut s.lte,
                FaultSite::BypassPoison => &mut s.bypass,
            };
            *slot = slot.saturating_add(spec.count);
        }
        s
    }

    fn take(slot: &mut u32, fired: &mut u64) -> bool {
        if *slot > 0 {
            *slot -= 1;
            *fired += 1;
            true
        } else {
            false
        }
    }

    /// Consume a forced-non-convergence charge for `stage`.
    pub fn fire_newton(&mut self, stage: LadderStage) -> bool {
        let Self { newton, fired, .. } = self;
        Self::take(&mut newton[stage.index()], fired)
    }

    /// Consume a pivot-health-degradation charge.
    pub fn fire_pivot(&mut self) -> bool {
        let Self { pivot, fired, .. } = self;
        Self::take(pivot, fired)
    }

    /// Consume an LTE-rejection charge.
    pub fn fire_lte(&mut self) -> bool {
        let Self { lte, fired, .. } = self;
        Self::take(lte, fired)
    }

    /// Consume a bypass-cache-poisoning charge.
    pub fn fire_bypass(&mut self) -> bool {
        let Self { bypass, fired, .. } = self;
        Self::take(bypass, fired)
    }

    /// Total injections fired so far — folded into
    /// `SolverStats::injected_faults` by the engine.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_and_round_trips() {
        let text = "newton@gmin:count=2,pivot,lte:count=3:every=16:offset=5,bypass";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.specs().len(), 4);
        assert_eq!(plan.render(), text);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        assert_eq!(plan.specs()[0].site, FaultSite::Newton(LadderStage::Gmin));
        assert_eq!(plan.specs()[0].count, 2);
        assert_eq!(plan.specs()[2].every, 16);
    }

    #[test]
    fn empty_and_garbage_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
        assert!(FaultPlan::parse("nope").is_err());
        // No cache reads eviction pressure, so `evict` is no site.
        let evict = FaultPlan::parse("evict").unwrap_err();
        assert!(evict.contains("unknown fault site `evict`"), "{evict}");
        assert!(FaultPlan::parse("newton@sideways").is_err());
        assert!(FaultPlan::parse("pivot:count=x").is_err());
        assert!(FaultPlan::parse("pivot:frequency=2").is_err());
        assert!(FaultPlan::parse("pivot:count").is_err());
        assert!(FaultPlan::none().render().is_empty());
    }

    #[test]
    fn arming_resolves_the_seed_predicate() {
        let plan = FaultPlan::none()
            .with(FaultSpec {
                every: 4,
                offset: 1,
                ..FaultSpec::new(FaultSite::PivotHealth)
            })
            .with(FaultSpec::new(FaultSite::LteStorm));
        // Seed 5 ≡ 1 (mod 4): both specs arm, unconditionally.
        let armed = plan.arm(5);
        assert_eq!(armed.specs().len(), 2);
        assert!(armed.specs().iter().all(|s| s.every <= 1));
        // Seed 6 ≡ 2 (mod 4): only the unconditional spec remains.
        assert_eq!(plan.arm(6).specs().len(), 1);
        assert_eq!(plan.arm(6).specs()[0].site, FaultSite::LteStorm);
    }

    #[test]
    fn session_charges_are_consumed_exactly() {
        let plan = FaultPlan::parse("newton@plain:count=2,pivot,bypass").unwrap();
        let mut s = FaultSession::new(&plan);
        assert!(s.fire_newton(LadderStage::Plain));
        assert!(s.fire_newton(LadderStage::Plain));
        assert!(!s.fire_newton(LadderStage::Plain), "charges exhausted");
        assert!(!s.fire_newton(LadderStage::Warm), "other stages cold");
        assert!(s.fire_pivot());
        assert!(!s.fire_pivot());
        assert!(s.fire_bypass());
        assert!(!s.fire_lte());
        assert_eq!(s.fired(), 4);
    }

    #[test]
    fn inert_session_never_fires() {
        let mut s = FaultSession::new(&FaultPlan::none());
        for stage in LadderStage::ALL {
            assert!(!s.fire_newton(stage));
        }
        assert!(!s.fire_pivot() && !s.fire_lte() && !s.fire_bypass());
        assert_eq!(s.fired(), 0);
        assert_eq!(FaultSession::inert().fired(), 0);
    }

    #[test]
    fn stage_tokens_and_indices_are_stable() {
        for (i, stage) in LadderStage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(LadderStage::parse(stage.token()).unwrap(), stage);
            assert_eq!(stage.to_string(), stage.token());
        }
        assert_eq!(FaultPlan::parse("pivot").unwrap().to_string(), "pivot");
    }
}
