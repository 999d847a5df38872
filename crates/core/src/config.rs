//! DGC configuration: TTB, TTA and the paper's optional extensions.

use std::fmt;

use crate::units::Dur;

/// Parent-selection policy for the reverse spanning tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ParentPolicy {
    /// The paper's implementation (§7.2): promote the **first** referenced
    /// active object whose response matches; shallow trees emerge from
    /// response timing.
    #[default]
    FirstResponder,
    /// The §7.2 future-work extension: responses carry the responder's
    /// depth in the reverse spanning tree, and a referencer switches to a
    /// strictly shallower parent when one appears, producing near-BFS
    /// (minimal-height) trees.
    MinDepth,
}

/// Heartbeat timing mode (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingMode {
    /// One global constant TTB/TTA pair, as in the paper's evaluation.
    Static,
    /// §7.1 extension: the TTB adapts between bounds — it shrinks when
    /// garbage is suspected (this object is idle and part of a forming
    /// consensus) and relaxes back toward the base period otherwise.
    /// TTA scales with the same factor so the safety formula keeps
    /// holding.
    Adaptive {
        /// Fastest allowed heartbeat.
        min_ttb: Dur,
        /// Slowest allowed heartbeat.
        max_ttb: Dur,
    },
}

/// Configuration of one active object's DGC endpoint.
///
/// Build with [`DgcConfig::builder`]; `ttb`/`tta` default to the paper's
/// NAS settings (TTB 30 s, TTA 61 s, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DgcConfig {
    /// TimeToBeat: period of DGC message broadcasts (§3.1).
    pub ttb: Dur,
    /// TimeToAlone: silence delay after which an idle object considers
    /// itself garbage, and a referencer that stayed silent is dropped
    /// (§3.1). Safety requires `TTA > 2·TTB + MaxComm`.
    pub tta: Dur,
    /// Upper bound on one-way communication time between active objects,
    /// used by the safety formula and by the per-referencer expiry when
    /// referencers advertise their own TTB.
    pub max_comm: Dur,
    /// §4.3 step-4 optimization: after consensus, keep answering DGC
    /// messages with `consensus_reached` so the whole cycle terminates in
    /// one TTA instead of re-running consensus per sub-cycle. On by
    /// default (the paper argues it is an important optimization);
    /// disable for the ablation benchmark.
    pub propagate_consensus: bool,
    /// Reverse-spanning-tree parent selection.
    pub parent_policy: ParentPolicy,
    /// Static or adaptive heartbeat.
    pub timing: TimingMode,
}

impl Default for DgcConfig {
    fn default() -> Self {
        DgcConfig::builder().build()
    }
}

/// Error returned when a configuration violates the safety formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    ttb: Dur,
    tta: Dur,
    max_comm: Dur,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unsafe DGC timing: TTA ({}) must exceed 2*TTB + MaxComm ({} + {})",
            self.tta,
            self.ttb.saturating_mul(2),
            self.max_comm
        )
    }
}

impl std::error::Error for ConfigError {}

impl DgcConfig {
    /// Starts building a configuration.
    pub fn builder() -> DgcConfigBuilder {
        DgcConfigBuilder::default()
    }

    /// The smallest TTA satisfying `TTA > 2·TTB + MaxComm` (plus one
    /// nanosecond of strict margin).
    pub fn minimal_safe_tta(ttb: Dur, max_comm: Dur) -> Dur {
        ttb.saturating_mul(2)
            .saturating_add(max_comm)
            .saturating_add(Dur::from_nanos(1))
    }

    /// The largest TTB the timing mode can produce: `ttb`, or `max_ttb`
    /// under adaptive timing (whichever is larger).
    pub(crate) fn worst_ttb(&self) -> Dur {
        match self.timing {
            TimingMode::Static => self.ttb,
            TimingMode::Adaptive { max_ttb, .. } => max_ttb.max(self.ttb),
        }
    }

    /// Checks the §3.1 safety formula `TTA > 2·TTB + MaxComm`, using the
    /// *largest* TTB the timing mode can produce.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let worst_ttb = self.worst_ttb();
        if self.tta > worst_ttb.saturating_mul(2).saturating_add(self.max_comm) {
            Ok(())
        } else {
            Err(ConfigError {
                ttb: worst_ttb,
                tta: self.tta,
                max_comm: self.max_comm,
            })
        }
    }
}

/// Builder for [`DgcConfig`].
#[derive(Debug, Clone)]
pub struct DgcConfigBuilder {
    ttb: Dur,
    tta: Option<Dur>,
    max_comm: Dur,
    propagate_consensus: bool,
    parent_policy: ParentPolicy,
    timing: TimingMode,
}

impl Default for DgcConfigBuilder {
    fn default() -> Self {
        DgcConfigBuilder {
            // The paper's NAS settings (§5.2): TTB 30 s, TTA 61 s.
            ttb: Dur::from_secs(30),
            tta: None,
            max_comm: Dur::from_millis(500),
            propagate_consensus: true,
            parent_policy: ParentPolicy::default(),
            timing: TimingMode::Static,
        }
    }
}

impl DgcConfigBuilder {
    /// Sets the heartbeat period.
    pub fn ttb(mut self, ttb: Dur) -> Self {
        self.ttb = ttb;
        self
    }

    /// Sets the silence timeout. When unset, the minimal safe value for
    /// the configured TTB and MaxComm is used.
    pub fn tta(mut self, tta: Dur) -> Self {
        self.tta = Some(tta);
        self
    }

    /// Sets the assumed communication-time upper bound.
    pub fn max_comm(mut self, max_comm: Dur) -> Self {
        self.max_comm = max_comm;
        self
    }

    /// Enables/disables the §4.3 consensus-propagation optimization.
    pub fn propagate_consensus(mut self, on: bool) -> Self {
        self.propagate_consensus = on;
        self
    }

    /// Sets the parent-selection policy.
    pub fn parent_policy(mut self, policy: ParentPolicy) -> Self {
        self.parent_policy = policy;
        self
    }

    /// Sets the timing mode.
    pub fn timing(mut self, timing: TimingMode) -> Self {
        self.timing = timing;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> DgcConfig {
        let tta = self
            .tta
            .unwrap_or_else(|| DgcConfig::minimal_safe_tta(self.ttb, self.max_comm));
        DgcConfig {
            ttb: self.ttb,
            tta,
            max_comm: self.max_comm,
            propagate_consensus: self.propagate_consensus,
            parent_policy: self.parent_policy,
            timing: self.timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_nas_settings() {
        let c = DgcConfig::default();
        assert_eq!(c.ttb, Dur::from_secs(30));
        assert!(c.propagate_consensus);
        assert_eq!(c.parent_policy, ParentPolicy::FirstResponder);
        assert_eq!(c.timing, TimingMode::Static);
        c.validate().expect("defaults must be safe");
    }

    #[test]
    fn default_tta_is_minimal_safe() {
        let c = DgcConfig::builder().ttb(Dur::from_secs(10)).build();
        assert!(c.tta > Dur::from_secs(20));
        assert!(c.tta <= Dur::from_secs(21));
    }

    #[test]
    fn validate_rejects_unsafe_tta() {
        let c = DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(60))
            .max_comm(Dur::from_secs(1))
            .build();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("TTA"));
    }

    #[test]
    fn validate_uses_worst_case_adaptive_ttb() {
        let c = DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(70))
            .max_comm(Dur::from_secs(1))
            .timing(TimingMode::Adaptive {
                min_ttb: Dur::from_secs(5),
                max_ttb: Dur::from_secs(60),
            })
            .build();
        assert!(c.validate().is_err(), "max_ttb 60 makes TTA 70 unsafe");
        let ok = DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(200))
            .timing(TimingMode::Adaptive {
                min_ttb: Dur::from_secs(5),
                max_ttb: Dur::from_secs(60),
            })
            .build();
        ok.validate().unwrap();
    }

    #[test]
    fn paper_nas_params_are_valid() {
        // TTB 30s, TTA 61s "as per the formula in Section 3.1" with small
        // MaxComm.
        let c = DgcConfig::builder()
            .ttb(Dur::from_secs(30))
            .tta(Dur::from_secs(61))
            .max_comm(Dur::from_millis(500))
            .build();
        c.validate().unwrap();
    }

    #[test]
    fn paper_torture_params_are_valid() {
        for (ttb, tta) in [(30u64, 150u64), (300, 1500)] {
            let c = DgcConfig::builder()
                .ttb(Dur::from_secs(ttb))
                .tta(Dur::from_secs(tta))
                .build();
            c.validate().unwrap();
        }
    }

    #[test]
    fn minimal_safe_tta_is_strictly_greater() {
        let ttb = Dur::from_secs(30);
        let mc = Dur::from_secs(1);
        let tta = DgcConfig::minimal_safe_tta(ttb, mc);
        assert!(tta > ttb.saturating_mul(2).saturating_add(mc));
    }
}
