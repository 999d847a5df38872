//! The collectors a grid can run: the paper's complete DGC, the
//! RMI-style baseline, or none (the control runs of the evaluation
//! tables).
//!
//! The complete DGC runs in one [`dgc_core::kernel::NodeKernel`] per
//! simulated process — the kernel every other host runs. The RMI
//! baseline, a different protocol, keeps a per-activity
//! [`dgc_rmi::endpoint::RmiEndpoint`].

use dgc_core::config::DgcConfig;
use dgc_core::units::{Dur, Time};
use dgc_rmi::endpoint::RmiConfig;

use dgc_simnet::time::{SimDuration, SimTime};

/// Which collector a grid runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CollectorKind {
    /// No distributed collector at all (the "No DGC" columns).
    None,
    /// The paper's complete DGC.
    Complete(DgcConfig),
    /// The lease-based reference-listing baseline.
    Rmi(RmiConfig),
}

impl CollectorKind {
    /// The period of an activity's collector timer, within which its
    /// first tick's phase is drawn: TTB for the complete DGC, a quarter
    /// lease for RMI (renewals are due at lease/2, so ticking at lease/4
    /// bounds the renewal lag at lease/4); `None` without a collector.
    pub(crate) fn tick_period(&self) -> Option<SimDuration> {
        match self {
            CollectorKind::None => None,
            CollectorKind::Complete(cfg) => Some(sim_dur(cfg.ttb)),
            CollectorKind::Rmi(cfg) => Some(sim_dur(cfg.lease.div(4))),
        }
    }
}

/// Converts simulator time to protocol time (both are nanoseconds).
pub fn proto_time(t: SimTime) -> Time {
    Time::from_nanos(t.as_nanos())
}

/// Converts a protocol duration to a simulator duration.
pub fn sim_dur(d: Dur) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_has_no_tick() {
        assert!(CollectorKind::None.tick_period().is_none());
    }

    #[test]
    fn complete_ticks_at_ttb() {
        let cfg = DgcConfig::builder().ttb(Dur::from_secs(30)).build();
        assert_eq!(
            CollectorKind::Complete(cfg).tick_period(),
            Some(SimDuration::from_secs(30))
        );
    }

    #[test]
    fn rmi_ticks_at_quarter_lease() {
        assert_eq!(
            CollectorKind::Rmi(RmiConfig::default()).tick_period(),
            Some(SimDuration::from_secs(15))
        );
    }

    #[test]
    fn time_conversions_are_exact() {
        let t = SimTime::from_millis(1234);
        assert_eq!(proto_time(t).as_nanos(), t.as_nanos());
        let d = Dur::from_millis(56);
        assert_eq!(sim_dur(d).as_nanos(), d.as_nanos());
    }
}
