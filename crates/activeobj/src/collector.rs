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

/// The period of an RMI endpoint's timer, a quarter lease: renewals are
/// due at lease/2, so ticking at lease/4 bounds the renewal lag at
/// lease/4.
pub(crate) fn rmi_tick_period(cfg: RmiConfig) -> SimDuration {
    sim_dur(cfg.lease.div(4))
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
    fn rmi_ticks_at_quarter_lease() {
        assert_eq!(
            rmi_tick_period(RmiConfig::default()),
            SimDuration::from_secs(15)
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
