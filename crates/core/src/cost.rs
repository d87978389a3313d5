//! Cost accounting for redundant executions.
//!
//! The paper's §4.1 ("Costs and efficacy of code redundancy") contrasts
//! *design* costs (developing the redundant artifacts) with *execution*
//! costs (running them). [`Cost`] records both so that experiments such as
//! E6 can plot the cost/reliability frontier of N-version programming,
//! recovery blocks and self-checking programming.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Accumulated cost of one or more executions.
///
/// Work units are abstract: one unit corresponds to one unit of simulated
/// computation charged through
/// [`ExecContext::charge`](crate::context::ExecContext::charge). Virtual
/// time is tracked separately so that latency-style measurements (e.g.
/// pattern comparisons in experiment F1) do not depend on host scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Number of variant invocations performed.
    pub invocations: u64,
    /// Abstract work units consumed.
    pub work_units: u64,
    /// Virtual elapsed time in nanoseconds. For parallel patterns this is
    /// the *critical path*, not the sum.
    pub virtual_ns: u64,
    /// Design cost of the artifacts exercised (sum of variant design
    /// costs, counted once per invocation set by the pattern engines).
    pub design_cost: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        invocations: 0,
        work_units: 0,
        virtual_ns: 0,
        design_cost: 0.0,
    };

    /// Creates a cost of a single invocation with the given work.
    #[must_use]
    pub fn of_invocation(work_units: u64, virtual_ns: u64) -> Cost {
        Cost {
            invocations: 1,
            work_units,
            virtual_ns,
            design_cost: 0.0,
        }
    }

    /// Combines costs of activities that ran *in parallel*: work and
    /// invocations add, virtual time takes the maximum (critical path).
    #[must_use]
    #[inline]
    pub fn parallel(self, other: Cost) -> Cost {
        Cost {
            invocations: self.invocations + other.invocations,
            work_units: self.work_units + other.work_units,
            virtual_ns: self.virtual_ns.max(other.virtual_ns),
            design_cost: self.design_cost + other.design_cost,
        }
    }

    /// Combines costs of activities that ran *one after another*.
    #[must_use]
    #[inline]
    pub fn sequential(self, other: Cost) -> Cost {
        self + other
    }

    /// The cost accrued since an `earlier` snapshot of the same meter
    /// (saturating, so a reset meter yields zero rather than wrapping).
    /// Used to attribute per-span costs when the underlying
    /// [`ExecContext`](crate::context::ExecContext) meter is cumulative.
    #[must_use]
    #[inline]
    pub fn delta_since(self, earlier: Cost) -> Cost {
        Cost {
            invocations: self.invocations.saturating_sub(earlier.invocations),
            work_units: self.work_units.saturating_sub(earlier.work_units),
            virtual_ns: self.virtual_ns.saturating_sub(earlier.virtual_ns),
            design_cost: (self.design_cost - earlier.design_cost).max(0.0),
        }
    }

    /// Converts to the dependency-free snapshot carried by observability
    /// events.
    #[must_use]
    #[inline]
    pub fn snapshot(self) -> redundancy_obs::CostSnapshot {
        redundancy_obs::CostSnapshot {
            invocations: self.invocations,
            work_units: self.work_units,
            virtual_ns: self.virtual_ns,
            design_cost: self.design_cost,
        }
    }
}

impl Add for Cost {
    type Output = Cost;

    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            invocations: self.invocations + rhs.invocations,
            work_units: self.work_units + rhs.work_units,
            virtual_ns: self.virtual_ns + rhs.virtual_ns,
            design_cost: self.design_cost + rhs.design_cost,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} invocations, {} work units, {} ns virtual, design {:.1}",
            self.invocations, self.work_units, self.virtual_ns, self.design_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let c = Cost::of_invocation(10, 100);
        assert_eq!(c + Cost::ZERO, c);
        assert_eq!(Cost::ZERO.parallel(c), c);
    }

    #[test]
    fn sequential_adds_time() {
        let a = Cost::of_invocation(5, 50);
        let b = Cost::of_invocation(7, 70);
        let s = a.sequential(b);
        assert_eq!(s.invocations, 2);
        assert_eq!(s.work_units, 12);
        assert_eq!(s.virtual_ns, 120);
    }

    #[test]
    fn parallel_takes_critical_path() {
        let a = Cost::of_invocation(5, 50);
        let b = Cost::of_invocation(7, 70);
        let p = a.parallel(b);
        assert_eq!(p.invocations, 2);
        assert_eq!(p.work_units, 12);
        assert_eq!(p.virtual_ns, 70);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Cost = (1..=3).map(|i| Cost::of_invocation(i, i * 10)).sum();
        assert_eq!(total.invocations, 3);
        assert_eq!(total.work_units, 6);
        assert_eq!(total.virtual_ns, 60);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let before = Cost::of_invocation(10, 100);
        let after = before + Cost::of_invocation(5, 50);
        let delta = after.delta_since(before);
        assert_eq!(delta, Cost::of_invocation(5, 50));
        // A reset meter (after < before) saturates to zero.
        assert_eq!(Cost::ZERO.delta_since(before), Cost::ZERO);
    }

    #[test]
    fn snapshot_mirrors_fields() {
        let c = Cost {
            invocations: 2,
            work_units: 30,
            virtual_ns: 40,
            design_cost: 1.5,
        };
        let s = c.snapshot();
        assert_eq!(s.invocations, 2);
        assert_eq!(s.work_units, 30);
        assert_eq!(s.virtual_ns, 40);
        assert!((s.design_cost - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Cost::ZERO.to_string().is_empty());
    }
}
