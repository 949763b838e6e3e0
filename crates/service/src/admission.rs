//! Admission control: a bounded in-flight query budget every request
//! draws from.
//!
//! Queries run on their callers' threads, so nothing inside the service
//! limits how many execute at once — a traffic spike of connections
//! would have every caller see worst-case latency while the pools
//! thrash. Admission control converts that failure mode into fast,
//! typed rejection: [`Admission::try_acquire`] either hands back an
//! RAII [`Permit`] (released when the call returns, however it returns)
//! or reports the budget exhausted, which the service surfaces as
//! [`crate::ServiceError::Overloaded`] and the network front end as a
//! typed overload response the client can back off on.
//!
//! The budget counts *queries*, not connections: every
//! [`crate::TwigService::execute`] call holds one permit while it runs.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A bounded in-flight budget: one atomic counter, no locks, no
/// waiting — admission either succeeds immediately or fails immediately
/// (load shedding, not queueing).
#[derive(Debug)]
pub struct Admission {
    /// Maximum in-flight queries; `0` disables the bound.
    limit: usize,
    in_flight: AtomicUsize,
    high_water: AtomicUsize,
    rejected: AtomicU64,
}

impl Admission {
    /// Creates a budget of `limit` in-flight queries (`0` = unbounded).
    pub fn new(limit: usize) -> Admission {
        Admission {
            limit,
            in_flight: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Tries to admit one query. `None` means the budget is exhausted
    /// (the rejection is counted); a returned [`Permit`] releases its
    /// place on drop.
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        let limit = if self.limit == 0 { usize::MAX } else { self.limit };
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(current + 1, Ordering::Relaxed);
                    return Some(Permit { admission: self });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Queries currently admitted and not yet released.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The configured bound (`0` = unbounded).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Highest concurrent in-flight count observed.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Acquisitions refused because the budget was exhausted.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// RAII admission of one in-flight query; dropping it releases the
/// place. A permit lives on the stack of the call it admitted, so a
/// query leaves the budget exactly when that call returns — answered,
/// errored, or unwinding.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_budget_rejects_at_the_limit_and_recovers() {
        let a = Admission::new(2);
        let p1 = a.try_acquire().unwrap();
        let p2 = a.try_acquire().unwrap();
        assert_eq!(a.in_flight(), 2);
        assert!(a.try_acquire().is_none(), "budget exhausted");
        assert_eq!(a.rejected(), 1);
        drop(p1);
        let p3 = a.try_acquire().expect("released place is reusable");
        assert_eq!(a.in_flight(), 2);
        drop(p2);
        drop(p3);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn zero_limit_is_unbounded() {
        let a = Admission::new(0);
        let permits: Vec<Permit<'_>> = (0..100).map(|_| a.try_acquire().unwrap()).collect();
        assert_eq!(a.in_flight(), 100);
        assert_eq!(a.rejected(), 0);
        drop(permits);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn concurrent_acquisition_never_exceeds_the_limit() {
        let a = Admission::new(2);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        if let Some(p) = a.try_acquire() {
                            peak.fetch_max(a.in_flight(), Ordering::Relaxed);
                            drop(p);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 2);
        assert!(a.high_water() <= 2);
        assert_eq!(a.in_flight(), 0);
    }
}
