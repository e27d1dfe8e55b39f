//! Service tunables: admission limits, deadlines, breaker.

use std::time::Duration;

/// Tunables of a [`crate::SessionManager`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum live (not yet closed) sessions; further
    /// [`crate::SessionManager::open`] calls are
    /// [`crate::ServiceError::Rejected`]. A failed session keeps its
    /// slot until closed — dead tenants must be reaped explicitly, not
    /// silently replaced.
    pub max_sessions: usize,
    /// Bounds waiting callers: the most callers one session lets wait
    /// in line for a turn, its one admission bound. A caller that finds
    /// the line full waits for a place instead of queueing unboundedly;
    /// one still waiting at its deadline is shed with
    /// [`crate::ServiceError::Overloaded`]. Zero is
    /// [`crate::ServiceError::Rejected`] at
    /// [`crate::SessionManager::open`]: such a session could only shed.
    pub mailbox_capacity: usize,
    /// Deadline for requests submitted without an explicit one.
    pub default_deadline: Duration,
    /// Circuit breaker: this many consecutive failed recoveries within
    /// [`ServiceConfig::breaker_window`] trips the session to the
    /// terminal `Failed` state.
    pub breaker_threshold: u32,
    /// Time window for counting consecutive recovery failures; failures
    /// further apart than this reset the count.
    pub breaker_window: Duration,
    /// Worker threads of the shared executor. All sessions share this
    /// pool, and it does their engines' simulation work only: a request
    /// runs on its caller's thread, which joins its simulation runs, so a
    /// session owns no thread.
    pub num_threads: usize,
    /// Per-session cap on live view subscriptions
    /// ([`crate::SessionHandle::subscribe`]); beyond it, subscriptions
    /// are [`crate::ServiceError::Rejected`]. Dropping a subscription
    /// frees its slot at once.
    pub view_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 64,
            mailbox_capacity: 32,
            default_deadline: Duration::from_secs(5),
            breaker_threshold: 3,
            breaker_window: Duration::from_secs(10),
            num_threads: qtask_taskflow::default_threads(),
            view_quota: 8,
        }
    }
}

impl ServiceConfig {
    /// This config with the given session limit.
    pub fn with_max_sessions(mut self, max_sessions: usize) -> ServiceConfig {
        self.max_sessions = max_sessions;
        self
    }

    /// This config with the given bound on waiting callers per session
    /// (at least 1).
    pub fn with_mailbox_capacity(mut self, mailbox_capacity: usize) -> ServiceConfig {
        self.mailbox_capacity = mailbox_capacity.max(1);
        self
    }

    /// This config with the given default request deadline.
    pub fn with_default_deadline(mut self, default_deadline: Duration) -> ServiceConfig {
        self.default_deadline = default_deadline;
        self
    }

    /// This config with the given breaker threshold (at least 1).
    pub fn with_breaker(mut self, threshold: u32, window: Duration) -> ServiceConfig {
        self.breaker_threshold = threshold.max(1);
        self.breaker_window = window;
        self
    }

    /// This config with the given executor thread count (at least 1).
    pub fn with_threads(mut self, num_threads: usize) -> ServiceConfig {
        self.num_threads = num_threads.max(1);
        self
    }

    /// This config with the given per-session view-subscription quota
    /// (at least 1).
    pub fn with_view_quota(mut self, view_quota: usize) -> ServiceConfig {
        self.view_quota = view_quota.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = ServiceConfig::default();
        assert!(c.max_sessions >= 1);
        assert!(c.mailbox_capacity >= 1);
        assert!(c.breaker_threshold >= 1);
        let c = c
            .with_max_sessions(2)
            .with_mailbox_capacity(0)
            .with_default_deadline(Duration::from_millis(50))
            .with_breaker(0, Duration::from_secs(1))
            .with_threads(0)
            .with_view_quota(0);
        assert_eq!(c.max_sessions, 2);
        assert_eq!(c.mailbox_capacity, 1); // clamped
        assert_eq!(c.breaker_threshold, 1); // clamped
        assert_eq!(c.num_threads, 1); // clamped
        assert_eq!(c.view_quota, 1); // clamped
        assert_eq!(c.default_deadline, Duration::from_millis(50));
    }
}
