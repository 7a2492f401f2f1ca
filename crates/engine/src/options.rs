//! [`EvalOptions`]: the per-run knobs every evaluator takes.

use qdk_logic::governor::{CancelToken, Governor, ResourceLimits};
use qdk_logic::obs::ObsSink;
use qdk_logic::Parallelism;

/// Options controlling a bottom-up run: the unified [`ResourceLimits`]
/// (work budget, deadline, fact count), an optional cooperative
/// [`CancelToken`], and the worker count for parallel fixpoints.
/// Exhaustion aborts with [`crate::EngineError::Exhausted`] carrying the
/// governor's structured diagnostic.
#[derive(Clone, Debug, Default)]
pub struct EvalOptions {
    /// Resource limits enforced during evaluation (`Default` = unbounded).
    pub limits: ResourceLimits,
    /// Cooperative cancellation token, checkable from another thread.
    pub cancel: Option<CancelToken>,
    /// Worker count for the fixpoints' chunked delta rounds (`Default` =
    /// [`Parallelism::SEQUENTIAL`], the exact sequential path; more
    /// workers only when asked for).
    pub parallelism: Parallelism,
    /// Observability sink; spans and counters are emitted here (the
    /// default disabled sink records nothing and costs one branch).
    pub sink: ObsSink,
}

impl EvalOptions {
    /// Options enforcing the given limits.
    pub fn with_limits(limits: ResourceLimits) -> Self {
        EvalOptions {
            limits,
            ..EvalOptions::default()
        }
    }

    /// Set the worker count.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Set a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Install an observability sink.
    #[must_use]
    pub fn with_sink(mut self, sink: ObsSink) -> Self {
        self.sink = sink;
        self
    }

    /// Build the governor for one evaluation run.
    pub(crate) fn governor(&self) -> Governor {
        Governor::new(self.limits).with_cancel(self.cancel.clone())
    }
}
