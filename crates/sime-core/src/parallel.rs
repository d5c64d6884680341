//! The execution context the engine's `*_on` entry points still accept.
//!
//! Every rank runs Evaluation and Allocation on one serial code path;
//! parallelism lives at the rank level (the strategies of `sime-parallel`).
//! [`EvalContext`] is kept only so existing callers compile.

use cluster_sim::comm::WorkerPool;
use std::marker::PhantomData;

/// An inert execution context: every constructor yields the same serial
/// context, and no engine entry point reads it.
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a>(PhantomData<&'a WorkerPool>);

impl<'a> EvalContext<'a> {
    /// The serial context. Has no effect.
    pub fn serial() -> Self {
        EvalContext(PhantomData)
    }

    /// The serial context; the pool and chunk count have no effect.
    pub fn chunked(_pool: &'a WorkerPool, _chunks: usize) -> Self {
        EvalContext::serial()
    }

    /// The serial context; the pool and chunk count have no effect.
    pub fn from_pool(_pool: Option<&'a WorkerPool>, _chunks: usize) -> Self {
        EvalContext::serial()
    }
}
