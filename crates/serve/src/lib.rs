//! # nm-serve — the serving front-end
//!
//! An async serving layer over the prepared-session API: a bounded
//! request queue with admission control, a continuous batcher that
//! stacks concurrent decode vectors into one skinny kernel call,
//! per-request deadlines, and a rolling latency-distribution snapshot.
//! This is the production layer the paper's offline/online split exists
//! for: [`Session::load`](nm_kernels::session::Session::load) pays the
//! staging cost once, and the [`Server`] turns one
//! [`PreparedLayer`](nm_kernels::session::PreparedLayer) into a
//! multi-tenant service.
//!
//! ## Architecture
//!
//! ```text
//!  submit_decode()                  batcher thread (one)
//!  ───────────────────────╮   ╭──────────────────────────────────╮
//!   admission: atomic     │   │  drain channel → FIFO queue      │
//!   depth < capacity ─────┼──▶│  linger window (joiners ride)    │
//!   else Overloaded       │   │  shed expired (DeadlineExceeded) │
//!                         │   │  pop ≤ max_decode_batch vectors  │
//!   Ticket ◀──────────────╯   │   → stack → one skinny forward   │
//!     .wait()                 ╰──────────────────────────────────╯
//! ```
//!
//! * **Bounded queue, structured backpressure.** Admission is an atomic
//!   counter against [`ServerConfig::queue_capacity`]; a full queue
//!   refuses with [`NmError::Overloaded`](nm_core::error::NmError) — the
//!   caller always learns, immediately, instead of blocking silently.
//! * **Continuous batching.** The batcher holds a forming batch open for
//!   [`ServerConfig::linger`] so concurrent requests coalesce: decode
//!   vectors stack into one skinny `forward` call (bit-identical per row
//!   to serving each alone — the decode band's bandwidth-bound kernel
//!   streams the packed `B′` once for the whole stack, which is where
//!   the goodput comes from). Stacking is capped at the planner's decode
//!   band ([`DECODE_MAX_ROWS`](nm_kernels::DECODE_MAX_ROWS)) — plan
//!   evidence, not a magic number.
//! * **Deadlines shed before compute.** A request whose budget expires
//!   while queued resolves with `NmError::DeadlineExceeded` at batch
//!   formation — no kernel time is spent on an answer nobody wants.
//! * **One FIFO queue.** Dispatch order is submission order, always.
//!
//! ## Where the time goes
//!
//! Every [`Completion`] carries a [`RequestTiming`] splitting the
//! request's latency into **queue wait** (submission → batch formation:
//! admission, linger, time behind earlier work — the serving layer's own
//! cost) and **compute** (the kernel wall
//! [`ExecRun::wall_seconds`](nm_kernels::backend::ExecRun) attributes to
//! the call; members of one batch share the fused call's
//! wall, which is precisely the amortization batching buys).
//! [`Server::stats`] folds those samples into rolling p50/p95/p99,
//! throughput, and shed/reject counters — the [`ServerStats`] snapshot
//! the `bench_serving` harness writes to `BENCH_serving.json`.

#![warn(missing_docs)]

mod batcher;
mod config;
mod request;
mod server;
mod stats;

pub use config::{ServerConfig, SubmitOptions};
pub use request::{Completion, DispatchInfo, RequestTiming, Ticket};
pub use server::Server;
pub use stats::ServerStats;
