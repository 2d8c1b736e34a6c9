//! # umtslab-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `umtslab` workspace: a minimal,
//! allocation-light discrete-event simulation kernel in the spirit of
//! event-driven network stacks such as smoltcp. It provides:
//!
//! * [`time`] — microsecond-resolution [`time::Instant`] / [`time::Duration`]
//!   newtypes for the virtual timeline;
//! * [`event`] — a deterministic time-ordered [`event::EventQueue`] with
//!   FIFO tie-breaking and cancellation;
//! * [`rng`] — a forkable, seeded PRNG ([`rng::SimRng`]) with the samplers
//!   used across the workspace (uniform, exponential, normal, Pareto,
//!   Cauchy, Bernoulli);
//! * [`report`] — the one FNV-1a hasher and JSON string escaper every
//!   report and determinism gate shares;
//! * [`sched`] — the [`sched::Scheduler`] driver binding a clock to the
//!   queue, designed for an explicit caller-owned dispatch loop.
//!
//! ## Determinism contract
//!
//! Given the same code, configuration, and master seed, every run produces
//! an identical event trace. The kernel guarantees its part of the contract
//! by (a) breaking equal-time ties in schedule order, and (b) deriving all
//! randomness from [`rng::SimRng::fork`] streams rather than shared global
//! state. Higher layers must not consult ambient sources (host clock, map
//! iteration order) on any simulated path.
//!
//! ## Example
//!
//! ```
//! use umtslab_sim::{EventQueue, Instant, SimRng};
//!
//! // Same seed, same draws — always.
//! let mut a = SimRng::seed_from_u64(7);
//! let mut b = SimRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Events pop in time order with FIFO tie-breaking.
//! let mut q = EventQueue::new();
//! q.schedule(Instant::from_millis(20), "late");
//! q.schedule(Instant::from_millis(10), "early");
//! assert_eq!(q.pop().unwrap().1, "early");
//! assert_eq!(q.pop().unwrap().1, "late");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod report;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod time;

pub use event::{EventHandle, EventQueue};
pub use report::{escape_json, Fnv1a};
pub use rng::SimRng;
pub use sched::Scheduler;
pub use shard::{drive, drive_serial, window_ends, ShardId, ShardScheduler};
pub use time::{serialization_time, Duration, Instant};
