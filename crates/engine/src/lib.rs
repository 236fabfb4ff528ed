//! Multi-core throughput engine for the low device occupation Rijndael IP.
//!
//! The DATE 2003 paper's pitch is that one AES-128 core is *small* — about
//! a tenth of an EP20K300E — so a deployment that needs more than the
//! single-core ~250 Mbps stamps down a farm of cores and scales linearly.
//! This crate models that system level:
//!
//! * [`backend`] — the [`Backend`] trait putting the three hardware
//!   devices (encrypt / decrypt / combined, behind their cycle-accurate
//!   bus drivers) and two software implementations ([`rijndael::Aes128`],
//!   the T-table variant) behind one fallible, cost-accounted face;
//! * [`job`] — the one job model both schedulers run: the [`Mode`] and
//!   job vocabulary, the [`FarmBuilder`] configuration, the bounded
//!   admission gate ([`SubmitError::Busy`], the ragged check and their
//!   counters), the 8-block granule shard planner, the span executor
//!   (chained modes through the object-safe [`rijndael::Mode`] trait)
//!   and the per-core telemetry pusher;
//! * [`scheduler`] — the [`Engine`], assembled by [`EngineBuilder`]: the
//!   deterministic virtual-time farm that drains its queue on the
//!   caller's thread, routes chained modes to the core with the fewest
//!   cycles on its clock and records per-job latency in cycles;
//! * [`pool`] — the [`WorkerPool`], assembled by [`PoolBuilder`]: the
//!   wall-clock counterpart — each core owned by an OS worker thread
//!   with a local deque, work-stealing between siblings, keyed
//!   [`Lane`]s whose jobs carry their key and whose completions come
//!   back over the lane's own channel, and an elastic control plane
//!   ([`WorkerPool::add_core`] / [`WorkerPool::remove_core`] /
//!   [`WorkerPool::swap_core`], plus [`WorkerPool::autoscale_tick`]
//!   under a [`ResizePolicy`], driven by the pool's own load);
//! * [`stats`] — [`FarmStats`]: Table-2-style per-core and farm-aggregate
//!   figures (blocks, cycles, occupancy, cycles/block) derived from the
//!   telemetry snapshot rather than a private counter path;
//! * [`error`] — the unified [`Error`] hierarchy folding submission
//!   rejections and job faults into one `std::error::Error` type.
//!
//! Every farm publishes its activity into a [`telemetry::Registry`]
//! (its own, or a shared one passed to [`FarmBuilder::registry`]):
//! per-core counters under `engine.core.<index>.<backend>.<field>`,
//! submit/completion counters, queue-depth gauges, and latency/occupancy
//! histograms. Benches and the service's `GET_STATS` endpoint read the
//! same snapshots.
//!
//! Hardware time is virtual: every core carries its own cycle counter,
//! the cores clock concurrently, and farm wall time is the maximum over
//! them. A saturated core sustains one block per
//! [`LATENCY_CYCLES`](aes_ip::core::LATENCY_CYCLES) thanks to the
//! decoupled `Data_In`/`Out` bus, so `k` cores approach `50 / k`
//! wall cycles per block.
//!
//! # Examples
//!
//! ```
//! use engine::{BackendSpec, Engine, Mode};
//!
//! let key = [0u8; 16];
//! // Paper Table 2 scaled out: four combined cores.
//! let mut farm = Engine::with_farm(&key, &[BackendSpec::EncDecCore; 4], 8);
//! let id = farm.try_submit(Mode::Ctr([0; 16]), vec![0u8; 64 * 16]).unwrap();
//! let outputs = farm.run();
//! assert!(outputs[0].data.is_ok());
//!
//! let s = farm.stats();
//! assert_eq!(s.total_blocks(), 64);
//! // 16 blocks per core, pipelined: far below 50 cycles/block aggregate.
//! assert!(s.cycles_per_block() < 50.0 / 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod job;
pub mod pool;
pub mod scheduler;
pub mod stats;

pub use crate::backend::{
    Backend, BackendError, BackendSpec, IpCoreBackend, PacedBackend, SoftwareBackend,
};
pub use crate::error::Error;
pub use crate::job::{FarmBuilder, JobError, JobId, JobOutput, Mode, SubmitError};
pub use crate::pool::{
    Lane, LaneKey, Notifier, PoolBuilder, ResizeAction, ResizePolicy, WorkerPool,
};
pub use crate::scheduler::{Engine, EngineBuilder};
pub use crate::stats::{CoreStats, FarmStats};
