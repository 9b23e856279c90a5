//! `sfqt1d` — the long-running SFQ flow daemon, as a library.
//!
//! This crate turns the workspace's batch flow machinery into a service:
//! many clients connect to one daemon over a Unix-domain socket, submit
//! designs (inline bytes or paths), and get per-design result rows
//! **streamed back in input order as each flow finishes**. All clients
//! share one bounded, content-hash-keyed design cache, so repeated
//! submissions of the same design — from any client, by path or inline —
//! pay for one parse.
//!
//! The crate is library-first: the `sfqt1d` binary in `sfq-cli` is a thin
//! argument-parsing wrapper around [`serve`], and the integration tests run
//! the daemon in-process on a background thread. Layers:
//!
//! * [`protocol`] — the line-oriented wire protocol (requests, replies,
//!   framing of inline design bytes);
//! * [`state`] — daemon-lifetime shared state: the design cache and the
//!   ok/failed/panicked/timed-out counters behind `STATS`;
//! * [`jobs`] — the streaming job engine shared with `sfqt1 flow --batch`:
//!   supervised flows fanned over workers, rows emitted in input order as
//!   they unblock;
//! * [`queue`] — the closable connection work queue whose stop/drain
//!   semantics carry the shutdown contract (model-checked under the `chk`
//!   feature, see [`sync`]);
//! * [`daemon`] — acceptor loop, connection thread pool, graceful shutdown
//!   on `STOP` / `SIGTERM` / idle timeout;
//! * [`client`] — the client calls the CLI's `--daemon` mode is built on.
//!
//! Rows use the exact `sfqt1 flow --batch` rendering, so a batch served
//! through the daemon is byte-identical to one run locally — the
//! acceptance bar the integration tests and the `daemon` CI job hold.

// Every public item in this workspace is documented; keep it that way.
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod jobs;
pub mod protocol;
pub mod queue;
pub mod state;
pub mod sync;

pub use client::ClientError;
pub use daemon::{serve, ServerConfig, ServerError};
pub use jobs::{
    run_jobs_streamed, run_verify_jobs_streamed, table_header, verify_table_header, JobEntry,
    JobRow, VerifyOptions,
};
pub use protocol::{DesignSource, FlowOptions, FlowRequest, Request, StatsReply};
pub use queue::WorkQueue;
pub use state::{OutcomeKind, ServerState};
