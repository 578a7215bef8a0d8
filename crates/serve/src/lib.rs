//! hls-serve: the moveframe-hls synthesis-as-a-service daemon.
//!
//! A long-lived scheduling service turns the exploration engine's
//! content-addressed cache into a *warm* cache: the first request for a
//! (DFG, design-point) pair computes, every identical request after it
//! is a memoized lookup — which is exactly the workload of an
//! interactive design-space exploration front end. The daemon is built
//! entirely on `std`:
//!
//! * a hand-rolled HTTP/1.1 subset ([`http`]) with an incremental
//!   parser — the container is offline, so no tokio/hyper;
//! * a single-threaded readiness reactor (epoll on Linux, `poll(2)`
//!   elsewhere) owning every connection: keep-alive, bounded
//!   pipelining with in-order responses, slow-loris and idle
//!   timeouts;
//! * a bounded admission queue ([`queue`]) between the reactor and
//!   the compute workers — overload answers **429** on the live
//!   connection instead of queueing unboundedly;
//! * `POST /batch`: many jobs in one request, fanned out over the
//!   exploration pool, answered as one in-order JSON array;
//! * a tiered result cache: in-memory LRU over an optional
//!   content-addressed on-disk layer (`--cache-dir`) that survives
//!   restarts;
//! * per-request deadlines riding the scheduler's cooperative
//!   [`moveframe::CancelToken`] checkpoints — overruns answer **504**
//!   and never poison the cache or the worker pool;
//! * graceful drain-and-shutdown on SIGINT/SIGTERM ([`signal`]):
//!   admission stops, admitted requests finish, then the process exits;
//! * `/healthz`, `/metrics` (Prometheus text) and structured
//!   access-log events through any [`hls_telemetry::TraceSink`].
//!
//! Start it with `mfhls serve --addr 127.0.0.1:7433`, then:
//!
//! ```text
//! curl -s 'localhost:7433/schedule?cs=4' --data-binary @examples/diffeq.dfg
//! curl -s localhost:7433/schedule -d '{"benchmark":"diffeq","alg":"mfsa","cs":4}'
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod http;
mod json;
#[allow(unsafe_code)]
mod poller;
mod queue;
mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use api::{benchmark, handle, parse_job, point_json, run_batch, try_warm, AppState, Emit, Job};
pub use http::{
    parse_request, percent_decode, read_request, reason, HttpError, Parsed, Request, Response,
};
pub use json::{escape_into, parse_flat_array, parse_flat_object, JsonValue};
pub use queue::Bounded;
pub use server::{ServeConfig, Server, WorkerHold};
