//! Multi-tenant event server for the DiEvent pipeline.
//!
//! A single long-running process multiplexing many concurrent dining
//! events: each tenant (an [`EventId`](dievent_core::EventId)) gets
//! its own streaming
//! [`PipelineSession`](dievent_core::PipelineSession), fed over a
//! dependency-free framed TCP protocol
//! (`[u32 len][u8 tag][body]` — see [`proto`]) whose ingest messages
//! decode 1:1 onto the typed
//! [`SessionInput`](dievent_core::SessionInput) API.
//!
//! * **Admission control** — session quota, duplicate-event and
//!   drain-state checks at `OpenEvent`, each refusal a typed
//!   [`RejectCode`] on the wire.
//! * **Per-tenant quotas** — every tenant's bounded per-camera queues
//!   are sized from one server-wide in-flight budget; `Block` stalls
//!   only that tenant's connection, `DropOldest` sheds and counts per
//!   tenant.
//! * **Fair scheduling** — all tenants share the global thread pool,
//!   whose one FIFO queue interleaves every tenant's frame chunks, so a
//!   hot event competes for worker slots rather than monopolizing cores.
//! * **Observability** — one shared plane; every session metric
//!   carries a `tenant` label, and `GET /tenants` serves a live
//!   per-tenant JSON snapshot.
//! * **Graceful drain** — `Drain` (wire) or
//!   [`EventServer::drain`] finishes every in-flight session before
//!   exit; new events are refused while draining.
//!
//! ```no_run
//! use dievent_server::{EventServer, ServerConfig};
//!
//! let server = EventServer::bind(
//!     "127.0.0.1:0".parse().unwrap(),
//!     ServerConfig::default(),
//! ).unwrap();
//! println!("ingest on {}", server.local_addr());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
mod server;
mod tenant;

pub use client::{ControlReply, EventClient, FinishedEvent, Rejection};
pub use proto::{ClientMsg, ProtoError, RejectCode, RejectOp, ServerMsg, MAX_BODY, MAX_DIM};
pub use server::EventServer;
pub use tenant::{ServerConfig, TenantSnapshot};
