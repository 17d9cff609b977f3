//! Multi-tenant GRBAC policy service.
//!
//! `grbac-serve` turns the in-process [`grbac_core::Grbac`] engine
//! into a long-running network service with zero heavy dependencies:
//! a threaded TCP server (one thread per connection under one cap, on
//! the connection core `grbac_obs::net` shared with the observability
//! plane) speaking newline-delimited JSON.
//! Each tenant gets a fully isolated policy domain — its own engine
//! behind its own `Arc<RwLock>` with the core's generation-swap index
//! machinery — so policy churn on one tenant never stalls decides on
//! another. Per-tenant metrics, rule heat, and watchdogs flow through
//! the existing `grbac-core` telemetry registry, exported side by
//! side with a `tenant` label.
//!
//! # Operations
//!
//! | op | what it does |
//! |----|--------------|
//! | `ping` | liveness + protocol version |
//! | `create_tenant`, `drop_tenant`, `list_tenants` | tenant lifecycle |
//! | `declare` | declare a role, subject, object, or transaction |
//! | `specialize` | add a role-hierarchy edge |
//! | `assign`, `revoke` | subject-/object-role membership |
//! | `add_rule`, `remove_rule` | policy rule edits |
//! | `decide`, `decide_batch` | mediate access requests |
//! | `explain` | decide + matched rules + rendered explanation |
//! | `status` | tenant catalog sizes + policy generation |
//! | `tick` | advance the tenant's decision watchdog |
//! | `metrics` | Prometheus exposition, tenant-labelled |
//! | `subscribe` | flip the connection into live event streaming |
//! | `unsubscribe` | stop streaming, back to request/response |
//!
//! A subscribed connection receives NDJSON **event frames** —
//! `{"event":{…},"tenant":…,"subscription":…}` — interleaved with its
//! responses as the selected tenants' engines publish telemetry events
//! (decisions, watchdog alerts, degraded-mode transitions, policy
//! delta installs, completed spans). Slow consumers lose their own
//! oldest events to a bounded drop-oldest ring (counted in the
//! `unsubscribe` response and `grbac_events_dropped_total`) and never
//! block the decide path.
//!
//! The complete wire reference — request/response shapes, error
//! codes, a client quickstart — lives in `docs/service.md`; every
//! example there is executed verbatim by the conformance suite.
//!
//! # Quickstart
//!
//! ```
//! use grbac_serve::{Client, PolicyService, ServeServer};
//! use std::sync::Arc;
//!
//! let service = Arc::new(PolicyService::with_defaults());
//! service.create_tenant("home").unwrap();
//! let server = ServeServer::serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! for line in [
//!     r#"{"op":"declare","tenant":"home","kind":"subject_role","name":"child"}"#,
//!     r#"{"op":"declare","tenant":"home","kind":"transaction","name":"use"}"#,
//!     r#"{"op":"declare","tenant":"home","kind":"subject","name":"bobby"}"#,
//!     r#"{"op":"declare","tenant":"home","kind":"object","name":"tv"}"#,
//!     r#"{"op":"add_rule","tenant":"home","effect":"permit","subject_role":"child","transaction":"use"}"#,
//!     r#"{"op":"assign","tenant":"home","kind":"subject_role","entity":"bobby","role":"child"}"#,
//! ] {
//!     assert!(client.request_line(line).unwrap().contains("\"ok\":true"));
//! }
//! let decision = client
//!     .request_line(r#"{"op":"decide","tenant":"home","subject":"bobby","transaction":"use","object":"tv"}"#)
//!     .unwrap();
//! assert!(decision.contains("\"effect\":\"permit\""));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod proto;
mod server;
mod service;

pub use client::Client;
pub use proto::{ErrorCode, WireError, OPS, PROTOCOL_VERSION};
pub use server::ServeServer;
pub use service::{PolicyService, ServiceConfig, ServiceMetrics, Tenant, WireSubscription};
