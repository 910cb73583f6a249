//! # pilfill-serve
//!
//! Fill as a service: a persistent daemon that serves fill, density,
//! and verify requests over a length-prefixed binary frame protocol
//! (TCP or unix sockets), composing three pieces the batch CLI already
//! proved out:
//!
//! - a **design store + [`FlowContext`] LRU** keyed so that repeated
//!   and *edited* designs hit the incremental
//!   [`rebuild_owned`](pilfill_core::FlowContext::rebuild_owned) path
//!   instead of a cold build — the ECO-loop shape the paper's flow
//!   actually deploys in;
//! - **fair scheduling** ([`pilfill_exec::FairPool`]): tile batches
//!   from concurrent requests interleave round-robin on one shared
//!   worker pool, with admission control surfacing as `Busy` replies
//!   instead of unbounded queueing;
//! - a **deterministic wire format** ([`protocol`]): every fill reply
//!   carries a byte-exact outcome blob, bit-identical to the one-shot
//!   CLI for the same request at any lane count and any request
//!   interleaving.
//!
//! [`FlowContext`]: pilfill_core::FlowContext
//!
//! # Example
//!
//! ```no_run
//! use pilfill_serve::{Client, ServeOptions, Server};
//! use pilfill_serve::protocol::{DesignRef, FillParams};
//!
//! let server = Server::bind("127.0.0.1:0", &ServeOptions::default())?;
//! let addr = server.addr().to_string();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(&addr)?;
//! let params = FillParams::new(8_000, 2).expect("valid window");
//! let reply = client.fill(DesignRef::Inline("...".into()), params)?;
//! # let _ = reply;
//! # Ok::<(), std::io::Error>(())
//! ```

mod cache;
pub mod client;
mod net;
pub mod protocol;
pub mod server;
mod sha;

pub use client::Client;
pub use server::{ServeOptions, Server};
