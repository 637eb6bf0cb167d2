#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Permutation-as-a-service: the paper's index-to-permutation
//! machinery behind a long-running socket server.
//!
//! The paper's motivating deployment is a converter that *feeds other
//! machines* — "parallel machines interacting through a shared
//! memory". This crate is that deployment boundary as software: a
//! TCP / Unix-socket server speaking a length-prefixed protocol
//! ([`frame`]) of JSON control frames ([`json`], [`protocol`]) and
//! binary packed-permutation data frames, multiplexing requests over a
//! sharded worker pool ([`server`]):
//!
//! | request         | backed by                                              |
//! |-----------------|--------------------------------------------------------|
//! | `unrank`        | `hwperm_factoradic::Unranker`                          |
//! | `rank`          | `hwperm_factoradic::rank_u64`                          |
//! | `block`         | `hwperm_factoradic::BlockDecoder`, sharded per worker  |
//! | `random-stream` | `hwperm_core::GuardedPermSource` (fallback policy)     |
//! | `verify`        | `hwperm_verify::Sweep`, cached per `n`                 |
//! | `stats`         | server-wide counters                                   |
//! | `shutdown`      | graceful drain                                         |
//!
//! Responses reuse the CLI's JSON envelope schema
//! (`{"tool","version","command","status","exit","errors","results"}`)
//! extended with a per-request `"metrics"` trailer; bulk permutation
//! data travels as little-endian packed `u64` words in binary frames,
//! so block serving stays within sight of in-process decode rates.
//!
//! ```no_run
//! use hwperm_serve::{spawn, Client, Listener, ServeOptions};
//!
//! let listener = Listener::bind_tcp("127.0.0.1:0")?;
//! let server = spawn(listener, ServeOptions::default())?;
//! let mut client = Client::connect(server.endpoint())?;
//! let response = client.request(r#"{"id":1,"cmd":"unrank","n":4,"index":11}"#).unwrap();
//! assert!(response.is_ok());
//! server.stop()?;
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod chaos;
pub mod client;
pub mod frame;
pub mod json;
pub mod protocol;
pub mod server;

pub use chaos::{ChaosProxy, ChaosReport, Fault};
pub use client::{
    envelope_id, request_is_replayable, Client, ClientError, Message, Response, RetryClient,
    RetryPolicy, RetryStats,
};
pub use frame::{
    encode_frame, read_frame, write_frame, FrameError, KIND_BLOCK, KIND_JSON, MAX_FRAME,
};
pub use json::{envelope, Json, JsonError};
pub use protocol::{
    decode_chunk, encode_chunk, error_result, parse_request, request_attempt, BlockChunk, Request,
    RequestError, CHUNK_CAP, CHUNK_FLAG_LAST, CHUNK_HEADER, DEFAULT_CHUNK,
};
pub use server::{
    serve, spawn, Endpoint, Listener, ServeOptions, ServeSummary, ServerHandle, DEADLINE_MSG,
    DEFAULT_DRAIN_MS, STREAM_SPOT_CHECK_EVERY, WRITE_QUEUE_DEPTH,
};
