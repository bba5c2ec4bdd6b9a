//! # httpwire — HTTP/1.1 wire format, from scratch
//!
//! Everything the davix reproduction needs from HTTP/1.1, implemented
//! directly against [`std::io::Read`]/[`std::io::Write`] so it runs on both
//! the simulated network and real sockets:
//!
//! * message heads ([`RequestHead`], [`ResponseHead`]) with a case-insensitive
//!   multi-value [`HeaderMap`];
//! * body framing: `Content-Length`, `Transfer-Encoding: chunked`
//!   (reader *and* writer, including trailers) and read-to-close, read by
//!   one resumable state machine, [`BodyFraming`], that the client and the
//!   server share; its rustdoc states the chunked framing rules;
//! * streaming request bodies ([`BodySource`]): any [`std::io::Read`] of
//!   known or unknown length, emitted with `Content-Length` or chunked
//!   framing — the write-side mirror of [`BodyFraming`];
//! * byte ranges ([`range`]): `Range` / `Content-Range` parsing and
//!   formatting, resolution against an entity size, and the range algebra
//!   (sorting, coalescing) used by vectored I/O;
//! * `multipart/byteranges` ([`multipart`]): the response format for
//!   multi-range GETs — the heart of the paper's vectored-read design (§2.3);
//! * RFC 1123 dates ([`date`]), URIs with percent-encoding ([`uri`]).
//!
//! The crate is transport- and policy-free: no sockets, no pools, no
//! retries — those live in `httpd` (server) and `davix` (client).

pub mod body;
pub mod date;
pub mod error;
pub mod headers;
pub mod message;
pub mod method;
pub mod multipart;
pub mod parse;
pub mod range;
pub mod status;
pub mod uri;

pub use body::BodySource;
pub use error::WireError;
pub use headers::HeaderMap;
pub use message::{RequestHead, ResponseHead, Version};
pub use method::Method;
pub use multipart::{MultipartReader, MultipartWriter};
pub use parse::{
    read_request_head, read_response_head, BodyFraming, BodyLen, BodyReader, ChunkedWriter,
};
pub use range::{ContentRange, RangeSpec};
pub use status::StatusCode;
pub use uri::Uri;
