//! A blocking protocol client over any `Read + Write` stream.

use std::io::{Read, Write};

use skadi_arrow::batch::RecordBatch;
use skadi_arrow::ipc;

use crate::codec::{read_packet, write_packet, WireError, DEFAULT_MAX_FRAME};
use crate::packet::{Packet, CAP_COMPRESSION, CAP_PROGRESS, PROTOCOL_VERSION};

/// One successful query's reassembled result.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// All data blocks concatenated, in stream order.
    pub batch: RecordBatch,
    /// Number of data blocks the server sent (>= 1).
    pub chunks: u32,
    /// Number of progress events observed mid-stream.
    pub progress_events: usize,
    /// Total encoded payload bytes received.
    pub payload_bytes: u64,
}

/// A connected, handshaken client session.
///
/// Works over any byte stream: a `TcpStream` against `skadi-cli serve`,
/// or one end of [`crate::duplex`] against an in-process server (the
/// deterministic test path). The client is strictly request-response:
/// one query in flight at a time.
pub struct Client<S: Read + Write> {
    stream: S,
    max_frame: usize,
    next_id: u64,
    /// The server's advertised name.
    pub server_name: String,
    /// The negotiated capability bits.
    pub capabilities: u32,
}

impl<S: Read + Write> Client<S> {
    /// Performs the handshake with default capabilities
    /// ([`CAP_PROGRESS`] | [`CAP_COMPRESSION`]) and frame bound.
    pub fn connect(stream: S, client_name: &str) -> Result<Self, WireError> {
        Client::connect_with(
            stream,
            client_name,
            CAP_PROGRESS | CAP_COMPRESSION,
            DEFAULT_MAX_FRAME,
        )
    }

    /// Performs the handshake advertising the given capability set.
    pub fn connect_with(
        mut stream: S,
        client_name: &str,
        capabilities: u32,
        max_frame: usize,
    ) -> Result<Self, WireError> {
        write_packet(
            &mut stream,
            &Packet::ClientHello {
                version: PROTOCOL_VERSION,
                capabilities,
                client_name: client_name.to_string(),
            },
        )?;
        match read_packet(&mut stream, max_frame)? {
            Packet::ServerHello {
                version,
                capabilities,
                server_name,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(WireError::VersionMismatch {
                        ours: PROTOCOL_VERSION,
                        theirs: version,
                    });
                }
                Ok(Client {
                    stream,
                    max_frame,
                    next_id: 1,
                    server_name,
                    capabilities,
                })
            }
            Packet::Exception { code, message, .. } => Err(WireError::Server { code, message }),
            other => Err(WireError::Corrupt(format!(
                "expected ServerHello, got {}",
                other.name()
            ))),
        }
    }

    /// Runs one SQL statement, blocking until the full result streamed
    /// in (or the server answered with an exception, surfaced as
    /// [`WireError::Server`]).
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        write_packet(
            &mut self.stream,
            &Packet::Query {
                id,
                sql: sql.to_string(),
            },
        )?;

        let mut blocks: Vec<RecordBatch> = Vec::new();
        let mut progress_events = 0;
        let mut payload_bytes = 0u64;
        loop {
            match read_packet(&mut self.stream, self.max_frame)? {
                Packet::Data { query_id, payload } => {
                    self.check_id(query_id, id)?;
                    payload_bytes += payload.len() as u64;
                    let batch = ipc::decode_payload(payload)
                        .map_err(|e| WireError::Arrow(e.to_string()))?;
                    blocks.push(batch);
                }
                Packet::Progress { query_id, .. } => {
                    self.check_id(query_id, id)?;
                    progress_events += 1;
                }
                Packet::Exception {
                    query_id,
                    code,
                    message,
                } => {
                    self.check_id(query_id, id)?;
                    return Err(WireError::Server { code, message });
                }
                Packet::EndOfStream { query_id, chunks } => {
                    self.check_id(query_id, id)?;
                    if chunks as usize != blocks.len() {
                        return Err(WireError::Corrupt(format!(
                            "end of stream claims {chunks} chunks, received {}",
                            blocks.len()
                        )));
                    }
                    if blocks.is_empty() {
                        return Err(WireError::Corrupt(
                            "result stream carried no data blocks".into(),
                        ));
                    }
                    // A single block passes through untouched (zero-copy
                    // from the frame), so its re-encoding is bit-for-bit
                    // the server's payload.
                    let batch = if blocks.len() == 1 {
                        blocks.pop().expect("one block")
                    } else {
                        RecordBatch::concat(&blocks).map_err(|e| WireError::Arrow(e.to_string()))?
                    };
                    return Ok(QueryResult {
                        batch,
                        chunks,
                        progress_events,
                        payload_bytes,
                    });
                }
                other => {
                    return Err(WireError::Corrupt(format!(
                        "unexpected {} inside a result stream",
                        other.name()
                    )))
                }
            }
        }
    }

    fn check_id(&self, got: u64, want: u64) -> Result<(), WireError> {
        if got != want {
            return Err(WireError::Corrupt(format!(
                "response for query {got} while query {want} is in flight"
            )));
        }
        Ok(())
    }

    /// Consumes the client, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }
}
