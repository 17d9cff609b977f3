//! A small blocking client for the NDJSON policy protocol: one
//! request line out, one response line back. Used by the examples,
//! the load harness, and the docs conformance suite — and usable as a
//! reference implementation for clients in other languages.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

/// A connected protocol client.
///
/// ```no_run
/// use grbac_serve::Client;
///
/// let mut client = Client::connect("127.0.0.1:7471").unwrap();
/// let pong = client.request_line(r#"{"op":"ping"}"#).unwrap();
/// assert!(pong.contains("\"ok\":true"));
/// ```
#[derive(Debug)]
pub struct Client {
    /// The one socket: reads go through the buffer, writes straight to
    /// the socket underneath it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects and applies a 30-second read timeout.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Sends one raw request line and reads one response line (both
    /// without trailing newlines).
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected EOF before a response line
    /// arrived (e.g. the server closed the connection after
    /// `line_too_long`).
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request: a line split from its newline costs
        // the server a second wake-up.
        self.stream
            .get_mut()
            .write_all(&[line.as_bytes(), b"\n"].concat())?;
        let mut response = String::new();
        let n = self.stream.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends a request value and parses the response envelope.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Self::request_line`], or
    /// `InvalidData` if the response line is not valid JSON.
    pub fn request(&mut self, request: &Value) -> std::io::Result<Value> {
        let line = serde_json::to_string(request).map_err(|err| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{err:?}"))
        })?;
        let response = self.request_line(&line)?;
        serde_json::from_str(&response).map_err(|err| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("invalid response JSON: {err:?}"),
            )
        })
    }

    /// Replaces the read timeout (the default from
    /// [`Self::connect`] is 30 seconds). While streaming a
    /// subscription, set this to how long you are willing to wait for
    /// the next event frame.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Reads one frame off a streaming connection — either an event
    /// frame (has an `event` key) or a response envelope (has an `ok`
    /// key) — without sending anything.
    ///
    /// # Errors
    ///
    /// Transport failures (including the read timeout elapsing with no
    /// frame buffered), EOF, or invalid JSON on the line.
    pub fn next_frame(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        let n = self.stream.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(line.trim()).map_err(|err| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("invalid frame JSON: {err:?}"),
            )
        })
    }

    /// Sends `unsubscribe` and reads until the response envelope comes
    /// back, returning `(response, in_flight_event_frames)` — frames
    /// the server pumped out before it processed the unsubscribe are
    /// collected, not lost.
    ///
    /// # Errors
    ///
    /// Transport failures as in [`Self::next_frame`].
    pub fn unsubscribe(&mut self) -> std::io::Result<(Value, Vec<Value>)> {
        self.stream
            .get_mut()
            .write_all(b"{\"op\":\"unsubscribe\"}\n")?;
        let mut events = Vec::new();
        loop {
            let frame = self.next_frame()?;
            if frame.get("ok").is_some() {
                return Ok((frame, events));
            }
            events.push(frame);
        }
    }
}
