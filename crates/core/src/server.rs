//! Networked session layer: a minimal length-prefixed text protocol
//! over TCP, thread-per-connection, one [`Session`] per connection.
//!
//! ## Wire format
//!
//! Every message — both directions — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 text.
//!
//! Client commands:
//!
//! | command            | reply                                        |
//! |--------------------|----------------------------------------------|
//! | `Q <sql>`          | `T <n>\n<cols>\n<row>…` (tab-separated) or `E <msg>` |
//! | `SET <name> <val>` | `OK` or `E <msg>`                            |
//! | `PING`             | `OK pong`                                    |
//! | `CLOSE`            | `OK bye`, then the server closes the stream  |
//!
//! Errors never kill the connection: an `E` reply leaves the session
//! usable for the next command. That includes a result too large for
//! one frame: the `Q` handler renders batches into the reply as they
//! arrive and stops at the frame cap with an `E` reply. Dropping the
//! TCP stream mid-query cancels the query through the session's
//! cancellation token (the per-connection thread closes its
//! [`Session`] on its way out).

use orthopt_synccheck::sync::atomic::{AtomicBool, Ordering};
use orthopt_synccheck::sync::thread::{self, JoinHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

use orthopt_common::column::Column;
use orthopt_common::Result;

use crate::column_names;
use crate::session::{Engine, Session};
use crate::Error;

/// Upper bound on one frame's payload (16 MiB) — a corrupt length
/// prefix must not trigger an unbounded allocation.
const MAX_FRAME: u32 = 16 << 20;

/// The `E` reply to a `Q` whose result does not fit one frame.
const FRAME_CAP_REPLY: &str =
    "E result exceeds the 16 MiB frame cap (add LIMIT or narrow the select list)";

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    write_frame_parts(w, &[payload])
}

/// Writes one frame whose payload is the concatenation of `parts`.
fn write_frame_parts(w: &mut impl Write, parts: &[&str]) -> std::io::Result<()> {
    let len = u32::try_from(parts.iter().map(|p| p.len()).sum::<usize>())
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| std::io::Error::other("frame payload too large"))?;
    w.write_all(&len.to_be_bytes())?;
    for p in parts {
        w.write_all(p.as_bytes())?;
    }
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::other(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| std::io::Error::other("frame payload is not UTF-8"))
}

/// Appends one result batch to a `T` reply's row lines: a newline, then
/// the row's lanes tab-separated, written off the typed columns.
fn render_batch(body: &mut String, columns: &[Column], len: usize) {
    for i in 0..len {
        body.push('\n');
        for (j, c) in columns.iter().enumerate() {
            if j > 0 {
                body.push('\t');
            }
            c.value_ref(i)
                .write_to(body)
                .expect("writing to a String cannot fail");
        }
    }
}

enum Reply {
    Text(String),
    /// A `T` reply: `T <n>\n<cols>`, then the rendered row lines.
    Table {
        head: String,
        body: String,
    },
    Close,
}

/// Runs `sql` and renders its result as the `T` reply — row count,
/// header line, then one tab-separated line per row — batch by batch,
/// without materializing the rows. A result over the frame cap aborts
/// the query and becomes an `E` reply.
fn query(session: &mut Session, sql: &str) -> Result<Reply> {
    let cap = MAX_FRAME as usize;
    let (mut body, mut rows, mut capped) = (String::new(), 0, false);
    let run = session.execute_each(sql, &mut |columns, len| {
        render_batch(&mut body, columns, len);
        rows += len;
        if body.len() > cap {
            capped = true;
            return Err(Error::Exec("reply over the frame cap".to_string()));
        }
        Ok(())
    });
    if capped {
        return Ok(Reply::Text(FRAME_CAP_REPLY.to_string()));
    }
    let head = format!("T {rows}\n{}", column_names(&run?.output).join("\t"));
    if head.len() + body.len() > cap {
        return Ok(Reply::Text(FRAME_CAP_REPLY.to_string()));
    }
    Ok(Reply::Table { head, body })
}

fn dispatch(session: &mut Session, line: &str) -> Result<Reply> {
    let line = line.trim();
    if line == "PING" {
        return Ok(Reply::Text("OK pong".to_string()));
    }
    if line == "CLOSE" {
        return Ok(Reply::Close);
    }
    if let Some(rest) = line.strip_prefix("SET ") {
        let mut it = rest.trim().splitn(2, char::is_whitespace);
        let name = it.next().unwrap_or("");
        let value = it.next().unwrap_or("").trim();
        session.set(name, value)?;
        return Ok(Reply::Text("OK".to_string()));
    }
    if let Some(sql) = line.strip_prefix("Q ") {
        return query(session, sql);
    }
    Err(Error::Plan(format!("unknown command: {line}")))
}

/// Serves one connection until EOF, `CLOSE`, or an I/O failure. Session
/// errors become `E` replies; the session survives them.
fn serve_connection(engine: &Arc<Engine>, stream: TcpStream) {
    // Frames are two small writes (length, payload); without NODELAY,
    // Nagle + delayed ACK adds ~40 ms per direction to every command.
    let _ = stream.set_nodelay(true);
    let mut session = engine.session();
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        let sent = match dispatch(&mut session, &frame) {
            Ok(Reply::Close) => {
                let _ = write_frame(&mut writer, "OK bye");
                break;
            }
            Ok(Reply::Text(t)) => write_frame(&mut writer, &t),
            Ok(Reply::Table { head, body }) => write_frame_parts(&mut writer, &[&head, &body]),
            Err(e) => write_frame(&mut writer, &format!("E {e}")),
        };
        if sent.is_err() {
            break;
        }
    }
    // Connection gone (or closed): abort anything the session still has
    // in flight so a vanished client cannot pin shared resources.
    session.close();
}

/// A TCP server bound to an address but not yet accepting. Call
/// [`spawn`](Server::spawn) to start the accept loop on a background
/// thread.
#[derive(Debug)]
pub struct Server {
    engine: Arc<Engine>,
    listener: TcpListener,
}

impl Server {
    /// Binds to `addr` (use `127.0.0.1:0` for an ephemeral test port).
    pub fn bind(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Ok(Server {
            engine,
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop: one named thread accepting, one thread
    /// per connection serving. Returns a handle whose
    /// [`shutdown`](ServerHandle::shutdown) stops accepting.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let engine = self.engine;
        let listener = self.listener;
        let join = thread::spawn_named("orthopt-server", move || {
            for conn in listener.incoming() {
                // relaxed-ok: a stop flag checked in a loop; the accept
                // thread acts on the flag alone and the final `join`
                // synchronizes everything else.
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let engine = Arc::clone(&engine);
                drop(thread::spawn_named("orthopt-conn", move || {
                    serve_connection(&engine, stream);
                }));
            }
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Handle on a running server's accept loop. Existing connections keep
/// their sessions after [`shutdown`](ServerHandle::shutdown); only new
/// connections stop being accepted.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the accept thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    fn stop_accepting(&self) {
        // relaxed-ok: see the accept-loop load; flag-only protocol.
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in `incoming`; poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_accepting();
        }
    }
}

/// A blocking protocol client (tests, the concurrent benchmark
/// driver): frames commands, unwraps `E` replies into [`Error`]s.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one command frame and returns the reply payload; `E`
    /// replies surface as [`Error::Exec`].
    pub fn send(&mut self, command: &str) -> Result<String> {
        write_frame(&mut self.stream, command).map_err(io_error)?;
        match read_frame(&mut self.stream).map_err(io_error)? {
            Some(reply) => match reply.strip_prefix("E ") {
                Some(msg) => Err(Error::Exec(format!("server: {msg}"))),
                None => Ok(reply),
            },
            None => Err(Error::Exec("server closed the connection".to_string())),
        }
    }

    /// Runs `Q <sql>` and returns the raw `T` reply.
    pub fn query(&mut self, sql: &str) -> Result<String> {
        self.send(&format!("Q {sql}"))
    }

    /// Runs `SET <name> <value>`.
    pub fn set(&mut self, name: &str, value: &str) -> Result<()> {
        self.send(&format!("SET {name} {value}")).map(|_| ())
    }

    /// Round-trips a `PING`.
    pub fn ping(&mut self) -> Result<()> {
        let reply = self.send("PING")?;
        if reply == "OK pong" {
            Ok(())
        } else {
            Err(Error::Exec(format!("unexpected ping reply: {reply}")))
        }
    }

    /// Sends `CLOSE` and drops the connection.
    pub fn close(mut self) -> Result<()> {
        self.send("CLOSE").map(|_| ())
    }
}

fn io_error(e: std::io::Error) -> Error {
    Error::Exec(format!("io: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello Ω").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello Ω"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }
}
