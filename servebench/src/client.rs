//! A small blocking HTTP/1.1 client of the benchmark's own, so the
//! measuring side does not change when the program's client code does.
//! It sends prebuilt request bytes over one keep-alive connection and
//! reads sized or chunked replies into reused buffers.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed.
    buf: Vec<u8>,
    /// The last reply's body.
    pub body: Vec<u8>,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Bounds a stall on a hung server; no healthy reply takes this long.
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(64 * 1024), body: Vec::with_capacity(64 * 1024) })
    }

    /// Send one request and read its reply; the body is left in
    /// [`Conn::body`]. Returns the status code.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<u16> {
        self.stream.write_all(request)?;
        let head_end = self.read_until(b"\r\n\r\n", 0)?;
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let (mut length, mut chunked) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| invalid("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        self.buf.drain(..head_end + 4);
        self.body.clear();
        if chunked {
            self.read_chunked()?;
        } else {
            let length = length.ok_or_else(|| invalid("reply without length"))?;
            self.fill_to(length)?;
            self.body.extend_from_slice(&self.buf[..length]);
            self.buf.drain(..length);
        }
        Ok(status)
    }

    /// Read until `buf` holds at least `n` bytes.
    fn fill_to(&mut self, n: usize) -> io::Result<()> {
        let mut chunk = [0u8; 32 * 1024];
        while self.buf.len() < n {
            let got = self.stream.read(&mut chunk)?;
            if got == 0 {
                return Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..got]);
        }
        Ok(())
    }

    /// Read until `needle` appears at or after `from`; its offset.
    fn read_until(&mut self, needle: &[u8], from: usize) -> io::Result<usize> {
        let mut scanned = from;
        loop {
            if let Some(pos) = self.buf[scanned..].windows(needle.len()).position(|w| w == needle) {
                return Ok(scanned + pos);
            }
            scanned = self.buf.len().saturating_sub(needle.len() - 1).max(from);
            let want = self.buf.len() + 1;
            self.fill_to(want)?;
        }
    }

    fn read_chunked(&mut self) -> io::Result<()> {
        loop {
            let line_end = self.read_until(b"\r\n", 0)?;
            let size = std::str::from_utf8(&self.buf[..line_end])
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                .ok_or_else(|| invalid("bad chunk size"))?;
            self.buf.drain(..line_end + 2);
            self.fill_to(size + 2)?;
            if &self.buf[size..size + 2] != b"\r\n" {
                return Err(invalid("chunk without CRLF"));
            }
            self.body.extend_from_slice(&self.buf[..size]);
            self.buf.drain(..size + 2);
            if size == 0 {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve canned replies on a loopback socket, one per request head.
    fn canned(replies: Vec<&'static [u8]>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            for reply in replies {
                let mut byte = [0u8; 1];
                while !seen.ends_with(b"\r\n\r\n") {
                    sock.read_exact(&mut byte).unwrap();
                    seen.push(byte[0]);
                }
                seen.clear();
                // Dribble the reply to exercise partial reads.
                for piece in reply.chunks(7) {
                    sock.write_all(piece).unwrap();
                }
            }
        });
        (addr, server)
    }

    #[test]
    fn reads_sized_and_chunked_replies_on_one_connection() {
        let (addr, server) = canned(vec![
            b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
        ]);
        let mut conn = Conn::connect(addr).unwrap();
        let get = b"GET / HTTP/1.1\r\n\r\n";
        assert_eq!(conn.exchange(get).unwrap(), 200);
        assert_eq!(conn.body, b"hello");
        assert_eq!(conn.exchange(get).unwrap(), 200);
        assert_eq!(conn.body, b"abcde");
        assert_eq!(conn.exchange(get).unwrap(), 404);
        assert!(conn.body.is_empty());
        server.join().unwrap();
    }
}
