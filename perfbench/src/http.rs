//! A minimal HTTP/1.1 client for the campaign service: one request per
//! connection, response read to end of stream, chunked bodies decoded.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Status code and decoded body of a response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    client: &str,
    body: &str,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Client: {client}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("{method} {path}: {e}"))?;
    parse_response(&raw).map_err(|e| format!("{method} {path}: {e}"))
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or("no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|e| e.to_string())?;
    let payload = &raw[split + 4..];
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or("bad status line")?;
    let chunked = lines.any(|line| {
        line.to_ascii_lowercase().starts_with("transfer-encoding:") && line.contains("chunked")
    });
    let body = if chunked { dechunk(payload)? } else { payload.to_vec() };
    Ok(Response { status, body: String::from_utf8(body).map_err(|e| e.to_string())? })
}

fn dechunk(mut payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let end = payload.windows(2).position(|w| w == b"\r\n").ok_or("torn chunk size")?;
        let size_text = std::str::from_utf8(&payload[..end]).map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(size_text.trim(), 16)
            .map_err(|_| format!("bad chunk size `{size_text}`"))?;
        payload = &payload[end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if payload.len() < size + 2 {
            return Err("torn chunk".to_string());
        }
        out.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_plain_and_chunked_bodies() {
        let plain = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!((plain.status, plain.body.as_str()), (200, "ok"));
        let chunked = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(chunked.body, "ab\ncd");
        assert!(parse_response(b"HTTP/1.1 429 Too Many\r\n\r\n").is_ok_and(|r| r.status == 429));
        assert!(parse_response(b"garbage").is_err());
    }
}
