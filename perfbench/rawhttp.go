package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection to the daemon, owned by
// one load worker. The load generator writes requests and parses responses
// itself instead of going through net/http: on a 2-core host the generator
// shares the CPUs with the daemon, and the standard client cost about as
// much CPU per request as the daemon's whole handler, which both slowed
// the daemon and lengthened every request's queueing.
type httpConn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	h := &httpConn{addr: addr}
	return h, h.redial()
}

func (h *httpConn) redial() error {
	c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
	if err != nil {
		return err
	}
	h.c, h.r = c, bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// requestTimeout bounds one request/response exchange.
const requestTimeout = 20 * time.Second

// do sends one request and returns the status and body. The body is only
// valid until the next call. A transport error closes the connection; the
// next call dials again. Requests are never retried: a lost submit must
// count as failed, not be admitted twice.
func (h *httpConn) do(method, path string, body []byte) (int, []byte, error) {
	if h.c == nil {
		if err := h.redial(); err != nil {
			return 0, nil, err
		}
	}
	status, resp, err := h.exchange(method, path, body)
	if err != nil {
		h.close()
	}
	return status, resp, err
}

func (h *httpConn) exchange(method, path string, body []byte) (int, []byte, error) {
	_ = h.c.SetDeadline(time.Now().Add(requestTimeout))
	b := h.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, h.addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	h.req = b
	if _, err := h.c.Write(b); err != nil {
		return 0, nil, err
	}

	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("bad header %q", line)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closing = bytes.EqualFold(v, []byte("close"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		if err := h.readChunked(); err != nil {
			return 0, nil, err
		}
	case length >= 0:
		h.body = append(h.body, make([]byte, length)...)
		if _, err := io.ReadFull(h.r, h.body); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response without length")
	}
	if closing {
		h.close()
	}
	return status, h.body, nil
}

// readChunked appends a chunked body to h.body.
func (h *httpConn) readChunked() error {
	for {
		line, err := h.r.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.SplitN(line, []byte(";"), 2)[0])), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailers (none expected) end with an empty line.
			for {
				line, err := h.r.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		n := len(h.body)
		h.body = append(h.body, make([]byte, size)...)
		if _, err := io.ReadFull(h.r, h.body[n:]); err != nil {
			return err
		}
		if _, err := h.r.Discard(2); err != nil { // chunk CRLF
			return err
		}
	}
}

// call sends a request and decodes a 200 response into out.
func (h *httpConn) call(method, path string, body []byte, out any) (int, error) {
	status, resp, err := h.do(method, path, body)
	if err != nil || status != 200 {
		return status, err
	}
	return status, json.Unmarshal(resp, out)
}
