package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeadersAreCut checks that the daemon's listener-facing server
// closes a connection whose request headers never finish arriving, instead
// of holding it open forever.
func TestStalledHeadersAreCut(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		t.Error("handler ran for a request whose headers never finished")
	})
	srv := newHTTPServer(handler)
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	// Shorten the deadline so the test runs in well under a second; the
	// wiring under test is the same.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, then silence: no blank line ever ends
	// the header block.
	if _, err := io.WriteString(conn, "POST /v1/tasks HTTP/1.1\r\nHost: tracond\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still held the stalled connection after %v", time.Since(start))
	}
}
