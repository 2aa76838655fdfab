package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDropsStalledHeader: a client that sends part of a request
// header and then stalls is disconnected once readHeaderTimeout passes,
// without a response, while a client that sends its whole header is
// served.
func TestServerDropsStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	go srv.Serve(ln)
	defer srv.Close()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// A server that never drops the connection fails the test here,
		// not at the test binary's timeout.
		conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
		return conn
	}

	whole := dial()
	defer whole.Close()
	if _, err := io.WriteString(whole, "GET /v1/status HTTP/1.1\r\nHost: coordinator\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(whole), nil)
	if err != nil {
		t.Fatalf("a whole header was not served: %v", err)
	}
	resp.Body.Close()

	stalled := dial()
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, "GET /v1/status HTTP/1.1\r\nHost: coord"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(stalled)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("the stalled connection was not closed after %v: %v", elapsed.Round(time.Millisecond), err)
	}
	if len(got) != 0 {
		t.Errorf("a stalled header got a response: %q", got)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Errorf("disconnected after %v, before the %v header timeout", elapsed.Round(time.Millisecond), readHeaderTimeout)
	}
	if elapsed > readHeaderTimeout+2*time.Second {
		t.Errorf("disconnected after %v, want within about the %v header timeout", elapsed.Round(time.Millisecond), readHeaderTimeout)
	}
}

// TestServerDropsStalledBody: a client that sends a whole header and
// part of the body it announced, then stalls, is cut off once readTimeout
// passes: the handler's read of the body fails, so the request is never
// served as if whole, while a client that sends its whole body is served.
func TestServerDropsStalledBody(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, "ok")
	}))
	go srv.Serve(ln)
	defer srv.Close()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(readTimeout + 10*time.Second))
		return conn
	}
	const header = "POST /v1/heartbeat HTTP/1.1\r\nHost: coordinator\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\r\n"

	whole := dial()
	defer whole.Close()
	if _, err := io.WriteString(whole, header+`{"index":1,"x":}`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(whole), nil)
	if err != nil {
		t.Fatalf("a whole request was not served: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a whole request got status %d", resp.StatusCode)
	}

	stalled := dial()
	defer stalled.Close()
	start := time.Now()
	if _, err := io.WriteString(stalled, header+`{"index"`); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(stalled)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("the stalled connection was not closed after %v: %v", elapsed.Round(time.Millisecond), err)
	}
	if resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(got)), nil); err == nil && resp.StatusCode == http.StatusOK {
		t.Errorf("a stalled body was served as whole: %q", got)
	}
	if elapsed < readTimeout-time.Second {
		t.Errorf("cut off after %v, before the %v read timeout", elapsed.Round(time.Millisecond), readTimeout)
	}
	if elapsed > readTimeout+2*time.Second {
		t.Errorf("cut off after %v, want within about the %v read timeout", elapsed.Round(time.Millisecond), readTimeout)
	}
}
