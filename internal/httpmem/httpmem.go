// Package httpmem serves HTTP handlers in-process. A Transport maps
// reserved hosts to handlers and implements http.RoundTripper by calling
// the handler directly, so a process that owns both ends of an HTTP
// surface keeps its requests, responses and handlers and drops the
// sockets: no listener, no connection, no serve loop.
//
// A handler sees what a server would hand it (a request with a non-nil
// body, RequestURI set and its own path values), and its status, headers
// and body come back as the client's *http.Response. What a server adds
// on the wire (Date, Content-Length, a sniffed Content-Type) is left out;
// Response.ContentLength is set.
package httpmem

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Transport is a host-to-handler table. Its zero value is ready to use.
type Transport struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler
}

// Serve registers h and returns its base URL ("http://hN.invalid"). The
// .invalid top-level domain never resolves, so a URL from Serve cannot
// reach a real host by mistake.
func (t *Transport) Serve(h http.Handler) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handlers == nil {
		t.handlers = map[string]http.Handler{}
	}
	host := "h" + strconv.Itoa(len(t.handlers)+1) + ".invalid"
	t.handlers[host] = h
	return "http://" + host
}

// RoundTrip serves req with the handler registered for its host. An
// unknown host is an error, as a failed dial is.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	h, ok := t.handlers[req.URL.Host]
	t.mu.RUnlock()
	if !ok {
		closeBody(req)
		return nil, fmt.Errorf("httpmem: no handler for host %q", req.URL.Host)
	}
	return Do(h, req), nil
}

// Do serves req with h on the calling goroutine and returns h's answer as
// a client response. The handler runs on a clone of req, so path values
// and other fields a ServeMux writes never reach the caller's request.
// Do closes req.Body.
func Do(h http.Handler, req *http.Request) *http.Response {
	defer closeBody(req)
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	if in.Host == "" {
		in.Host = req.URL.Host
	}
	if in.Body == nil {
		in.Body = http.NoBody
	}
	w := &recorder{header: http.Header{}}
	h.ServeHTTP(w, in)
	w.WriteHeader(http.StatusOK) // a handler that wrote nothing answers 200
	return &http.Response{
		Status:        strconv.Itoa(w.status) + " " + http.StatusText(w.status),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.sent,
		Body:          io.NopCloser(bytes.NewReader(w.body.Bytes())),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// recorder is the handler's http.ResponseWriter. The headers are
// snapshotted when the status is written, as a server sends them then.
type recorder struct {
	header http.Header
	sent   http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.header }

func (w *recorder) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	w.sent = w.header.Clone()
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
