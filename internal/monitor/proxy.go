// Package monitor implements the paper's IIP monitoring infrastructure
// (Figure 3): a UI fuzzer that drives affiliate apps' offer-wall tabs, a
// recording man-in-the-middle HTTP proxy that intercepts the resulting
// offer-wall traffic, and a milker that runs the fuzzer from multiple
// vantage countries and assembles the deduplicated offer dataset with
// payouts normalized to USD.
//
// The real study decrypted TLS with mitmproxy and a self-signed CA; the
// simulated walls speak plain HTTP, so the proxy here records forwarded
// requests directly — the architecture (stimulus generation decoupled from
// traffic interception) is identical.
//
// The proxy runs on a loopback listener (NewMilker, cmd/milker) or
// in-process, as the phone's http.RoundTripper (NewMilkerWithTransport,
// used by a study that owns its walls). Either way it forwards every
// absolute-URI request upstream and records the same exchange.
package monitor

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/httpmem"
)

// Record is one intercepted request/response pair.
type Record struct {
	URL         string
	Status      int
	ContentType string
	Body        []byte
}

// Proxy is a recording forward HTTP proxy.
type Proxy struct {
	mu      sync.Mutex
	records []Record

	server   *http.Server
	listener net.Listener
	outbound http.RoundTripper
}

// NewProxy returns an unstarted proxy that forwards over pooled TCP
// connections.
func NewProxy() *Proxy {
	return &Proxy{outbound: &http.Transport{MaxIdleConnsPerHost: inFlight, MaxConnsPerHost: inFlight}}
}

// maxBodyBytes bounds an upstream response body the proxy reads. The
// largest real one is a full ten-offer wall page: 2,452 bytes on the
// 6,000-device 121-day study, 2,601 on the default world. Past the bound
// the proxy answers 502.
const maxBodyBytes = 1 << 16

// Start binds the proxy to a loopback port. Call Stop when done.
func (p *Proxy) Start() (addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("monitor: starting proxy: %w", err)
	}
	p.listener = ln
	p.server = &http.Server{Handler: http.HandlerFunc(p.serve), ReadHeaderTimeout: 5 * time.Second}
	go p.server.Serve(ln) //nolint:errcheck // Serve returns on Stop
	return ln.Addr().String(), nil
}

// Stop shuts the proxy down.
func (p *Proxy) Stop() error {
	if p.server == nil {
		return nil
	}
	return p.server.Close()
}

// Client returns an HTTP client routing through the proxy — the Android
// phone's proxy-configured network stack in the paper's setup.
func (p *Proxy) Client() *http.Client {
	proxyURL := &url.URL{Scheme: "http", Host: p.listener.Addr().String()}
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               http.ProxyURL(proxyURL),
			MaxIdleConnsPerHost: inFlight,
			MaxConnsPerHost:     inFlight,
		},
		Timeout: 10 * time.Second,
	}
}

// RoundTrip passes one request through the proxy without a socket: the
// phone's network stack when the proxy runs in-process. The request and
// the proxy's answer are exactly what a client of the listener would
// send and receive.
func (p *Proxy) RoundTrip(r *http.Request) (*http.Response, error) {
	return httpmem.Do(http.HandlerFunc(p.serve), r), nil
}

// serve handles one proxied request: forward upstream, record, relay back.
func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	if !r.URL.IsAbs() {
		http.Error(w, "proxy expects absolute-URI requests", http.StatusBadRequest)
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, r.URL.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.outbound.RoundTrip(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err == nil && len(body) > maxBodyBytes {
		err = fmt.Errorf("monitor: upstream body over %d bytes", maxBodyBytes)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	p.mu.Lock()
	p.records = append(p.records, Record{
		URL:         r.URL.String(),
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
	})
	p.mu.Unlock()

	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// DrainRecords returns all accumulated records and clears the buffer.
func (p *Proxy) DrainRecords() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.records
	p.records = nil
	return out
}

// NumRecords returns the number of buffered records.
func (p *Proxy) NumRecords() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.records)
}
