package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// The coordinator/worker wire protocol: four JSON POSTs over plain HTTP.
// Deliberately minimal — the determinism contract carries the real
// correctness weight (any honest execution of a cell is valid, duplicate
// results are digest-checked), so the transport only needs at-least-once
// delivery, which retry-with-backoff over idempotent requests provides.
//
//	POST /v1/lease      {} → leaseResponse
//	POST /v1/heartbeat  heartbeatRequest → 204 | 410 lease lost
//	POST /v1/complete   completeRequest  → 204 | 409 digest mismatch
//	POST /v1/fail       failRequest      → 204 | 410 lease lost
//	GET  /v1/status     → Progress
//	GET  /v1/result     → Result (once finished)

type leaseResponse struct {
	// Exactly one of: Claim (work to do), Done (grid finished, shut
	// down), or RetryMS (nothing available; ask again after this delay).
	Claim   *CellClaim `json:"claim,omitempty"`
	RetryMS int64      `json:"retry_ms,omitempty"`
	Done    bool       `json:"done,omitempty"`
}

type heartbeatRequest struct {
	Index   int    `json:"index"`
	LeaseID string `json:"lease_id"`
}

type completeRequest struct {
	Index   int         `json:"index"`
	LeaseID string      `json:"lease_id"`
	Cell    Cell        `json:"cell"`
	Info    CellRunInfo `json:"info"`
}

type failRequest struct {
	Index     int    `json:"index"`
	LeaseID   string `json:"lease_id"`
	Error     string `json:"error"`
	Transient bool   `json:"transient"`
}

// maxResponseBytes bounds a coordinator response body, as maxRequestBytes
// bounds a request. The largest legitimate response, a lease carrying one
// CellClaim, is a few hundred bytes of JSON.
const maxResponseBytes = 1 << 20

// requestTimeout is the deadline of each request a Client without its own
// HTTP client makes. The coordinator answers from memory plus at most one
// journal append, so only a stalled coordinator meets it. A variable so
// tests can shorten it.
var requestTimeout = 30 * time.Second

// Client is a worker's connection to the coordinator. Transport-level
// failures (connection refused, injected drops, 5xx) are retried with
// capped exponential backoff + jitter; protocol-level outcomes (410
// lease lost, 409 digest mismatch) surface as their sentinel errors.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// HTTP is the underlying client (nil = the default transport with a
	// deadline on each request). Chaos tests install a fault-injecting
	// RoundTripper here.
	HTTP *http.Client
	// Retries bounds transport-level retries per request (0 = 8).
	Retries int
	// RetryBase seeds the backoff schedule (0 = 50ms), capped at 2s.
	RetryBase time.Duration
	// Jitter, when non-nil, randomizes backoff delays.
	Jitter *randx.Rand
	// RetryCounter, when non-nil, counts transport-level retries
	// (nil-safe obs handle; wire a WorkerMetrics.Retries here).
	RetryCounter *obs.Counter
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 8
}

func (c *Client) backoff(attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	const ceiling = 2 * time.Second
	d := base
	for i := 0; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	if c.Jitter != nil {
		d = d/2 + time.Duration(c.Jitter.Float64()*float64(d/2))
	}
	return d
}

// post sends one JSON request, retrying transport failures (a request
// past its deadline is one). A non-nil out receives the decoded 200 body.
// A response body over maxResponseBytes fails the request. Cancelling ctx
// aborts the request in flight and the backoff waits between retries.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = &http.Client{Timeout: requestTimeout}
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			c.RetryCounter.Inc()
			select {
			case <-ctx.Done():
				return fmt.Errorf("sweep: %s: %w (last transport error: %v)", path, ctx.Err(), lastErr)
			case <-time.After(c.backoff(attempt - 1)):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("sweep: %s: %w", path, ctx.Err())
			}
			lastErr = err // connection-level: retry
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if len(data) > maxResponseBytes {
			return fmt.Errorf("sweep: %s: %s response body over %d bytes", path, resp.Status, maxResponseBytes)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			if out == nil {
				return nil
			}
			return json.Unmarshal(data, out)
		case resp.StatusCode == http.StatusNoContent:
			return nil
		case resp.StatusCode == http.StatusGone:
			return ErrLeaseLost
		case resp.StatusCode == http.StatusConflict:
			return ErrDigestMismatch
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("sweep: %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
			continue
		default:
			return fmt.Errorf("sweep: %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
		}
	}
	return fmt.Errorf("sweep: %s: retries exhausted: %w", path, lastErr)
}

// Lease asks for work: a claim, done=true (grid finished), or a retry
// delay when nothing is available yet.
func (c *Client) Lease(ctx context.Context) (claim *CellClaim, retry time.Duration, done bool, err error) {
	var resp leaseResponse
	if err := c.post(ctx, "/v1/lease", struct{}{}, &resp); err != nil {
		return nil, 0, false, err
	}
	return resp.Claim, time.Duration(resp.RetryMS) * time.Millisecond, resp.Done, nil
}

// Heartbeat renews the lease on a running cell.
func (c *Client) Heartbeat(ctx context.Context, index int, leaseID string) error {
	return c.post(ctx, "/v1/heartbeat", heartbeatRequest{Index: index, LeaseID: leaseID}, nil)
}

// Complete reports a finished cell.
func (c *Client) Complete(ctx context.Context, index int, leaseID string, cell Cell, info CellRunInfo) error {
	return c.post(ctx, "/v1/complete", completeRequest{Index: index, LeaseID: leaseID, Cell: cell, Info: info}, nil)
}

// Fail reports a cell failure (transient = retry elsewhere).
func (c *Client) Fail(ctx context.Context, index int, leaseID, msg string, transient bool) error {
	return c.post(ctx, "/v1/fail", failRequest{Index: index, LeaseID: leaseID, Error: msg, Transient: transient}, nil)
}
