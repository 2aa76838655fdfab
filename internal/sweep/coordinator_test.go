package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoordinatorRejectsOversizedBody posts requests over the body bound
// against a live lease: each must get 413 and leave the queue and its
// journal untouched, while the same request at a normal size goes
// through.
func TestCoordinatorRejectsOversizedBody(t *testing.T) {
	opts := Options{Scenarios: []string{microName(t, "paper-baseline")}, Seeds: []uint64{20190301}}
	co, err := NewCoordinator(opts, QueueConfig{Lease: time.Minute, MaxAttempts: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	if _, err := co.OpenJournal(journal, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)

	post := func(path string, in any) *http.Response {
		t.Helper()
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	var lease leaseResponse
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&lease)
	resp.Body.Close()
	if err != nil || lease.Claim == nil {
		t.Fatalf("lease: %+v, %v", lease, err)
	}
	claim := lease.Claim

	progress, infos := co.Progress(), co.CellInfos()
	journaled, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", maxRequestBytes)
	for path, in := range map[string]any{
		"/v1/fail":     failRequest{Index: claim.Index, LeaseID: claim.LeaseID, Error: huge, Transient: true},
		"/v1/complete": completeRequest{Index: claim.Index, LeaseID: claim.LeaseID, Cell: Cell{Scenario: huge}},
	} {
		if resp := post(path, in); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte field: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	if got := co.Progress(); got != progress {
		t.Errorf("progress moved: %+v, want %+v", got, progress)
	}
	if got := co.CellInfos(); !reflect.DeepEqual(got, infos) {
		t.Errorf("cell infos moved: %+v, want %+v", got, infos)
	}
	if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, journaled) {
		t.Errorf("journal changed: %d bytes, want %d (%v)", len(got), len(journaled), err)
	}

	resp = post("/v1/fail", failRequest{Index: claim.Index, LeaseID: claim.LeaseID, Error: "released", Transient: true})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("normal-size fail: status %d, want 204", resp.StatusCode)
	}
	if got := co.Progress(); got.Leased != 0 {
		t.Errorf("normal-size fail did not release the lease: %+v", got)
	}
}

// TestClientDeadlineOnStalledCoordinator: a coordinator that sends its
// headers and then stalls mid-body fails a Client without its own HTTP
// client once each attempt's deadline passes, instead of hanging the
// worker.
func TestClientDeadlineOnStalledCoordinator(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = 100 * time.Millisecond
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"claim":`)
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := &Client{BaseURL: srv.URL, Retries: 1, RetryBase: time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Lease(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a stalled response body leased successfully")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lease still waiting on a stalled coordinator after 5s: no request deadline")
	}
}

// TestClientBoundsResponseBody: a response body of maxResponseBytes reads
// and decodes; one byte more fails the request without a retry.
func TestClientBoundsResponseBody(t *testing.T) {
	body := func(n int) string {
		const head, tail = `{"retry_ms":7,"pad":"`, `"}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	for _, c := range []struct {
		size int
		ok   bool
	}{{maxResponseBytes, true}, {maxResponseBytes + 1, false}} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body(c.size))
		}))
		_, retry, _, err := (&Client{BaseURL: srv.URL, RetryBase: time.Millisecond}).Lease(context.Background())
		srv.Close()
		switch {
		case c.ok && (err != nil || retry != 7*time.Millisecond):
			t.Errorf("a %d-byte response: retry %v, err %v; want 7ms", c.size, retry, err)
		case !c.ok && (err == nil || calls.Load() != 1):
			t.Errorf("a %d-byte response: err %v after %d calls; want a failure after 1", c.size, err, calls.Load())
		}
	}
}
