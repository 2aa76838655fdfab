package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// ErrDrained reports that Run stopped because its context was cancelled
// and every in-flight lease settled: the sweep is suspended, not failed.
// With a journal attached, a successor coordinator resumes it exactly
// where the drain left off.
var ErrDrained = errors.New("sweep: coordinator drained")

// Coordinator owns one distributed grid run: it expands the scenario×seed
// grid into idempotent cells, serves them to workers over the HTTP
// work-queue protocol, reissues expired leases, and assembles the
// completed cells into the same Result the in-process Run produces —
// byte-for-byte, because assembly is a pure function of the
// deterministic cell results.
type Coordinator struct {
	g       *grid
	q       *Queue
	journal *Journal
	log     *slog.Logger
	jm      *JournalMetrics
	start   time.Time
}

// NewCoordinator validates the grid and builds the work queue. Log
// lines go to o.Log (structured slog records with cell/lease/attempt
// fields); nil discards them.
func NewCoordinator(o Options, qc QueueConfig) (*Coordinator, error) {
	g, err := expandGrid(o)
	if err != nil {
		return nil, err
	}
	log := o.Log
	if log == nil {
		log = obs.Discard()
	}
	return &Coordinator{g: g, q: NewQueue(g.jobs, qc), log: log, start: time.Now()}, nil
}

// Queue exposes the underlying work queue (tests drive it directly).
func (co *Coordinator) Queue() *Queue { return co.q }

// OpenJournal makes the coordinator durable: queue transitions are
// write-ahead journaled to path, and if path already holds a journal for
// this grid (matched by content digest over the expanded job list), its
// valid prefix is replayed first — done cells re-adopted, live leases
// kept, torn tail truncated. Returns how many done cells were adopted.
// wrap, when non-nil, wraps the journal's writes (fault injection).
// Must be called before the coordinator starts serving.
func (co *Coordinator) OpenJournal(path string, wrap func(w io.Writer) io.Writer) (adopted int, err error) {
	j, rep, err := openJournal(path, gridDigest(co.g.jobs), len(co.g.jobs), wrap)
	if err != nil {
		return 0, err
	}
	if rep != nil {
		if err := co.q.restore(rep); err != nil {
			j.Close()
			return 0, err
		}
		if dropped := rep.Size - rep.ValidEnd; dropped > 0 {
			co.log.Warn("journal: truncated torn tail", "bytes", dropped)
		}
		p := co.q.Progress()
		adopted = p.Adopted
		co.log.Info("journal: replayed",
			"records", len(rep.Records), "adopted", p.Done, "total", p.Total,
			"leased", p.Leased, "pending", p.Pending)
	}
	co.journal = j
	j.SetMetrics(co.jm)
	co.q.attachJournal(j)
	return adopted, nil
}

// Handler returns the coordinator's HTTP surface.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", co.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", co.handleComplete)
	mux.HandleFunc("POST /v1/fail", co.handleFail)
	mux.HandleFunc("GET /v1/status", co.handleStatus)
	mux.HandleFunc("GET /v1/result", co.handleResult)
	return mux
}

// Run waits for the grid to finish, expiring dead workers' leases on a
// janitor timer, and assembles the final result. Cancelling ctx starts a
// graceful drain instead of aborting: no new leases go out, in-flight
// workers keep heartbeating and finish (or release) their cells, and once
// nothing is leased Run journals the drain marker and returns ErrDrained.
// If the grid completes while draining, the result is returned normally.
func (co *Coordinator) Run(ctx context.Context) (*Result, error) {
	janitor := co.q.cfg.Lease / 4
	if janitor < 10*time.Millisecond {
		janitor = 10 * time.Millisecond
	}
	tick := time.NewTicker(janitor)
	defer tick.Stop()
	cancel := ctx.Done()
	draining := false
	for {
		select {
		case <-cancel:
			cancel = nil // fire once; keep ticking while the drain settles
			draining = true
			co.q.Drain()
			co.log.Info("draining: no new leases", "in_flight", co.q.Progress().Leased)
		case <-tick.C:
			if n := co.q.ExpireLeases(time.Now()); n > 0 {
				co.log.Warn("reissued expired leases", "count", n)
			}
			if draining && co.q.Progress().Leased == 0 {
				if err := co.q.RecordDrain(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: %v", ErrDrained, context.Cause(ctx))
			}
		case <-co.q.Finished():
			cells, err := co.q.Cells()
			if err != nil {
				return nil, err
			}
			return co.g.assemble(cells), nil
		}
	}
}

// Close releases the coordinator's journal file handle, if any.
func (co *Coordinator) Close() error { return co.journal.Close() }

// Progress snapshots the queue counters.
func (co *Coordinator) Progress() Progress { return co.q.Progress() }

// CellInfos exposes the per-cell execution accounting (chaos tests
// assert resume-not-restart through it).
func (co *Coordinator) CellInfos() []CellRunInfo { return co.q.CellInfos() }

func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var in struct{}
	if !decode(w, r, &in) {
		return
	}
	claim, retry, done := co.q.Lease(time.Now())
	if claim != nil {
		co.log.Info("lease granted", "cell", claim.Index, "scenario", claim.Scenario,
			"seed", claim.Seed, "attempt", claim.Attempt, "lease", claim.LeaseID)
	}
	writeJSON(w, leaseResponse{Claim: claim, RetryMS: retry.Milliseconds(), Done: done})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var in heartbeatRequest
	if !decode(w, r, &in) {
		return
	}
	writeOutcome(w, co.q.Heartbeat(in.Index, in.LeaseID, time.Now()))
}

func (co *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var in completeRequest
	if !decode(w, r, &in) {
		return
	}
	err := co.q.Complete(in.Index, in.LeaseID, in.Cell, in.Info, time.Now())
	if err == nil {
		co.log.Info("cell complete", "cell", in.Index, "scenario", in.Cell.Scenario,
			"seed", in.Cell.Seed, "lease", in.LeaseID, "resumed", in.Info.Resumed,
			"days", in.Info.DaysExecuted, "eval", in.Cell.Eval.String())
	}
	writeOutcome(w, err)
}

func (co *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var in failRequest
	if !decode(w, r, &in) {
		return
	}
	co.log.Warn("cell failed", "cell", in.Index, "lease", in.LeaseID,
		"transient", in.Transient, "error", in.Error)
	writeOutcome(w, co.q.Fail(in.Index, in.LeaseID, in.Error, in.Transient, time.Now()))
}

// statusResponse enriches GET /v1/status with the per-attempt cell
// histogram and coordinator uptime. Progress stays embedded (and
// comparable) — the extras ride alongside, so existing clients that
// decode into Progress keep working.
type statusResponse struct {
	Progress
	// AttemptCounts[i] = cells that have consumed i lease grants.
	AttemptCounts []int `json:"attempt_counts"`
	UptimeMS      int64 `json:"uptime_ms"`
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statusResponse{
		Progress:      co.q.Progress(),
		AttemptCounts: co.q.AttemptCounts(),
		UptimeMS:      time.Since(co.start).Milliseconds(),
	})
}

func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	select {
	case <-co.q.Finished():
	default:
		http.Error(w, "grid not finished", http.StatusServiceUnavailable)
		return
	}
	cells, err := co.q.Cells()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, co.g.assemble(cells))
}

// maxRequestBytes bounds a request body. The largest legitimate request,
// a completion carrying one Cell, is about a kilobyte of JSON.
const maxRequestBytes = 1 << 20

// decode reads a JSON request body of at most maxRequestBytes; on
// failure it writes 413 (body over the bound) or 400 and returns false.
func decode(w http.ResponseWriter, r *http.Request, in any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(in)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("bad request: %v", err), code)
	return false
}

// writeOutcome maps queue sentinels onto the protocol's status codes.
func writeOutcome(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrLeaseLost):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrDigestMismatch):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
