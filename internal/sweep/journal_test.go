package sweep

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/stream"
)

// journalFixture opens a journal for the standard 2-job test grid and
// attaches it to a fresh queue.
func journalFixture(t *testing.T, path string, cfg QueueConfig) (*Queue, *Journal, []gridJob) {
	t.Helper()
	jobs := testQueueJobs(2)
	j, rep, err := openJournal(path, gridDigest(jobs), len(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("fresh journal replayed records: %+v", rep)
	}
	q := NewQueue(jobs, cfg)
	q.attachJournal(j)
	return q, j, jobs
}

// reopenRestore replays path into a fresh queue over the same grid — the
// restart a crashed coordinator performs.
func reopenRestore(t *testing.T, path string, jobs []gridJob, cfg QueueConfig) (*Queue, *Journal, *journalReplay) {
	t.Helper()
	j, rep, err := openJournal(path, gridDigest(jobs), len(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("existing journal replayed nothing")
	}
	q := NewQueue(jobs, cfg)
	if err := q.restore(rep); err != nil {
		t.Fatal(err)
	}
	q.attachJournal(j)
	return q, j, rep
}

// TestJournalReplayThenContinue is the coordinator-durability core: a
// queue journals a mixed history (grants, a completion, a transient
// failure, a re-grant, a heartbeat), "crashes", and a successor restored
// from the journal carries on transparently — the completed cell is
// adopted, the in-flight lease still honors its token, the lease
// sequence never reuses an ID, and the finished grid's cells match.
func TestJournalReplayThenContinue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := QueueConfig{Lease: time.Minute, MaxAttempts: 5, RetryBase: 10 * time.Millisecond}
	q1, j1, jobs := journalFixture(t, path, cfg)
	t0 := time.Unix(1_000_000, 0)

	c0, _, _ := q1.Lease(t0)
	c1, _, _ := q1.Lease(t0)
	if c0 == nil || c1 == nil {
		t.Fatalf("leases: %+v %+v", c0, c1)
	}
	done0 := testCell(1, 0.5)
	if err := q1.Complete(c0.Index, c0.LeaseID, done0, CellRunInfo{DaysExecuted: 20}, t0); err != nil {
		t.Fatal(err)
	}
	if err := q1.Fail(c1.Index, c1.LeaseID, "transient wobble", true, t0); err != nil {
		t.Fatal(err)
	}
	c1b, _, _ := q1.Lease(t0.Add(time.Second)) // past the backoff gate
	if c1b == nil || c1b.Attempt != 2 {
		t.Fatalf("re-grant = %+v", c1b)
	}
	hbAt := t0.Add(2 * time.Second)
	if err := q1.Heartbeat(c1b.Index, c1b.LeaseID, hbAt); err != nil {
		t.Fatal(err)
	}
	j1.Close() // crash: in-memory queue q1 is gone

	q2, _, rep := reopenRestore(t, path, jobs, cfg)
	// grid + 2 leases + complete + fail + re-lease + heartbeat = 7
	if len(rep.Records) != 7 {
		t.Fatalf("replayed %d records, want 7", len(rep.Records))
	}
	p := q2.Progress()
	if p.Done != 1 || p.Adopted != 1 || p.Leased != 1 || p.Pending != 0 {
		t.Fatalf("restored progress = %+v", p)
	}

	// The live worker never noticed the restart: its token still works.
	if err := q2.Heartbeat(c1b.Index, c1b.LeaseID, hbAt.Add(time.Second)); err != nil {
		t.Fatalf("heartbeat across restart: %v", err)
	}
	// The zombie's dead token stays dead across the restart.
	if err := q2.Heartbeat(c1.Index, c1.LeaseID, hbAt); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale token after restart: %v, want ErrLeaseLost", err)
	}
	done1 := testCell(2, 0.7)
	if err := q2.Complete(c1b.Index, c1b.LeaseID, done1, CellRunInfo{DaysExecuted: 20}, hbAt.Add(time.Second)); err != nil {
		t.Fatalf("completion across restart: %v", err)
	}
	cells, err := q2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Eval.Recall != 0.5 || cells[1].Eval.Recall != 0.7 {
		t.Fatalf("cells = %+v", cells)
	}
	// Fresh lease IDs continue the journaled sequence — no token reuse
	// that could collide with a zombie's.
	if q2.leaseSeq < 3 {
		t.Fatalf("restored leaseSeq = %d, want >= 3", q2.leaseSeq)
	}
}

// TestJournalTornTail: every truncation of a valid journal replays
// cleanly to some record prefix — a torn append never rejects the file,
// and the opener resumes appending after the tear.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := QueueConfig{Lease: time.Minute, MaxAttempts: 5}
	q1, j1, jobs := journalFixture(t, path, cfg)
	t0 := time.Unix(1_000_000, 0)
	c0, _, _ := q1.Lease(t0)
	if err := q1.Complete(c0.Index, c0.LeaseID, testCell(1, 0.5), CellRunInfo{}, t0); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := replayJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != 3 { // grid, lease, complete
		t.Fatalf("full journal has %d records, want 3", len(full.Records))
	}

	for cut := len(data) - 1; cut >= 0; cut-- {
		rep, err := replayJournal(data[:cut])
		if cut < len(journalMagic)+1 {
			if !errors.Is(err, ErrBadJournal) {
				t.Fatalf("cut=%d: headerless journal accepted (err=%v)", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: torn tail rejected: %v", cut, err)
		}
		if len(rep.Records) > len(full.Records) || rep.ValidEnd > int64(cut) {
			t.Fatalf("cut=%d: replay invented data: %d records, validEnd=%d", cut, len(rep.Records), rep.ValidEnd)
		}
		for i := range rep.Records {
			if rep.Records[i].kind != full.Records[i].kind {
				t.Fatalf("cut=%d: record %d kind %s, want %s", cut, i, rep.Records[i].kind, full.Records[i].kind)
			}
		}
	}

	// A torn tail on disk: openJournal truncates it and continues. The
	// lease record is cut mid-frame, so only the grant is forgotten — the
	// restored queue re-leases the cell from pending.
	tear := full.ValidEnd - 3
	if err := os.WriteFile(path, data[:tear], 0o644); err != nil {
		t.Fatal(err)
	}
	q2, j2, rep := reopenRestore(t, path, jobs, cfg)
	if rep.Size != tear || rep.ValidEnd >= tear {
		t.Fatalf("torn replay: size=%d validEnd=%d, tear=%d", rep.Size, rep.ValidEnd, tear)
	}
	// Tearing 3 bytes cuts the COMPLETE record mid-frame: the cell is back
	// to leased, and the worker's (re)completion or the janitor recovers it.
	if p := q2.Progress(); p.Done != 0 || p.Leased != 1 {
		t.Fatalf("torn-tail progress = %+v", p)
	}
	// The file was physically truncated to the valid prefix and appending
	// continues from there.
	if fi, err := os.Stat(path); err != nil || fi.Size() != rep.ValidEnd {
		t.Fatalf("file not truncated to valid prefix: size=%v err=%v (want %d)", fi.Size(), err, rep.ValidEnd)
	}
	if err := q2.Complete(0, "lease-0-1", testCell(1, 0.5), CellRunInfo{}, time.Unix(1_000_100, 0)); err != nil {
		t.Fatalf("re-completion after tear: %v", err)
	}
	j2.Close()
}

// TestJournalDuplicateTransitions: replay is idempotent against the
// duplicate records an at-least-once worker protocol can produce — a
// digest-identical duplicate completion is dropped, and a duplicate
// lease for a done cell is ignored.
func TestJournalDuplicateTransitions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := QueueConfig{Lease: time.Minute, MaxAttempts: 5}
	_, j1, jobs := journalFixture(t, path, cfg)
	cell := testCell(1, 0.5)
	info := CellRunInfo{DaysExecuted: 20}
	digest := CellDigest(&cell)
	now := time.Unix(1_000_000, 0).Add(time.Minute)
	// Hand-append a history the live queue would have deduplicated:
	// lease, complete, the SAME complete again, then a lease for the
	// now-done cell (a salvage race the crash interleaved).
	if err := j1.lease(0, 1, 1, "lease-0-1", now); err != nil {
		t.Fatal(err)
	}
	if err := j1.complete(0, "lease-0-1", digest, &cell, &info); err != nil {
		t.Fatal(err)
	}
	if err := j1.complete(0, "lease-0-1", digest, &cell, &info); err != nil {
		t.Fatal(err)
	}
	if err := j1.lease(0, 2, 2, "lease-0-2", now); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	q2, j2, _ := reopenRestore(t, path, jobs, cfg)
	defer j2.Close()
	p := q2.Progress()
	if p.Done != 1 || p.Adopted != 1 || p.Duplicates != 1 || p.Leased != 0 {
		t.Fatalf("progress after duplicate replay = %+v", p)
	}
	if q2.Err() != nil {
		t.Fatalf("identical duplicates poisoned the queue: %v", q2.Err())
	}

	// Diverging duplicate: same cell journaled done with two digests —
	// only divergent workers produce that, so replay poisons exactly like
	// the live queue would have.
	path2 := filepath.Join(t.TempDir(), "diverge.journal")
	_, j3, _ := journalFixture(t, path2, cfg)
	other := testCell(1, 0.9)
	if err := j3.lease(0, 1, 1, "lease-0-1", now); err != nil {
		t.Fatal(err)
	}
	if err := j3.complete(0, "lease-0-1", digest, &cell, &info); err != nil {
		t.Fatal(err)
	}
	if err := j3.complete(0, "lease-0-1", CellDigest(&other), &other, &info); err != nil {
		t.Fatal(err)
	}
	j3.Close()
	j4, rep, err := openJournal(path2, gridDigest(jobs), len(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	q4 := NewQueue(jobs, cfg)
	if err := q4.restore(rep); err != nil {
		t.Fatal(err)
	}
	if qerr := q4.Err(); !errors.Is(qerr, ErrDigestMismatch) {
		t.Fatalf("diverging journaled duplicates: queue err = %v, want ErrDigestMismatch", qerr)
	}
}

// TestJournalRejectsForeignGrid: a journal can only be adopted by a
// coordinator that expanded the identical grid — indices are meaningless
// against any other job list.
func TestJournalRejectsForeignGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	_, j1, _ := journalFixture(t, path, QueueConfig{})
	j1.Close()
	foreign := testQueueJobs(3)
	if _, _, err := openJournal(path, gridDigest(foreign), len(foreign), nil); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("foreign grid adopted the journal: %v", err)
	}
}

// TestJournalRejectsUndecodableRecord: a record whose CRC checks but
// whose payload cannot decode was written by no sane coordinator, so it
// is a bad journal, not a torn tail to truncate along with every record
// after it.
func TestJournalRejectsUndecodableRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	_, j1, _ := journalFixture(t, path, QueueConfig{})
	j1.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{
		binenc.AppendFrame(nil, uint8(jLease), []byte{0xff}), // truncated varint
		binenc.AppendFrame(nil, 99, nil),                     // unknown kind
	} {
		bad := append(append([]byte(nil), data...), frame...)
		if _, err := replayJournal(bad); !errors.Is(err, ErrBadJournal) {
			t.Fatalf("kind %d: replay = %v, want ErrBadJournal", frame[0], err)
		}
	}
}

// TestJournalPoisonSurvivesRestart: a poisoned grid stays poisoned — a
// restart must not resurrect a sweep whose determinism contract was
// violated.
func TestJournalPoisonSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := QueueConfig{Lease: time.Minute}
	q1, j1, jobs := journalFixture(t, path, cfg)
	t0 := time.Unix(1_000_000, 0)
	claim, _, _ := q1.Lease(t0)
	if err := q1.Fail(claim.Index, claim.LeaseID, "divergent binaries", false, t0); err != nil {
		t.Fatal(err)
	}
	if q1.Err() == nil {
		t.Fatal("permanent failure did not poison")
	}
	j1.Close()

	q2, j2, _ := reopenRestore(t, path, jobs, cfg)
	defer j2.Close()
	if q2.Err() == nil {
		t.Fatal("restart resurrected a poisoned grid")
	}
	if _, _, done := q2.Lease(t0); !done {
		t.Fatal("poisoned restored queue handed out a lease")
	}
}

// TestJournalDiskFull: when the journal's disk fills, the queue poisons
// itself cleanly — the failed transition is refused (never half-applied),
// the error is a disk error and NOT an injected-crash signal, and the
// already-journaled prefix still replays.
func TestJournalDiskFull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jobs := testQueueJobs(2)
	inj := fault.New(fault.Config{DiskBudget: 256})
	j, rep, err := openJournal(path, gridDigest(jobs), len(jobs), func(w io.Writer) io.Writer { return inj.Writer(w) })
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatal("fresh journal replayed")
	}
	defer j.Close()
	cfg := QueueConfig{Lease: time.Minute, MaxAttempts: 5}
	q := NewQueue(jobs, cfg)
	q.attachJournal(j)

	t0 := time.Unix(1_000_000, 0)
	// Keep leasing until the budget runs out; the queue must fail closed.
	var sawDone bool
	for i := 0; i < 10; i++ {
		claim, _, done := q.Lease(t0)
		if done {
			sawDone = true
			break
		}
		if claim == nil {
			t.Fatalf("iteration %d: no claim, not done", i)
		}
		if err := q.Fail(claim.Index, claim.LeaseID, "retry", true, t0); err != nil {
			if !errors.Is(err, fault.ErrDiskFull) {
				t.Fatalf("fail path surfaced %v, want ErrDiskFull", err)
			}
			sawDone = true
			break
		}
		t0 = t0.Add(time.Minute) // clear any backoff gate before re-leasing
	}
	if !sawDone {
		t.Fatalf("256-byte disk budget never fired (injected=%d)", inj.Injected())
	}
	qerr := q.Err()
	if qerr == nil {
		t.Fatal("disk-full journal did not poison the queue")
	}
	if !errors.Is(qerr, fault.ErrDiskFull) {
		t.Fatalf("queue err = %v, want ErrDiskFull", qerr)
	}
	if errors.Is(qerr, fault.ErrInjected) {
		t.Fatal("ENOSPC must not masquerade as an injected crash")
	}

	// The prefix that made it to disk is still a valid journal.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(data); err != nil {
		t.Fatalf("disk-full journal prefix unreplayable: %v", err)
	}
}

// TestRunLogWriterDiskFull: the spooled run-log writer under an ENOSPC
// injector fails the cell cleanly — the error is a disk error (reported
// transient, not a simulated crash), and the spool's checkpoint remains
// valid, so a successor with space resumes and produces the exact bytes
// of a clean run.
func TestRunLogWriterDiskFull(t *testing.T) {
	sp, ok := scenario.Lookup(microName(t, "paper-baseline"))
	if !ok {
		t.Fatal("micro scenario missing")
	}
	const seed = 20190301

	clean := CellRunner{}
	want, _, err := clean.Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatal(err)
	}

	spool := t.TempDir()
	full := CellRunner{
		SpoolDir:        spool,
		CheckpointEvery: 1,
		Fault:           fault.New(fault.Config{DiskBudget: 64 << 10}),
	}
	_, _, err = full.Run(context.Background(), sp, seed)
	if err == nil {
		t.Skip("64KiB budget fit the whole micro cell; nothing to test")
	}
	if !errors.Is(err, fault.ErrDiskFull) {
		t.Fatalf("disk-full run failed with %v, want ErrDiskFull in the chain", err)
	}
	if IsInjected(err) {
		t.Fatal("ENOSPC classified as injected crash: a worker would die instead of reporting transient failure")
	}

	// The checkpoint the run left is valid: a successor resumes the cell.
	ckpt := filepath.Join(spool, "micro-paper-baseline-seed20190301.ckpt")
	cp, cerr := stream.ReadCheckpointFile(ckpt)
	retry := CellRunner{SpoolDir: spool, CheckpointEvery: 1}
	got, info, err := retry.Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatalf("successor failed: %v", err)
	}
	if CellDigest(&got) != CellDigest(&want) {
		t.Fatalf("post-ENOSPC resume diverged:\n got %+v\nwant %+v", got, want)
	}
	if cerr == nil && cp.Days > 0 {
		if !info.Resumed || info.ResumedAfterDays != int(cp.Days) {
			t.Errorf("successor did not resume from the surviving checkpoint (cp.Days=%d info=%+v)", cp.Days, info)
		}
	}
}

// TestCellRunnerCancelAtDayBarrier: cancelling a cell stops it at the
// next day barrier with a FORCED checkpoint (CheckpointEvery is set far
// beyond the window, so only the cancellation path can have written it),
// and the successor resumes from that exact day to the clean result.
func TestCellRunnerCancelAtDayBarrier(t *testing.T) {
	sp, ok := scenario.Lookup(microName(t, "paper-baseline"))
	if !ok {
		t.Fatal("micro scenario missing")
	}
	const seed = 20190301
	const windowDays = 20
	const cancelAt = 5

	clean := CellRunner{}
	want, _, err := clean.Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatal(err)
	}

	spool := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	days := 0
	first := CellRunner{
		SpoolDir:        spool,
		CheckpointEvery: 1000, // cadence never fires inside the window
		PerDay: func(dates.Date) error {
			if days++; days == cancelAt {
				cancel()
			}
			return nil
		},
	}
	_, _, err = first.Run(ctx, sp, seed)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled in the chain", err)
	}
	if days != cancelAt {
		t.Fatalf("run continued %d days past the cancellation barrier", days-cancelAt)
	}

	cp, err := stream.ReadCheckpointFile(filepath.Join(spool, "micro-paper-baseline-seed20190301.ckpt"))
	if err != nil {
		t.Fatalf("cancellation left no checkpoint: %v", err)
	}
	if int(cp.Days) != cancelAt {
		t.Fatalf("forced checkpoint at day %d, want %d", cp.Days, cancelAt)
	}

	second := CellRunner{SpoolDir: spool, CheckpointEvery: 1000}
	got, info, err := second.Run(context.Background(), sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.ResumedAfterDays != cancelAt || info.DaysExecuted != windowDays-cancelAt {
		t.Fatalf("successor info = %+v, want resume after day %d", info, cancelAt)
	}
	if CellDigest(&got) != CellDigest(&want) {
		t.Fatalf("cancel+resume diverged from clean run:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzJournalReplay: replay must never panic on arbitrary bytes, never
// claim more input than it was given, and — when the replayed prefix
// applies to the test grid — never resurrect a grid whose journal
// records a poison.
func FuzzJournalReplay(f *testing.F) {
	jobs := testQueueJobs(2)
	cfg := QueueConfig{Lease: time.Minute, MaxAttempts: 5}
	seedDir := f.TempDir()

	// Seed 1: a healthy history.
	healthy := filepath.Join(seedDir, "healthy.journal")
	{
		j, _, err := openJournal(healthy, gridDigest(jobs), len(jobs), nil)
		if err != nil {
			f.Fatal(err)
		}
		q := NewQueue(jobs, cfg)
		q.attachJournal(j)
		t0 := time.Unix(1_000_000, 0)
		c0, _, _ := q.Lease(t0)
		c1, _, _ := q.Lease(t0)
		cell := testCell(1, 0.5)
		q.Complete(c0.Index, c0.LeaseID, cell, CellRunInfo{}, t0)
		q.Heartbeat(c1.Index, c1.LeaseID, t0.Add(time.Second))
		q.Fail(c1.Index, c1.LeaseID, "wobble", true, t0.Add(time.Second))
		j.Close()
	}
	// Seed 2: a poisoned history.
	poisoned := filepath.Join(seedDir, "poisoned.journal")
	{
		j, _, err := openJournal(poisoned, gridDigest(jobs), len(jobs), nil)
		if err != nil {
			f.Fatal(err)
		}
		q := NewQueue(jobs, cfg)
		q.attachJournal(j)
		t0 := time.Unix(1_000_000, 0)
		c0, _, _ := q.Lease(t0)
		q.Fail(c0.Index, c0.LeaseID, "permanent", false, t0)
		j.Close()
	}
	for _, p := range []string{healthy, poisoned} {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// A torn variant of each.
		f.Add(data[:len(data)-4])
	}
	f.Add([]byte(journalMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := replayJournal(data)
		if err != nil {
			if !errors.Is(err, ErrBadJournal) {
				t.Fatalf("replay error outside ErrBadJournal: %v", err)
			}
			return
		}
		if rep.ValidEnd > rep.Size || rep.Size != int64(len(data)) {
			t.Fatalf("replay invented bytes: validEnd=%d size=%d len=%d", rep.ValidEnd, rep.Size, len(data))
		}
		if rep.Total != len(jobs) {
			return // belongs to some other (fuzzed) grid shape
		}
		q := NewQueue(jobs, cfg)
		if rerr := q.restore(rep); rerr != nil {
			return // structurally impossible record: rejected, not applied
		}
		for _, rec := range rep.Records {
			if rec.kind == jPoison && q.Err() == nil {
				t.Fatal("restore resurrected a poisoned grid")
			}
		}
	})
}
