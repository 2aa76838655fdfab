package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/binenc"
	"repro/internal/scenario"
)

// The coordinator journal makes the control plane as durable as the data
// plane. PR 7 made workers crash-resumable (spooled run logs + lease
// reissue), but the Queue lived only in memory: a coordinator crash lost
// the entire grid even though every cell was individually salvageable.
// The journal closes that gap with the same discipline the run log uses —
// an append-only file of the run log's CRC-checked frames (the
// internal/binenc frame codec): a grid record at open, then one record
// per queue state transition (lease, heartbeat, complete-with-digest,
// transient fail, poison, drain). Every record is appended BEFORE the
// in-memory transition applies (write-ahead), so the journal is always at
// least as advanced as the state workers have observed.
//
// On restart, replay rebuilds the queue: done cells are re-adopted with
// their full results (re-verified against the journaled content digest),
// leased cells keep their lease tokens and deadlines — a live worker's
// heartbeats keep working across the restart; a dead worker's lease
// expires on the janitor's wall clock exactly as if the coordinator had
// never died — and a journaled poison stays poisoned. A torn tail (the
// record a crash interrupted mid-append) is detected by CRC and
// truncated, never applied: at worst the journal forgets a transition
// the determinism contract makes harmless to repeat (a re-leased cell is
// re-run to identical bytes; a forgotten completion is re-computed or
// salvaged from the late worker's report).
const (
	journalMagic   = "SWPJRNL1"
	journalVersion = 1
)

type journalKind uint8

const (
	jGrid      journalKind = 1 // grid digest + cell count; must open the journal
	jLease     journalKind = 2 // cell leased to a worker
	jHeartbeat journalKind = 3 // lease deadline extended
	jComplete  journalKind = 4 // cell done: digest + full result payload
	jFail      journalKind = 5 // transient failure: cell re-queued behind backoff
	jPoison    journalKind = 6 // grid failed permanently
	jDrain     journalKind = 7 // coordinator drained cleanly (informational)
)

func (k journalKind) String() string {
	switch k {
	case jGrid:
		return "grid"
	case jLease:
		return "lease"
	case jHeartbeat:
		return "heartbeat"
	case jComplete:
		return "complete"
	case jFail:
		return "fail"
	case jPoison:
		return "poison"
	case jDrain:
		return "drain"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrBadJournal rejects a journal whose readable prefix is structurally
// invalid — wrong magic, records for a different grid, a completion whose
// payload contradicts its digest. Unlike a torn tail (silently truncated,
// the crash left it there by construction), a bad prefix means the file
// is not a journal for this sweep, and serving from it would be wrong.
var ErrBadJournal = errors.New("sweep: bad coordinator journal")

// maxJournalPayload bounds a single record; completions carry a full cell
// JSON payload, which is well under this.
const maxJournalPayload = 16 << 20

// journalRecord is one decoded state transition.
type journalRecord struct {
	kind journalKind

	// jGrid
	gridDigest string
	total      int

	// shared by lease/heartbeat/complete/fail
	index   int
	leaseID string

	// jLease
	seq        int
	attempt    int
	deadlineMS int64

	// jComplete
	cellDigest string
	cellJSON   []byte
	infoJSON   []byte

	// jFail
	notBeforeMS int64

	// jFail / jPoison
	msg string

	// jDrain
	leased int
}

// journalReplay is the decoded valid prefix of a journal file.
type journalReplay struct {
	GridDigest string
	Total      int
	Records    []journalRecord
	// ValidEnd is the byte offset just past the last intact record; a
	// torn or corrupt tail past it is truncated before appending resumes.
	ValidEnd int64
	// Size is the input length; Size - ValidEnd is what the tear dropped.
	Size int64
}

// replayJournal decodes the valid prefix of journal bytes. A torn tail —
// an incomplete or CRC-failing record where a crash landed mid-append —
// ends the replay silently at the last intact record. A structurally
// invalid prefix (bad magic/version, first record not jGrid, a record
// that cannot belong to any sane queue) returns ErrBadJournal: nothing
// before the damage can be trusted either.
func replayJournal(data []byte) (*journalReplay, error) {
	rep := &journalReplay{Size: int64(len(data))}
	pre := len(journalMagic) + 1
	if len(data) < pre || string(data[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadJournal)
	}
	if v := data[len(journalMagic)]; v != journalVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadJournal, v)
	}
	off := int64(pre)
	rep.ValidEnd = off
	for off < rep.Size {
		f, err := binenc.ScanFrame(data[off:], maxJournalPayload)
		if err != nil {
			// Torn tail: the frame runs past the input, or a crash left a
			// garbage length or a CRC mismatch. Stop here; the opener
			// truncates.
			return rep, nil
		}
		rec, err := decodeJournalPayload(journalKind(f.Kind), f.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %s record at byte %d: %v", ErrBadJournal, journalKind(f.Kind), off, err)
		}
		next := off + f.Size()
		if len(rep.Records) == 0 {
			if rec.kind != jGrid {
				return nil, fmt.Errorf("%w: first record is %s, want grid", ErrBadJournal, rec.kind)
			}
			rep.GridDigest, rep.Total = rec.gridDigest, rec.total
		} else if rec.kind == jGrid {
			return nil, fmt.Errorf("%w: duplicate grid record at byte %d", ErrBadJournal, off)
		}
		rep.Records = append(rep.Records, *rec)
		rep.ValidEnd = next
		off = next
	}
	if len(rep.Records) == 0 {
		// Magic but no grid record: a crash before the first append. The
		// opener rewrites the preamble + grid record on a fresh journal.
		rep.ValidEnd = 0
	}
	return rep, nil
}

func decodeJournalPayload(kind journalKind, payload []byte) (*journalRecord, error) {
	d := binenc.NewDec(payload)
	rec := &journalRecord{kind: kind}
	switch kind {
	case jGrid:
		rec.gridDigest = d.Str()
		rec.total = int(d.Varint())
		if d.Err() == nil && (rec.total < 0 || rec.total > 1<<24) {
			return nil, fmt.Errorf("impossible cell count %d", rec.total)
		}
	case jLease:
		rec.index = int(d.Varint())
		rec.seq = int(d.Varint())
		rec.attempt = int(d.Varint())
		rec.leaseID = d.Str()
		rec.deadlineMS = d.Varint()
	case jHeartbeat:
		rec.index = int(d.Varint())
		rec.leaseID = d.Str()
		rec.deadlineMS = d.Varint()
	case jComplete:
		rec.index = int(d.Varint())
		rec.leaseID = d.Str()
		rec.cellDigest = d.Str()
		rec.cellJSON = d.Blob()
		rec.infoJSON = d.Blob()
	case jFail:
		rec.index = int(d.Varint())
		rec.leaseID = d.Str()
		rec.notBeforeMS = d.Varint()
		rec.msg = d.Str()
	case jPoison:
		rec.msg = d.Str()
	case jDrain:
		rec.leased = int(d.Varint())
	default:
		return nil, fmt.Errorf("unknown record kind %d", uint8(kind))
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Journal is the append side: one frame per queue transition, written
// with a single Write call (so a crash tears at most one record) and
// fsynced after the transitions that must not be forgotten (lease,
// complete, fail, poison, drain — heartbeats are cheap to lose). The
// error is sticky: after a failed append — torn write, full disk — the
// file's tail is suspect, and appending more records after the damage
// would corrupt the very prefix replay depends on, so every later append
// refuses with the same error and the queue poisons itself.
type Journal struct {
	f   *os.File
	w   io.Writer
	err error
	// m, when non-nil, times appends and fsyncs. Observation only: no
	// journal byte depends on it.
	m *JournalMetrics
}

// SetMetrics attaches append/fsync instrumentation (nil detaches;
// nil-receiver safe, matching the journal-less queue).
func (j *Journal) SetMetrics(m *JournalMetrics) {
	if j == nil {
		return
	}
	j.m = m
}

// openJournal opens the journal at path for a grid with the given digest
// and cell count: fresh (preamble + grid record written) or existing
// (valid prefix replayed, torn tail truncated, positioned for append).
// wrap, when non-nil, wraps the append writer with fault injection.
// A non-nil replay means the caller must restore the queue from it.
func openJournal(path, gridDigest string, total int, wrap func(io.Writer) io.Writer) (*Journal, *journalReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("sweep: reading journal: %w", err)
	}
	var rep *journalReplay
	if len(data) > 0 {
		rep, err = replayJournal(data)
		if err != nil {
			return nil, nil, err
		}
		if rep.ValidEnd > 0 {
			if rep.GridDigest != gridDigest || rep.Total != total {
				return nil, nil, fmt.Errorf("%w: journal belongs to a different grid (digest %.12s/%d cells, want %.12s/%d)",
					ErrBadJournal, rep.GridDigest, rep.Total, gridDigest, total)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: opening journal: %w", err)
	}
	j := &Journal{f: f, w: f}
	if wrap != nil {
		j.w = wrap(f)
	}
	if rep == nil || rep.ValidEnd == 0 {
		// Fresh journal (or one that died before its grid record): start
		// over from byte zero.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: truncating journal: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		pre := append([]byte(journalMagic), journalVersion)
		if _, err := j.w.Write(pre); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: writing journal preamble: %w", err)
		}
		body := binenc.NewEnc(64)
		body.Str(gridDigest)
		body.Varint(int64(total))
		if err := j.append(jGrid, body.Bytes(), true); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, nil, nil
	}
	// Existing journal: drop the torn tail, append after the valid prefix.
	if rep.ValidEnd < rep.Size {
		if err := f.Truncate(rep.ValidEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweep: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(rep.ValidEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, rep, nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// append frames one record and writes it with a single Write call.
func (j *Journal) append(kind journalKind, payload []byte, sync bool) error {
	if j == nil {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	frame := binenc.AppendFrame(make([]byte, 0, binenc.FrameHeaderLen+len(payload)+binenc.FrameTrailerLen), uint8(kind), payload)
	var t0 time.Time
	if j.m != nil {
		t0 = time.Now()
	}
	if _, err := j.w.Write(frame); err != nil {
		j.err = fmt.Errorf("sweep: appending %s journal record: %w", kind, err)
		return j.err
	}
	if j.m != nil {
		j.m.Appends.Inc()
		j.m.AppendSeconds.ObserveSince(t0)
	}
	if sync {
		var s0 time.Time
		if j.m != nil {
			s0 = time.Now()
		}
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("sweep: syncing journal: %w", err)
			return j.err
		}
		if j.m != nil {
			j.m.Syncs.Inc()
			j.m.SyncSeconds.ObserveSince(s0)
		}
	}
	return nil
}

func (j *Journal) lease(index, seq, attempt int, leaseID string, deadline time.Time) error {
	e := binenc.NewEnc(64)
	e.Varint(int64(index))
	e.Varint(int64(seq))
	e.Varint(int64(attempt))
	e.Str(leaseID)
	e.Varint(deadline.UnixMilli())
	return j.append(jLease, e.Bytes(), true)
}

func (j *Journal) heartbeat(index int, leaseID string, deadline time.Time) error {
	e := binenc.NewEnc(64)
	e.Varint(int64(index))
	e.Str(leaseID)
	e.Varint(deadline.UnixMilli())
	return j.append(jHeartbeat, e.Bytes(), false)
}

func (j *Journal) complete(index int, leaseID, digest string, cell *Cell, info *CellRunInfo) error {
	if j == nil {
		return nil
	}
	cellJSON, err := json.Marshal(cell)
	if err != nil {
		return fmt.Errorf("sweep: journaling completion: %w", err)
	}
	infoJSON, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("sweep: journaling completion: %w", err)
	}
	e := binenc.NewEnc(256 + len(cellJSON) + len(infoJSON))
	e.Varint(int64(index))
	e.Str(leaseID)
	e.Str(digest)
	e.Blob(cellJSON)
	e.Blob(infoJSON)
	return j.append(jComplete, e.Bytes(), true)
}

func (j *Journal) fail(index int, leaseID string, notBefore time.Time, msg string) error {
	e := binenc.NewEnc(128)
	e.Varint(int64(index))
	e.Str(leaseID)
	e.Varint(notBefore.UnixMilli())
	e.Str(msg)
	return j.append(jFail, e.Bytes(), true)
}

func (j *Journal) poison(msg string) error {
	e := binenc.NewEnc(len(msg) + 8)
	e.Str(msg)
	return j.append(jPoison, e.Bytes(), true)
}

func (j *Journal) drain(leased int) error {
	e := binenc.NewEnc(8)
	e.Varint(int64(leased))
	return j.append(jDrain, e.Bytes(), true)
}

// gridDigest canonically identifies an expanded grid: SHA-256 over the
// JSON of every job's (scenario spec, seed) in job order. A restarted
// coordinator must expand the identical grid from its flags before it
// may adopt a journal — cell indices are only meaningful against the
// same job list.
func gridDigest(jobs []gridJob) string {
	h := sha256.New()
	for _, job := range jobs {
		raw, err := json.Marshal(struct {
			Spec scenario.Spec `json:"spec"`
			Seed uint64        `json:"seed"`
		}{job.spec, job.seed})
		if err != nil {
			panic("sweep: grid digest: " + err.Error())
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
