package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
	"repro/internal/stream"
)

// collect drains All into a slice, failing the test on a spill I/O error.
func collect(t *testing.T, l *InstallLog) []InstallRecord {
	t.Helper()
	out := make([]InstallRecord, 0, l.Len())
	for rec := range l.All() {
		out = append(out, rec)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestInstallLogSpillRoundTrip drives a spilling log and an unbounded
// reference with the same random append pattern (single records, bursts
// larger than the window, day changes, mid-stream reads, a Reset) and
// checks the logical streams never diverge.
func TestInstallLogSpillRoundTrip(t *testing.T) {
	r := randx.New(321)
	var ref []InstallRecord
	var l InstallLog
	if err := l.EnableSpill(t.TempDir(), 16); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	day := dates.Date(1000)
	next := func() InstallRecord {
		if r.Bool(0.25) {
			day += dates.Date(r.IntN(3)) // days move forward, sometimes by 0
		}
		return InstallRecord{
			Device: fmt.Sprintf("dev-%03d", r.IntN(400)),
			App:    fmt.Sprintf("app.%d", r.IntN(40)),
			Day:    day,
		}
	}
	check := func() {
		t.Helper()
		if l.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
		}
		got := collect(t, &l)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], ref[i])
			}
		}
	}

	for round := 0; round < 30; round++ {
		if r.Bool(0.3) {
			// Burst append crossing the window, possibly several times over.
			n := r.IntBetween(10, 70)
			batch := make([]InstallRecord, n)
			for i := range batch {
				batch[i] = next()
			}
			l.Append(batch...)
			ref = append(ref, batch...)
		} else {
			for i, n := 0, r.IntBetween(1, 9); i < n; i++ {
				rec := next()
				l.Append(rec)
				ref = append(ref, rec)
			}
		}
		// Interleaved reads must see the full prefix and not perturb the
		// writer (the engine reads at day barriers mid-run).
		if r.Bool(0.4) {
			check()
		}
	}
	check()
	if l.Len() <= 16 {
		t.Fatalf("test never spilled: %d records", l.Len())
	}

	// Reset and refill, as Restore does: prior spill state must vanish.
	keep := append([]InstallRecord(nil), ref[:20]...)
	l.Reset(len(keep))
	l.Append(keep...)
	ref = keep
	check()
}

// TestInstallLogSpillWorldEquivalence is the end-to-end contract: a world
// run with a tiny spill window produces bit-identical run stats and an
// identical install stream — and therefore identical detector input and
// golden hashes — to the unbounded in-RAM log.
func TestInstallLogSpillWorldEquivalence(t *testing.T) {
	run := func(window int) (RunStats, []InstallRecord, *World) {
		cfg := TinyConfig()
		cfg.Workers = 2
		cfg.InstallLogWindow = window
		cfg.InstallLogDir = t.TempDir()
		// The bounded-memory ledger rides the same contract: identical
		// balances with or without the retained transaction history.
		cfg.LedgerBalancesOnly = window > 0
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, collect(t, &w.InstallLog), w
	}

	statsRAM, logRAM, wRAM := run(0)
	defer wRAM.Close()
	statsSpill, logSpill, wSpill := run(512)
	defer wSpill.Close()

	if statsRAM != statsSpill {
		t.Errorf("run stats diverge: in-RAM %+v, spill %+v", statsRAM, statsSpill)
	}
	if len(logRAM) != len(logSpill) {
		t.Fatalf("install log length diverges: %d vs %d", len(logRAM), len(logSpill))
	}
	if wSpill.InstallLog.Len() <= 512 {
		t.Fatalf("world too small to exercise spilling: %d records", wSpill.InstallLog.Len())
	}
	for i := range logRAM {
		if logRAM[i] != logSpill[i] {
			t.Fatalf("install log diverges at %d: %+v vs %+v", i, logRAM[i], logSpill[i])
		}
	}

	// Ground-truth labels flow through All too; they must agree.
	truthRAM, truthSpill := wRAM.TruthLabels(), wSpill.TruthLabels()
	if len(truthRAM) != len(truthSpill) {
		t.Fatalf("truth labels diverge: %d vs %d", len(truthRAM), len(truthSpill))
	}
	for dev := range truthRAM {
		if !truthSpill[dev] {
			t.Fatalf("device %s missing from spill-mode truth labels", dev)
		}
	}

	// Balances must be bit-identical despite the spill world dropping the
	// ledger's transaction history.
	balRAM, balSpill := wRAM.Ledger.Balances(), wSpill.Ledger.Balances()
	if len(balRAM) != len(balSpill) {
		t.Fatalf("ledger accounts diverge: %d vs %d", len(balRAM), len(balSpill))
	}
	for acct, want := range balRAM {
		if got := balSpill[acct]; got != want {
			t.Errorf("balance %s = %g, want %g", acct, got, want)
		}
	}
	if n := wSpill.Ledger.NumTransactions(); n != 0 {
		t.Errorf("balances-only world retained %d ledger transactions", n)
	}
}

// TestInstallLogCheckpointView: a checkpoint's view of a spilling log
// yields exactly the records present when it was taken, however many are
// appended (and spilled) afterwards, and fails, rather than reading
// another history, once the log is reset or closed.
func TestInstallLogCheckpointView(t *testing.T) {
	var l InstallLog
	if err := l.EnableSpill(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := func(i int) InstallRecord {
		return InstallRecord{Device: fmt.Sprintf("dev-%d", i), App: "app", Day: dates.Date(100 + i/3)}
	}
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	view := l.CheckpointView()
	for i := 10; i < 30; i++ {
		l.Append(rec(i))
	}
	i := 0
	for in, err := range view.All() {
		if err != nil {
			t.Fatal(err)
		}
		if got := (InstallRecord{Device: in.Device, App: in.App, Day: in.Day}); got != rec(i) {
			t.Fatalf("view record %d = %+v, want %+v", i, got, rec(i))
		}
		i++
	}
	if i != 10 || view.Len() != 10 {
		t.Fatalf("view yielded %d records, Len %d; want 10", i, view.Len())
	}

	viewErr := func(v stream.Installs) error {
		for _, err := range v.All() {
			if err != nil {
				return err
			}
		}
		return nil
	}
	l.Reset(0)
	if viewErr(view) == nil {
		t.Error("a view taken before Reset still iterates")
	}
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	view = l.CheckpointView()
	l.Close()
	if viewErr(view) == nil {
		t.Error("a view of a closed spilled log still iterates")
	}
}

// TestInstallLogChunksMatchSlice is the chunked storage's property test:
// random batch sizes (single records, chunk-sized bursts landing on and
// around chunk boundaries) at window 0 and at spill windows below, equal
// to and past one chunk, with a CheckpointView taken before later appends
// and a Reset mid-run. Len, All and the view always equal a plain slice,
// and at window 0 an append never moves a record already held.
func TestInstallLogChunksMatchSlice(t *testing.T) {
	for _, window := range []int{0, 1, 7, 100, installChunk, installChunk + 100} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			r := randx.New(uint64(1000 + window))
			var l InstallLog
			if window > 0 {
				if err := l.EnableSpill(t.TempDir(), window); err != nil {
					t.Fatal(err)
				}
			}
			defer l.Close()
			var ref []InstallRecord
			day := dates.Date(500)
			seq := 0
			appendBatch := func() {
				var n int
				switch r.IntN(3) {
				case 0:
					n = r.IntBetween(1, 9)
				case 1:
					n = r.IntN(1000)
				default:
					n = r.IntBetween(installChunk-3, installChunk+3)
				}
				if r.Bool(0.5) {
					day++
				}
				batch := make([]InstallRecord, n)
				for i := range batch {
					seq++
					batch[i] = InstallRecord{Device: fmt.Sprintf("dev-%d", seq), App: fmt.Sprintf("app.%d", seq%13), Day: day}
				}
				l.Append(batch...)
				ref = append(ref, batch...)
			}
			check := func(what string) {
				t.Helper()
				if l.Len() != len(ref) {
					t.Fatalf("%s: Len = %d, want %d", what, l.Len(), len(ref))
				}
				// A spilling log flushes exactly one window at a time and
				// holds no more chunks than a window fills.
				if size := l.chunkCap(); window > 0 && (l.n >= window || l.spilled%window != 0 || len(l.chunks) > (window+size-1)/size) {
					t.Fatalf("%s: %d records spilled, %d resident in %d chunks of %d, window %d", what, l.spilled, l.n, len(l.chunks), size, window)
				}
				got := collect(t, &l)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], ref[i])
					}
				}
			}

			for len(ref) < 2*installChunk {
				appendBatch()
				if r.Bool(0.3) {
					check("filling")
				}
			}
			check("filled")
			var first *installRec
			if window == 0 {
				first = &l.chunks[0][0]
			}
			view, viewRef := l.CheckpointView(), append([]InstallRecord(nil), ref...)
			for n := len(ref); len(ref) < n+installChunk+1; {
				appendBatch()
			}
			check("after the view")
			if first != nil && first != &l.chunks[0][0] {
				t.Error("an append moved the first record")
			}
			i := 0
			for in, err := range view.All() {
				if err != nil {
					t.Fatal(err)
				}
				if got := (InstallRecord{Device: in.Device, App: in.App, Day: in.Day}); got != viewRef[i] {
					t.Fatalf("view record %d = %+v, want %+v", i, got, viewRef[i])
				}
				i++
			}
			if i != len(viewRef) || view.Len() != len(viewRef) {
				t.Fatalf("view yielded %d records, Len %d; want %d", i, view.Len(), len(viewRef))
			}

			// Reset mid-run and refill with a prefix, as Restore does.
			ref = append([]InstallRecord(nil), ref[:r.IntN(len(ref))]...)
			l.Reset(len(ref))
			l.Append(ref...)
			check("after Reset")
			failed := false
			for _, err := range view.All() {
				if err != nil {
					failed = true
					break
				}
			}
			if !failed {
				t.Error("a view taken before Reset still iterates")
			}
			for n := len(ref); len(ref) < n+installChunk; {
				appendBatch()
			}
			check("after Reset and appends")
		})
	}
}

// TestInstallLogCountOnly: a count-only world runs to the same stats and
// Len as one that keeps its records, and holds no chunk. Each reader of
// the history it did not keep (All, TruthLabels, DetectionEvents, a
// checkpoint view) reads nothing and fails through Err. CountOnly
// refuses a log that holds records or spills, and a count-only log
// refuses to spill.
func TestInstallLogCountOnly(t *testing.T) {
	run := func(countOnly bool) (RunStats, *World) {
		cfg := TinyConfig()
		cfg.Window.End = cfg.Window.Start.AddDays(14)
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if countOnly {
			if err := w.InstallLog.CountOnly(); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, w
	}
	statsKept, kept := run(false)
	statsCounted, counted := run(true)
	if statsKept != statsCounted {
		t.Errorf("run stats diverge: kept %+v, count-only %+v", statsKept, statsCounted)
	}
	n := counted.InstallLog.Len()
	if n == 0 || n != kept.InstallLog.Len() {
		t.Fatalf("count-only Len = %d, want %d", n, kept.InstallLog.Len())
	}
	if c := len(counted.InstallLog.chunks); c != 0 {
		t.Errorf("count-only log allocated %d chunks", c)
	}
	counted.InstallLog.Reset(n)
	if c := len(counted.InstallLog.chunks); c != 0 {
		t.Errorf("count-only log allocated %d chunks at Reset", c)
	}

	readers := map[string]func(w *World) int{
		"All": func(w *World) int {
			k := 0
			for range w.InstallLog.All() {
				k++
			}
			return k
		},
		"TruthLabels": func(w *World) int { return len(w.TruthLabels()) },
		"DetectionEvents": func(w *World) int {
			events, truth := w.DetectionEvents()
			return len(events) + len(truth)
		},
		"CheckpointView": func(w *World) int {
			k := 0
			for _, err := range w.InstallLog.CheckpointView().All() {
				if err != nil {
					if !errors.Is(err, ErrInstallsNotKept) {
						t.Errorf("CheckpointView failed with %v, want ErrInstallsNotKept", err)
					}
					return k
				}
				k++
			}
			t.Error("CheckpointView of a count-only log did not fail")
			return k
		},
	}
	for name, read := range readers {
		var w World
		if err := w.InstallLog.CountOnly(); err != nil {
			t.Fatal(err)
		}
		w.InstallLog.Append(InstallRecord{Device: "dev-1", App: "app", Day: 100}, InstallRecord{Device: "dev-2", App: "app", Day: 101})
		if err := w.InstallLog.Err(); err != nil {
			t.Fatalf("%s: Err before any read: %v", name, err)
		}
		if got := read(&w); got != 0 {
			t.Errorf("%s read %d items from a count-only log", name, got)
		}
		if err := w.InstallLog.Err(); !errors.Is(err, ErrInstallsNotKept) {
			t.Errorf("%s: Err = %v, want ErrInstallsNotKept", name, err)
		}
		if w.InstallLog.Len() != 2 {
			t.Errorf("%s: Len = %d after a read, want 2", name, w.InstallLog.Len())
		}
	}

	var holds, spilling InstallLog
	holds.Append(InstallRecord{Device: "dev", App: "app", Day: 1})
	if err := holds.CountOnly(); err == nil {
		t.Error("CountOnly accepted a log that holds a record")
	}
	if err := spilling.EnableSpill(t.TempDir(), 4); err != nil {
		t.Fatal(err)
	}
	if err := spilling.CountOnly(); err == nil {
		t.Error("CountOnly accepted a spilling log")
	}
	var counting InstallLog
	if err := counting.CountOnly(); err != nil {
		t.Fatal(err)
	}
	if err := counting.EnableSpill(t.TempDir(), 4); err == nil {
		t.Error("EnableSpill accepted a count-only log")
	}
}

// FuzzInstallLogSpillRoundTrip appends fuzz-chosen records under a small
// spill window and checks that All equals a plain slice with no error.
// Each input byte triple is one record: the first picks the device (a
// small set, so devices repeat, with the empty string among them) and
// the batch it ends, the second the app (empty included), the third the
// day step (signed: days may stay, advance or go back). The window and
// the batch boundaries are fuzzed too, so flushes land anywhere in a
// batch.
func FuzzInstallLogSpillRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(3), []byte{0, 0, 0, 1, 1, 1, 2, 2, 0, 3, 0, 255, 4, 5, 1})
	f.Add(uint8(16), bytes.Repeat([]byte{7, 3, 0, 0x88, 0, 1}, 40))
	f.Fuzz(func(t *testing.T, window uint8, data []byte) {
		var l InstallLog
		// The spill file is unlinked as soon as it is created, so the
		// system temp directory collects nothing.
		if err := l.EnableSpill("", 1+int(window%32)); err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var ref, batch []InstallRecord
		day := dates.Date(1000)
		for ; len(data) >= 3; data = data[3:] {
			day += dates.Date(int8(data[2]))
			rec := InstallRecord{Day: day}
			if d := data[0] & 0x0f; d > 0 {
				rec.Device = fmt.Sprintf("dev-%d", d)
			}
			if a := data[1] % 5; a > 0 {
				rec.App = fmt.Sprintf("app.%d", a)
			}
			ref, batch = append(ref, rec), append(batch, rec)
			if data[0]&0x80 != 0 {
				l.Append(batch...)
				batch = batch[:0]
			}
		}
		l.Append(batch...)
		if l.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(ref))
		}
		i := 0
		for rec := range l.All() {
			if i >= len(ref) || rec != ref[i] {
				t.Fatalf("record %d = %+v, want %+v of %d", i, rec, ref[min(i, len(ref)-1)], len(ref))
			}
			i++
		}
		if err := l.Err(); err != nil || i != len(ref) {
			t.Fatalf("All yielded %d of %d records, Err %v", i, len(ref), err)
		}
	})
}

// TestInstallChunksHoldNoPointers walks the resident chunk element type:
// a pointer anywhere in it would make the garbage collector scan every
// record of the log on every cycle.
func TestInstallChunksHoldNoPointers(t *testing.T) {
	var walk func(reflect.Type) string
	walk = func(typ reflect.Type) string {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if p := walk(typ.Field(i).Type); p != "" {
					return typ.Field(i).Name + "." + p
				}
			}
			return ""
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return ""
		default:
			return typ.String()
		}
	}
	elem := reflect.TypeOf(InstallLog{}.chunks).Elem().Elem()
	if p := walk(elem); p != "" {
		t.Errorf("install-log chunk element %s holds a pointer at %s", elem, p)
	}
}

// TestInstallLogEngineAppendAllocs pins the engine's path into the log:
// appending in-table records to a chunk that has room allocates nothing.
func TestInstallLogEngineAppendAllocs(t *testing.T) {
	var l InstallLog
	l.setNames([]string{"dev-a", "dev-b"}, []string{"app.x"})
	recs := []pendingInstall{
		{dev: stream.Ref{ID: 1, S: "dev-a"}, app: 0, day: 100},
		{dev: stream.Ref{ID: 2, S: "dev-b"}, app: 0, day: 100},
	}
	l.appendPending(recs) // the first chunk
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { l.appendPending(recs) }); allocs != 0 {
		t.Errorf("an engine append into a chunk with room allocated %v times", allocs)
	}
	if l.used != 1 {
		t.Fatalf("the appends filled %d chunks; the test must stay within one", l.used)
	}
	want := InstallRecord{Device: "dev-b", App: "app.x", Day: 100}
	if got := collect(t, &l); len(got) != 2*(runs+2) || got[len(got)-1] != want {
		t.Errorf("log holds %d records ending %+v, want %d ending %+v", len(got), got[len(got)-1], 2*(runs+2), want)
	}
}

// TestInstallLogNameTable covers the name table around the engine path:
// devices outside the table (rotated IDs) and by-name appends go to the
// overflow, a grown package list keeps every ID, a different one moves
// the resident records' names to the overflow, and a spill flush empties
// the overflow without changing what All reads.
func TestInstallLogNameTable(t *testing.T) {
	for _, window := range []int{0, 3} {
		var l InstallLog
		if window > 0 {
			if err := l.EnableSpill(t.TempDir(), window); err != nil {
				t.Fatal(err)
			}
		}
		var ref []InstallRecord
		l.setNames([]string{"dev-a", "dev-b"}, []string{"app.x"})
		l.appendPending([]pendingInstall{
			{dev: stream.Ref{ID: 2, S: "dev-b"}, app: 0, day: 7},
			{dev: stream.Ref{S: "dev-b-rot1"}, app: 0, day: 7},
		})
		ref = append(ref, InstallRecord{Device: "dev-b", App: "app.x", Day: 7}, InstallRecord{Device: "dev-b-rot1", App: "app.x", Day: 7})
		l.Append(InstallRecord{Device: "dev-a", App: "app.y", Day: 8})
		ref = append(ref, InstallRecord{Device: "dev-a", App: "app.y", Day: 8})
		l.setNames([]string{"dev-a", "dev-b"}, []string{"app.x", "app.z"}) // grown
		l.appendPending([]pendingInstall{{dev: stream.Ref{ID: 1, S: "dev-a"}, app: 1, day: 9}})
		ref = append(ref, InstallRecord{Device: "dev-a", App: "app.z", Day: 9})
		l.setNames([]string{"dev-c"}, []string{"app.w"}) // a different world
		l.appendPending([]pendingInstall{{dev: stream.Ref{ID: 1, S: "dev-c"}, app: 0, day: 9}})
		ref = append(ref, InstallRecord{Device: "dev-c", App: "app.w", Day: 9})
		got := collect(t, &l)
		if len(got) != len(ref) {
			t.Fatalf("window %d: %d records, want %d", window, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("window %d: record %d = %+v, want %+v", window, i, got[i], ref[i])
			}
		}
		if window > 0 && len(l.names.over) > l.n*2 {
			t.Errorf("window %d: overflow holds %d names for %d resident records", window, len(l.names.over), l.n)
		}
		l.Close()
	}
}
