package fault

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriterTornWrites: injected write failures must persist a strict
// prefix (the torn tail a crash leaves) and surface ErrInjected; the
// same seed must tear at the same operations with the same lengths.
func TestWriterTornWrites(t *testing.T) {
	run := func(seed uint64) (faults int, outs []int) {
		in := New(Config{Seed: seed, WriteErrorProb: 0.3, TornWrites: true})
		var buf bytes.Buffer
		w := in.Writer(&buf)
		for i := 0; i < 200; i++ {
			before := buf.Len()
			n, err := w.Write([]byte("0123456789abcdef"))
			wrote := buf.Len() - before
			if err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("write %d: unexpected error %v", i, err)
				}
				if n != wrote || n >= 16 {
					t.Fatalf("write %d: torn write persisted %d reported %d", i, wrote, n)
				}
				faults++
			} else if n != 16 || wrote != 16 {
				t.Fatalf("write %d: clean write persisted %d reported %d", i, wrote, n)
			}
			outs = append(outs, wrote)
		}
		if got := int(in.Injected()); got != faults {
			t.Fatalf("Injected()=%d, observed %d", got, faults)
		}
		return faults, outs
	}
	f1, o1 := run(7)
	f2, o2 := run(7)
	if f1 == 0 {
		t.Fatal("no faults fired at p=0.3 over 200 writes")
	}
	if f1 != f2 {
		t.Fatalf("same seed, different fault counts: %d vs %d", f1, f2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different tear at write %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

// TestWriterDiskBudget: the ENOSPC injector persists exactly the prefix
// that fit the budget, fails that write and every later one with
// ErrDiskFull — and the error must NOT read as an injected crash
// (ErrInjected), because a full disk is an environment failure the
// caller retries elsewhere, not a planned process death.
func TestWriterDiskBudget(t *testing.T) {
	in := New(Config{DiskBudget: 25})
	var buf bytes.Buffer
	w := in.Writer(&buf)

	if n, err := w.Write([]byte("0123456789")); n != 10 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("0123456789")); n != 10 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// 5 bytes remain: the 10-byte write persists a 5-byte prefix and fails.
	n, err := w.Write([]byte("0123456789"))
	if n != 5 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("over budget: n=%d err=%v, want 5-byte prefix + ErrDiskFull", n, err)
	}
	if errors.Is(err, ErrInjected) {
		t.Fatal("ErrDiskFull must not wrap ErrInjected: ENOSPC is not a simulated crash")
	}
	if buf.Len() != 25 {
		t.Fatalf("persisted %d bytes, want the full 25-byte budget", buf.Len())
	}
	// The disk stays full: later writes persist nothing.
	if n, err := w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("post-ENOSPC write: n=%d err=%v", n, err)
	}
	if buf.Len() != 25 {
		t.Fatalf("post-ENOSPC write leaked %d byte(s) past the budget", buf.Len()-25)
	}
	// One budget is shared across all of the injector's writers, like
	// spool files sharing one filesystem.
	var other bytes.Buffer
	if n, err := in.Writer(&other).Write([]byte("y")); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("sibling writer after ENOSPC: n=%d err=%v", n, err)
	}
	if in.Injected() == 0 {
		t.Fatal("budget exhaustion not counted by Injected()")
	}
}

// TestNilInjectorPassThrough: a nil injector must wrap nothing.
func TestNilInjectorPassThrough(t *testing.T) {
	var in *Injector
	var buf bytes.Buffer
	if w := in.Writer(&buf); w != io.Writer(&buf) {
		t.Fatal("nil injector wrapped the writer")
	}
	r := strings.NewReader("x")
	if got := in.Reader(r); got != io.Reader(r) {
		t.Fatal("nil injector wrapped the reader")
	}
	if in.Injected() != 0 {
		t.Fatal("nil injector reports injections")
	}
}

// TestReaderInjection: read faults fire and pass-through reads work.
func TestReaderInjection(t *testing.T) {
	in := New(Config{Seed: 3, ReadErrorProb: 0.5})
	var okReads, faults int
	for i := 0; i < 100; i++ {
		r := in.Reader(strings.NewReader("hello"))
		buf := make([]byte, 5)
		_, err := r.Read(buf)
		switch {
		case err == nil:
			okReads++
		case errors.Is(err, ErrInjected):
			faults++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okReads == 0 || faults == 0 {
		t.Fatalf("want a mix of clean and injected reads, got ok=%d faults=%d", okReads, faults)
	}
}

// TestRoundTripperInjection: dropped requests surface ErrInjected; the
// rest reach the server.
func TestRoundTripperInjection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	in := New(Config{Seed: 11, RequestErrorProb: 0.5})
	client := &http.Client{Transport: in.RoundTripper(nil)}
	var okReqs, faults int
	for i := 0; i < 60; i++ {
		resp, err := client.Get(srv.URL)
		switch {
		case err == nil:
			resp.Body.Close()
			okReqs++
		case errors.Is(err, ErrInjected):
			faults++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okReqs == 0 || faults == 0 {
		t.Fatalf("want a mix, got ok=%d faults=%d", okReqs, faults)
	}
}

// TestCrashPlan: the Nth hit fires exactly once, other points never do.
func TestCrashPlan(t *testing.T) {
	p, err := ParseCrashPlan("cell-day=3, worker-lease=1")
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	p.SetExit(func(point string) { fired = append(fired, point) })
	p.Hit("unplanned")
	p.Hit("cell-day")
	p.Hit("cell-day")
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	p.Hit("cell-day")
	p.Hit("cell-day") // consumed: fires once
	p.Hit("worker-lease")
	if len(fired) != 2 || fired[0] != "cell-day" || fired[1] != "worker-lease" {
		t.Fatalf("fired = %v", fired)
	}
	if _, err := ParseCrashPlan("bad"); err == nil {
		t.Fatal("plan without = accepted")
	}
	if _, err := ParseCrashPlan("p=0"); err == nil {
		t.Fatal("zero hit count accepted")
	}
	var nilPlan *CrashPlan
	nilPlan.Hit("anything") // must not panic
}

func TestParseWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		nilInj  bool
		wantErr bool
		prob    float64
		seed    uint64
	}{
		{spec: "0.5", prob: 0.5},
		{spec: "0.5:7", prob: 0.5, seed: 7},
		{spec: "1.5", wantErr: true},
		{spec: "x", wantErr: true},
		{spec: "0.1:y", wantErr: true},
		{spec: "", nilInj: true},
	} {
		inj, err := ParseWriteFaults(tc.spec)
		switch {
		case tc.wantErr:
			if err == nil || !strings.Contains(err.Error(), tc.spec) {
				t.Errorf("ParseWriteFaults(%q) error = %v, want one naming the spec", tc.spec, err)
			}
		case err != nil:
			t.Errorf("ParseWriteFaults(%q): %v", tc.spec, err)
		case tc.nilInj:
			if inj != nil {
				t.Errorf("ParseWriteFaults(%q) = %+v, want a nil injector", tc.spec, inj.cfg)
			}
		case inj == nil:
			t.Errorf("ParseWriteFaults(%q) = nil injector", tc.spec)
		default:
			want := Config{Seed: tc.seed, WriteErrorProb: tc.prob, TornWrites: true}
			if inj.cfg != want {
				t.Errorf("ParseWriteFaults(%q) config = %+v, want %+v", tc.spec, inj.cfg, want)
			}
		}
	}
}
