package sweep

import (
	"errors"
	"io"
	"testing"

	"repro/internal/dates"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestMemLogReadAcrossDiscard: reads keep absolute offsets across a
// discard, and a read before the kept bytes fails rather than returning
// other bytes.
func TestMemLogReadAcrossDiscard(t *testing.T) {
	data := []byte("0123456789abcdefghij")
	var m memLog
	m.Write(data[:10])
	m.discard(4)
	m.Write(data[10:16])
	read := func(off int64, n int) (string, error) {
		p := make([]byte, n)
		k, err := m.ReadAt(p, off)
		return string(p[:k]), err
	}
	for _, c := range []struct {
		off  int64
		n    int
		want string
		err  error
	}{
		{4, 6, "456789", nil},
		{12, 6, "cdef", io.EOF},
		{16, 1, "", io.EOF},
	} {
		if got, err := read(c.off, c.n); got != c.want || err != c.err {
			t.Errorf("ReadAt(%d, %d) = %q, %v; want %q, %v", c.off, c.n, got, err, c.want, c.err)
		}
	}
	if _, err := read(3, 2); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("a read before the kept bytes returned %v, want an error", err)
	}

	m.discard(2) // already dropped: no-op
	m.discard(16)
	if len(m.buf) != 0 || m.base != 16 {
		t.Fatalf("after discarding everything: %d bytes kept from %d, want 0 from 16", len(m.buf), m.base)
	}
	m.Write(data[16:])
	if got, err := read(16, 4); got != "ghij" || err != nil {
		t.Errorf("ReadAt(16, 4) after a full discard = %q, %v", got, err)
	}
}

// TestMemLogKeepsOneDay: through a whole cell run the in-memory log holds
// only the bytes written since the previous day barrier. The tail reads
// each day whole, so every drain leaves nothing behind, and the buffer's
// capacity stays within twice the largest day's log, a small fraction of
// the run's.
func TestMemLogKeepsOneDay(t *testing.T) {
	sp, ok := scenario.Lookup(microName(t, "paper-baseline"))
	if !ok {
		t.Fatal("micro scenario missing")
	}
	cfg, err := sim.ConfigForSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := &memLog{}
	runLog, err := w.NewRunLog(mem)
	if err != nil {
		t.Fatal(err)
	}
	tap := newDetectorTap(sp, mem, nil)
	var total, maxDay int64
	hook := func(day dates.Date) error {
		end := mem.base + int64(len(mem.buf))
		total, maxDay = end, max(maxDay, end-total)
		if err := tap.drain(); err != nil {
			return err
		}
		if len(mem.buf) != 0 || mem.base != end {
			t.Errorf("%s: the drain left %d bytes from %d, want none from %d", day, len(mem.buf), mem.base, end)
		}
		return nil
	}
	if _, err := w.RunOpts(sim.RunOptions{Log: runLog, Hook: hook}); err != nil {
		t.Fatal(err)
	}
	if c := int64(cap(mem.buf)); c > 2*maxDay || c*5 > total {
		t.Errorf("buffer capacity %d bytes; largest day %d, whole log %d", c, maxDay, total)
	}
}
