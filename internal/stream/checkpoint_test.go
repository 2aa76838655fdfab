package stream_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/sim"
	"repro/internal/stream"
)

// tinyWorldCheckpoint returns the one-day checkpoint of a TinyConfig
// world shrunk to a few apps per IIP, so the fuzzer mutates tens of
// kilobytes instead of megabytes: real store, ledger, mediator, platform
// and stream sections, and a real install list.
func tinyWorldCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	cfg := sim.TinyConfig()
	cfg.BaselineApps, cfg.BackgroundApps = 4, 4
	for name := range cfg.AppsPerIIP {
		cfg.AppsPerIIP[name] = 2
	}
	cfg.TotalAdvertised, cfg.OffersTarget = 8, 14
	cfg.WorkerPoolSize, cfg.ChartSize = 12, 4
	cfg.Window.End = cfg.Window.Start
	w, err := sim.NewWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	var enc []byte
	if _, err := w.RunOpts(sim.RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			if enc == nil {
				enc = cp.Encode()
			}
			return nil
		},
	}); err != nil {
		tb.Fatal(err)
	}
	return enc
}

// reseal gives data's checkpoint body a matching CRC trailer, so fuzzed
// mutations inside the body reach the body decoder instead of stopping at
// the checksum. It returns nil when data has no complete body.
func reseal(data []byte) []byte {
	hdr := len(stream.CheckpointMagic) + 1
	if len(data) <= hdr {
		return nil
	}
	n, k := binary.Uvarint(data[hdr:])
	if k <= 0 || n > uint64(len(data)-hdr-k) {
		return nil
	}
	end := hdr + k + int(n)
	out := append([]byte(nil), data[:end]...)
	return binary.LittleEndian.AppendUint32(out, binenc.CRC(data[hdr+k:end]))
}

// installsOf iterates a checkpoint's install list to the end.
func installsOf(t *testing.T, c *stream.Checkpoint) []stream.Install {
	t.Helper()
	var out []stream.Install
	for in, err := range c.Installs.All() {
		if err != nil {
			t.Fatalf("install list fails to iterate: %v", err)
		}
		out = append(out, in)
	}
	if len(out) != c.Installs.Len() {
		t.Fatalf("install list yields %d records, Len says %d", len(out), c.Installs.Len())
	}
	return out
}

// FuzzDecodeCheckpoint feeds DecodeCheckpoint mangled checkpoints, both
// as given (the CRC rejects nearly all of them) and resealed with a
// matching CRC. It must never panic, and whatever it accepts must have an
// install list that iterates cleanly. An accepted input as given must
// re-encode byte-identically through Encode and WriteTo; a resealed one
// may hold non-canonical varints, so its re-encoding must instead be a
// fixed point of decode and encode, with the same installs.
func FuzzDecodeCheckpoint(f *testing.F) {
	literal := &stream.Checkpoint{
		Day: 42, Days: 12, OrganicInstalls: 100, IncentivizedInstalls: 50,
		CertifiedCompletions: 48, RevenueUSD: 1.5, LogOffset: 9999,
		Store: []byte("store"), Ledger: []byte("ledger"), Mediator: []byte("med"),
		Platforms: []stream.NamedBlob{{Name: "fyber", Data: []byte{1}}, {Name: "rankapp", Data: []byte{2}}},
		Streams:   []stream.NamedBlob{{Name: "engine/com.x", Data: []byte{3, 4}}},
		Installs:  stream.InstallList([]stream.Install{{Device: "d", App: "a", Day: 41}}),
	}
	f.Add(literal.Encode())
	f.Add(tinyWorldCheckpoint(f))
	f.Add([]byte(stream.CheckpointMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := stream.DecodeCheckpoint(data); err == nil {
			installsOf(t, c)
			if !bytes.Equal(c.Encode(), data) {
				t.Fatal("accepted checkpoint does not re-encode byte-identically")
			}
			var buf bytes.Buffer
			if _, err := c.WriteTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("accepted checkpoint does not stream back byte-identically (err %v)", err)
			}
		}
		sealed := reseal(data)
		if sealed == nil {
			return
		}
		c, err := stream.DecodeCheckpoint(sealed)
		if err != nil {
			return
		}
		ins := installsOf(t, c)
		again := c.Encode()
		c2, err := stream.DecodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(c2.Encode(), again) {
			t.Fatal("re-encoding is not a fixed point")
		}
		ins2 := installsOf(t, c2)
		for i := range ins {
			if ins[i] != ins2[i] {
				t.Fatalf("install %d changed across re-encoding: %+v vs %+v", i, ins[i], ins2[i])
			}
		}
	})
}

// chunkRecorder records the size of every Write it receives.
type chunkRecorder struct {
	bytes.Buffer
	writes []int
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.Buffer.Write(p)
}

// TestCheckpointWriteToStreams: WriteTo produces Encode's bytes without
// ever buffering the body, for a live install view and for a decoded one,
// and a failing or short install source fails the write instead of
// producing a checkpoint.
func TestCheckpointWriteToStreams(t *testing.T) {
	const records = 20000 // several 64 KiB chunks of install records
	list := make([]stream.Install, records)
	for i := range list {
		list[i] = stream.Install{Device: fmt.Sprintf("dev-%05d", i%977), App: fmt.Sprintf("com.app%d", i%31), Day: dates.Date(i / 500)}
	}
	c := &stream.Checkpoint{
		Day: 40, Days: 41, RevenueUSD: 2.5, LogOffset: 1 << 40,
		Store:     bytes.Repeat([]byte{7}, 200_000), // written around the chunk buffer
		Ledger:    []byte("ledger"),
		Platforms: []stream.NamedBlob{{Name: "fyber", Data: []byte{1, 2}}},
		Installs:  stream.InstallList(list),
	}
	want := c.Encode()
	decoded, err := stream.DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]*stream.Checkpoint{"live": c, "decoded": decoded} {
		var rec chunkRecorder
		n, err := cp.WriteTo(&rec)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("%s: WriteTo = (%d, %v), want (%d, nil)", name, n, err, len(want))
		}
		if !bytes.Equal(rec.Bytes(), want) {
			t.Fatalf("%s: WriteTo bytes differ from Encode", name)
		}
		// Writes are 64 KiB chunks, or the part of the big store blob
		// written around the buffer: none holds the whole body.
		for _, w := range rec.writes {
			if w > 1<<16 && w > len(c.Store) {
				t.Errorf("%s: a write of %d bytes; chunks are 64 KiB", name, w)
			}
		}
	}
	got := installsOf(t, decoded)
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("decoded install %d = %+v, want %+v", i, got[i], list[i])
		}
	}

	failing := *c
	failing.Installs = stream.NewInstalls(records, func(yield func(stream.Install, error) bool) {
		for _, in := range list[:records/2] {
			if !yield(in, nil) {
				return
			}
		}
		yield(stream.Install{}, errors.New("spill read failed"))
	})
	short := *c
	short.Installs = stream.NewInstalls(records, stream.InstallList(list[:records-1]).All())
	for name, cp := range map[string]*stream.Checkpoint{"failing": &failing, "short": &short} {
		if _, err := cp.WriteTo(io.Discard); err == nil {
			t.Errorf("%s install source: WriteTo succeeded", name)
		}
		if enc := cp.Encode(); enc != nil {
			t.Errorf("%s install source: Encode returned %d bytes, want nil", name, len(enc))
		}
	}
}
