package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

// durableConfig is the tiny world cut to a 12-day window, so a study
// with a run log, checkpoints and a resume fits a unit test.
func durableConfig(t *testing.T) sim.Config {
	t.Helper()
	cfg := sim.TinyConfig()
	if err := cfg.Resize(0, 0, 12); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runStudy(cfg sim.Config, opts Options) error {
	opts.SkipHoney = true
	s, err := RunCtx(context.Background(), cfg, opts)
	if err == nil {
		s.Close()
	}
	return err
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// durableRun runs the 12-day study with its log in dir/run.log (64 KiB
// segments) and a checkpoint every 5 days in dir/run.ckpt, which leaves
// the day-10 checkpoint on disk. It returns the log's bytes and the
// checkpoint.
func durableRun(t *testing.T, dir string) ([]byte, *stream.Checkpoint) {
	t.Helper()
	logPath, ckptPath := filepath.Join(dir, "run.log"), filepath.Join(dir, "run.ckpt")
	err := runStudy(durableConfig(t), Options{
		EventLogPath:    logPath,
		SegmentBytes:    64 << 10,
		CheckpointPath:  ckptPath,
		CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := stream.ReadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Days != 10 || cp.LogOffset == 0 {
		t.Fatalf("checkpoint after %d days at log offset %d, want day 10 with a log", cp.Days, cp.LogOffset)
	}
	return readFile(t, logPath), cp
}

// TestStudyResumeLogBitIdentical: a study killed past its last
// checkpoint, with a torn tail on its log, resumes through RunCtx to a
// log byte-identical to the uninterrupted run's.
func TestStudyResumeLogBitIdentical(t *testing.T) {
	dir := t.TempDir()
	want, cp := durableRun(t, dir)
	logPath := filepath.Join(dir, "run.log")

	// The crash: everything after the checkpoint is half written, and the
	// last bytes on disk are garbage.
	cut := cp.LogOffset + (int64(len(want))-cp.LogOffset)/2
	torn := append(append([]byte(nil), want[:cut]...), 0xde, 0xad, 0xbe, 0xef)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	err := runStudy(durableConfig(t), Options{
		EventLogPath: logPath,
		ResumePath:   filepath.Join(dir, "run.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, logPath); !bytes.Equal(got, want) {
		t.Fatalf("resumed log (%d bytes) differs from the uninterrupted run's (%d bytes)", len(got), len(want))
	}
}

// TestStudyResumeRefusesForeignLog: resuming onto a log that cannot
// continue at the checkpoint fails before a byte of the file changes.
func TestStudyResumeRefusesForeignLog(t *testing.T) {
	dir := t.TempDir()
	good, cp := durableRun(t, dir)
	ckptPath := filepath.Join(dir, "run.ckpt")

	// A log of another seed, as long as the checkpoint's offset.
	otherCfg := durableConfig(t)
	otherCfg.Seed++
	otherPath := filepath.Join(dir, "other.log")
	if err := runStudy(otherCfg, Options{EventLogPath: otherPath, SegmentBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if n := int64(len(readFile(t, otherPath))); n < cp.LogOffset {
		t.Fatalf("the other seed's log has %d bytes, fewer than the checkpoint offset %d", n, cp.LogOffset)
	}

	// A checkpoint taken by a run with no log.
	nologCkpt := filepath.Join(dir, "nolog.ckpt")
	if err := runStudy(durableConfig(t), Options{CheckpointPath: nologCkpt, CheckpointEvery: 5}); err != nil {
		t.Fatal(err)
	}

	shortPath := filepath.Join(dir, "short.log")
	if err := os.WriteFile(shortPath, good[:cp.LogOffset-1], 0o644); err != nil {
		t.Fatal(err)
	}
	goodPath := filepath.Join(dir, "run.log")

	for _, tc := range []struct {
		name, log, ckpt, why string
	}{
		{"other-seed", otherPath, ckptPath, "different run"},
		{"short", shortPath, ckptPath, "shorter than checkpoint offset"},
		{"no-log-checkpoint", goodPath, nologCkpt, "without an event log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := readFile(t, tc.log)
			err := runStudy(durableConfig(t), Options{EventLogPath: tc.log, ResumePath: tc.ckpt})
			if err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("resume error = %v, want one saying %q", err, tc.why)
			}
			if after := readFile(t, tc.log); !bytes.Equal(after, before) {
				t.Fatalf("refused resume changed the log: %d bytes before, %d after", len(before), len(after))
			}
		})
	}
}

// TestStudyResumeLockstep: a study resumed from the day-10 checkpoint
// reports the lockstep score of the uninterrupted study, because the
// resumed run hands its detector the restored install history before the
// remaining days' installs.
func TestStudyResumeLockstep(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "run.ckpt")
	lockstep := func(opts Options) LockstepResult {
		t.Helper()
		opts.SkipHoney = true
		s, err := Run(durableConfig(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Results.Lockstep
	}
	want := lockstep(Options{CheckpointPath: ckptPath, CheckpointEvery: 5})
	cp, err := stream.ReadCheckpointFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Days != 10 || cp.Installs.Len() == 0 || want.Groups == 0 {
		t.Fatalf("checkpoint after %d days with %d installs, %d groups: nothing to compare",
			cp.Days, cp.Installs.Len(), want.Groups)
	}
	if got := lockstep(Options{ResumePath: ckptPath}); got != want {
		t.Fatalf("resumed study scored %+v, the uninterrupted one %+v", got, want)
	}
}
