package playstore

import (
	"repro/internal/dates"
)

// AppHandle pins one app's shard and catalog row, resolved exactly once.
// The parallel day engine resolves a handle per organic app and per
// campaign target at construction, so its inner loops never hash a package
// name or probe the shard map again.
//
// Handles never dangle: apps are not removed from the catalog, so a handle
// stays valid for the life of its Store.
//
// Locking contract: the *Locked record methods mutate the app row and must
// run under Lock/Unlock on the same handle. Because the engine's
// determinism model guarantees each app is written by exactly one goroutine
// per phase, a caller batches all of an (app, day)'s writes under a single
// Lock/Unlock pair instead of paying one lock acquisition per event — the
// shard lock here provides cross-phase memory visibility and mutual
// exclusion against whole-shard readers (StepDay's scan, Profile), not
// per-event ordering.
type AppHandle struct {
	sh *shard
	a  *app
}

// AppHandle resolves a package name to a handle. It is the only
// string-keyed step on the handle write path; everything after it is
// pointer dereferences.
func (s *Store) AppHandle(pkg string) (AppHandle, error) {
	sh, a, err := s.lookup(pkg)
	if err != nil {
		return AppHandle{}, err
	}
	return AppHandle{sh: sh, a: a}, nil
}

// Valid reports whether the handle is resolved to an app.
func (h AppHandle) Valid() bool { return h.a != nil }

// Package returns the handle's package name.
func (h AppHandle) Package() string { return h.a.pkg }

// Lock acquires the handle's shard lock for a write batch.
func (h AppHandle) Lock() { h.sh.mu.Lock() }

// Unlock releases the handle's shard lock.
func (h AppHandle) Unlock() { h.sh.mu.Unlock() }

// RecordInstallLocked is RecordInstall minus lookup and locking; the caller
// holds Lock.
func (h AppHandle) RecordInstallLocked(in Install) { h.a.recordInstall(in) }

// RecordInstallBatchLocked is RecordInstallBatch minus lookup and locking;
// the caller holds Lock.
func (h AppHandle) RecordInstallBatchLocked(day dates.Date, n int64, source InstallSource, meanFraud float64) {
	h.a.recordInstallBatch(day, n, source, meanFraud)
}

// RecordSessionBatchLocked is RecordSessionBatch minus lookup and locking;
// the caller holds Lock. A batch of one is one RecordSession, integer for
// integer.
func (h AppHandle) RecordSessionBatchLocked(day dates.Date, n, secondsPer int64) {
	h.a.recordSessionBatch(day, n, secondsPer)
}

// RecordPurchaseLocked is RecordPurchase minus lookup and locking; the
// caller holds Lock.
func (h AppHandle) RecordPurchaseLocked(p Purchase) { h.a.recordPurchase(p) }
