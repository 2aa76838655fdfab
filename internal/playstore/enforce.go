package playstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/dates"
	"repro/internal/randx"
)

// Enforcer models Google Play's install-filtering systems (the "Keeping
// the Play Store trusted" defenses the paper cites). It scans each app's
// trailing install window for bursts dominated by high-fraud-score devices
// and retroactively removes a fraction of those installs.
//
// The paper's measurements indicate this enforcement is weak: the honey
// app's purchased installs all survived, and only ~2% of apps advertised
// on unvetted IIPs ever showed install-count decreases. The default
// Sensitivity is calibrated to that observed behaviour; the enforcement
// ablation bench sweeps it.
//
// Scans run concurrently across store shards, so the detection draw for an
// app is keyed by (app, day) rather than consumed from a shared stream:
// the decision for a given app on a given day is identical no matter which
// shard worker reaches it first.
type Enforcer struct {
	// Sensitivity in [0, 1] scales the per-scan detection probability.
	Sensitivity float64
	// FraudThreshold is the minimum mean fraud score of a window for it
	// to be considered suspicious.
	FraudThreshold float64
	// MinBurst is the minimum trailing-window install count that can
	// trigger a scan (small bursts are invisible to the detector).
	MinBurst int64
	// RemoveFraction is the fraction of the suspicious window's installs
	// removed upon detection.
	RemoveFraction float64

	// seed keys the per-(app, day) detection draws.
	seed uint64

	// detections counts enforcement actions, for reporting; it is bumped
	// atomically because shard scans run in parallel.
	detections atomic.Int64
}

// DefaultEnforcer returns an enforcer calibrated to the weak enforcement
// the paper observed.
func DefaultEnforcer(r *randx.Rand) *Enforcer {
	return &Enforcer{
		Sensitivity:    0.4,
		FraudThreshold: 0.55,
		MinBurst:       20,
		RemoveFraction: 0.9,
		seed:           r.Uint64(),
	}
}

// NewEnforcer returns an enforcer with explicit parameters (used by the
// enforcement-sensitivity ablation).
func NewEnforcer(r *randx.Rand, sensitivity float64) *Enforcer {
	e := DefaultEnforcer(r)
	e.Sensitivity = sensitivity
	return e
}

// Detections returns the number of enforcement actions taken so far.
func (e *Enforcer) Detections() int { return int(e.detections.Load()) }

// EncodeState serializes the enforcer's parameters, detection-draw seed,
// and action counter; DecodeEnforcer rebuilds an identically behaving
// enforcer. The run-log snapshot codec uses the pair so a resumed or
// replayed run redraws every remaining (app, day) detection decision
// bit-for-bit.
func (e *Enforcer) EncodeState() []byte {
	enc := binenc.NewEnc(64)
	enc.F64(e.Sensitivity)
	enc.F64(e.FraudThreshold)
	enc.Varint(e.MinBurst)
	enc.F64(e.RemoveFraction)
	enc.U64(e.seed)
	enc.Varint(e.detections.Load())
	return enc.Bytes()
}

// DecodeEnforcer rebuilds an enforcer from EncodeState output.
func DecodeEnforcer(state []byte) (*Enforcer, error) {
	dec := binenc.NewDec(state)
	e := &Enforcer{
		Sensitivity:    dec.F64(),
		FraudThreshold: dec.F64(),
		MinBurst:       dec.Varint(),
		RemoveFraction: dec.F64(),
		seed:           dec.U64(),
	}
	e.detections.Store(dec.Varint())
	if err := dec.Done(); err != nil {
		return nil, fmt.Errorf("playstore: decoding enforcer: %w", err)
	}
	return e, nil
}

// scan inspects one app on one day and applies filtering, reporting the
// net installs removed (-1 when no detection fired; 0 and up when it did).
// Called by the store with the app's shard lock held; different shards
// scan in parallel. w is the app's trailing chart window ending at day,
// computed once by the caller and shared with chart scoring (scan itself
// only mutates removal counters and the lifetime install counter, never
// window inputs).
func (e *Enforcer) scan(a *app, day dates.Date, w windowMetrics) int64 {
	if e == nil || e.Sensitivity <= 0 {
		return -1
	}
	if w.installs < e.MinBurst {
		return -1
	}
	meanFraud := w.fraudSum / float64(w.installs)
	if meanFraud < e.FraudThreshold {
		return -1
	}
	// Detection probability grows with how blatant the fraud is. The draw
	// is a pure function of (seed, app, day): order-free determinism.
	p := e.Sensitivity * (meanFraud - e.FraudThreshold) / (1 - e.FraudThreshold)
	if randx.Unit01(e.seed, fmt.Sprintf("enforce/%s/%d", a.pkg, day)) >= p {
		return -1
	}
	// A filtering pass claws back the referral installs accumulated over
	// the trailing month, not just the triggering burst (the paper's
	// example app dropped a full public bin, 1,000+ to 500+).
	const clawbackDays = 30
	back := a.window(day, clawbackDays)
	remove := int64(float64(back.referral) * e.RemoveFraction)
	if remove <= 0 {
		return -1
	}
	e.detections.Add(1)
	// Attribute removals to the most recent days first, mirroring how a
	// public install count drops after a filtering pass. The clawback
	// window holds referrals, so the app's referral pair is placed.
	ar := a.ar
	left := remove
	for d := day; d >= day.AddDays(-(clawbackDays-1)) && left > 0; d-- {
		j := a.slotAt(d)
		if j < 0 {
			continue
		}
		p := a.pairSlot(j)
		avail := ar.organic[j] + ar.referral[p] - ar.removed[p]
		if avail <= 0 {
			continue
		}
		take := avail
		if take > left {
			take = left
		}
		ar.removed[p] += take
		left -= take
	}
	a.installs -= remove - left
	if a.installs < 0 {
		a.installs = 0
	}
	return remove - left
}
