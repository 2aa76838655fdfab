// Package lockstep implements the detection direction the paper proposes
// in Section 5.2: its measurements "can provide a ground truth of apps to
// help train machine learning models in detecting the lockstep behavior
// of users who perform similar in-app activities to complete the offer"
// (citing CopyCatch and CatchSync). The detector finds groups of devices
// that install the same advertised apps within tight time windows — the
// signature crowd workers and bot farms leave on the store's install
// stream — using co-occurrence counting over (app, day-bucket) incidence
// and union-find grouping.
package lockstep

import (
	"fmt"

	"repro/internal/dates"
)

// Event is one observed install: a device acquiring an app on a day.
type Event struct {
	Device string
	App    string
	Day    dates.Date
}

// Config tunes the detector.
type Config struct {
	// DayBucket is the temporal granularity: installs of the same app
	// within the same bucket count as synchronized (CopyCatch's 2Δt).
	DayBucket int
	// MinCommonApps is how many synchronized apps two devices must share
	// to be considered in lockstep.
	MinCommonApps int
	// MinGroupSize is the smallest reported device group.
	MinGroupSize int
	// MaxBucketPopulation skips (app, bucket) cells with more devices
	// than this — hugely popular organic apps would otherwise link
	// everyone (a standard CopyCatch-style guard).
	MaxBucketPopulation int
}

// Stats is the detector's internal accounting, surfaced so signal loss at
// the bucket-population cap — previously silent — is attributable in
// reports.
type Stats struct {
	// BucketsRetracted counts (app, bucket) cells that crossed
	// MaxBucketPopulation and had their pair contributions discarded.
	BucketsRetracted int64 `json:"buckets_retracted"`
	// PairsPruned counts device pairs whose co-occurrence signal was
	// discarded by retraction (links undone at cell death plus links a
	// dead cell never formed).
	PairsPruned int64 `json:"pairs_pruned"`
}

// DefaultConfig returns a conservative configuration: three shared
// synchronized installs within 2-day buckets, groups of three or more.
func DefaultConfig() Config {
	return Config{
		DayBucket:           2,
		MinCommonApps:       3,
		MinGroupSize:        3,
		MaxBucketPopulation: 400,
	}
}

// Group is one detected lockstep cluster.
type Group struct {
	Devices []string
	// Apps are the synchronized apps that link the group.
	Apps []string
}

// Detect finds lockstep groups in the event stream. It is deterministic:
// groups and their members come out sorted. Detect is the batch facade
// over the incremental Detector — one Ingest per event, one Groups call —
// so the post-hoc and online paths cannot drift.
func Detect(events []Event, cfg Config) []Group {
	d := NewDetector(cfg)
	d.Grow(len(events))
	for _, ev := range events {
		d.Ingest(ev.Device, ev.App, ev.Day)
	}
	return d.Groups()
}

// Evaluation scores detected groups against ground-truth labels.
type Evaluation struct {
	TruePositives  int     `json:"tp"` // flagged devices that are incentivized workers
	FalsePositives int     `json:"fp"` // flagged organic devices
	FalseNegatives int     `json:"fn"` // unflagged workers
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	F1             float64 `json:"f1"`
}

func (e Evaluation) String() string {
	return fmt.Sprintf("precision=%.3f recall=%.3f f1=%.3f (tp=%d fp=%d fn=%d)",
		e.Precision, e.Recall, e.F1, e.TruePositives, e.FalsePositives, e.FalseNegatives)
}

// Evaluate compares flagged devices with a ground-truth worker set.
func Evaluate(groups []Group, workers map[string]bool) Evaluation {
	flagged := map[string]bool{}
	for _, g := range groups {
		for _, d := range g.Devices {
			flagged[d] = true
		}
	}
	var e Evaluation
	for d := range flagged {
		if workers[d] {
			e.TruePositives++
		} else {
			e.FalsePositives++
		}
	}
	for d := range workers {
		if !flagged[d] {
			e.FalseNegatives++
		}
	}
	if e.TruePositives+e.FalsePositives > 0 {
		e.Precision = float64(e.TruePositives) / float64(e.TruePositives+e.FalsePositives)
	}
	if e.TruePositives+e.FalseNegatives > 0 {
		e.Recall = float64(e.TruePositives) / float64(e.TruePositives+e.FalseNegatives)
	}
	if e.Precision+e.Recall > 0 {
		e.F1 = 2 * e.Precision * e.Recall / (e.Precision + e.Recall)
	}
	return e
}
