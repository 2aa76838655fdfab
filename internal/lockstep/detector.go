package lockstep

import (
	"slices"
	"sort"

	"repro/internal/dates"
)

// Detector is the incremental form of Detect: events stream in one at a
// time (a sweep cell feeds it each day's installs at the day barrier) and
// Groups can be asked for at any point, reporting the lockstep clusters
// formed so far.
//
// Device and app strings are interned to dense int32 ids on first sight,
// so the co-occurrence state is an inverted index over integers: each
// (app, bucket) incidence cell lists its member devices and each device
// lists its cells, sorted. Ingest touches only the event's cell and the
// device's own cell list; no pairwise state is kept. A cell that outgrows
// MaxBucketPopulation goes dead and drops its members, so a viral organic
// app degrades to O(1) per event instead of linking the population.
// Groups counts, per device, the co-members of its live cells — every
// shared live cell is exactly one shared synchronized app, because the
// (device, app) dedup puts a device in at most one cell per app.
//
// A Detector is not safe for concurrent use.
type Detector struct {
	cfg Config

	devID   map[string]int32
	devName []string
	appID   map[string]int32
	appName []string

	// cellID maps an (app, bucket) key to its index in cells; dead
	// cells crossed the population cap and link no pairs.
	cellID map[uint64]int32
	cells  []cellState

	// devCells[dev] lists a cellRef for every cell the device's first
	// install of an app landed in, dead or alive, sorted. Refs sort
	// app-major, so the list doubles as the (device, app) dedup set.
	devCells [][]uint64

	// counts and touched are Groups' co-membership accumulator (one
	// slot per device, zero between uses) and the slots it dirtied;
	// both are reused across calls.
	counts  []int32
	touched []int32

	// Accounting surfaced through Stats; metrics, when attached, mirrors
	// the increments into obs counters (observation only).
	bucketsRetracted int64
	pairsPruned      int64
	metrics          *Metrics
}

type cellState struct {
	// devs lists the members while the cell is alive.
	devs []int32
	// pop counts every non-duplicate arrival, dead or alive — the basis
	// for the population cap and for pricing the signal a dead cell
	// discards.
	pop  int
	dead bool
}

// NewDetector returns an empty incremental detector. Config fields are
// normalized exactly as Detect normalizes them.
func NewDetector(cfg Config) *Detector {
	if cfg.DayBucket < 1 {
		cfg.DayBucket = 1
	}
	if cfg.MinCommonApps < 1 {
		cfg.MinCommonApps = 1
	}
	if cfg.MinGroupSize < 2 {
		cfg.MinGroupSize = 2
	}
	return &Detector{
		cfg:    cfg,
		devID:  map[string]int32{},
		appID:  map[string]int32{},
		cellID: map[uint64]int32{},
	}
}

// Stats returns the detector's internal accounting so far.
func (d *Detector) Stats() Stats {
	return Stats{
		BucketsRetracted: d.bucketsRetracted,
		PairsPruned:      d.pairsPruned,
	}
}

// Grow pre-sizes the intern tables and incidence map for an expected
// event count, saving rehash churn on bulk ingests.
func (d *Detector) Grow(events int) {
	if events <= 0 || len(d.devID) > 0 {
		return
	}
	devs := events/4 + 1
	d.devID = make(map[string]int32, devs)
	d.devName = make([]string, 0, devs)
	d.devCells = make([][]uint64, 0, devs)
	d.appID = make(map[string]int32, events/16+1)
	d.cellID = make(map[uint64]int32, events/2+1)
	d.cells = make([]cellState, 0, events/2+1)
}

// Events returns how many non-duplicate installs have been ingested.
func (d *Detector) Events() int {
	n := 0
	for _, refs := range d.devCells {
		n += len(refs)
	}
	return n
}

// Devices returns the detector's device table: every device passed to
// Ingest, once each, in first-ingest order. Ingest interns the device
// before anything else, so a device is listed even when its installs
// linked nothing (a duplicate pair, a dead cell). The slice is the table
// itself, clipped so appends cannot reach it; do not modify it.
func (d *Detector) Devices() []string { return slices.Clip(d.devName) }

func (d *Detector) internDev(name string) int32 {
	if id, ok := d.devID[name]; ok {
		return id
	}
	id := int32(len(d.devName))
	d.devID[name] = id
	d.devName = append(d.devName, name)
	d.devCells = append(d.devCells, nil)
	return id
}

func (d *Detector) internApp(name string) int32 {
	if id, ok := d.appID[name]; ok {
		return id
	}
	id := int32(len(d.appName))
	d.appID[name] = id
	d.appName = append(d.appName, name)
	return id
}

func cellKey(app int32, bucket int) uint64 {
	return uint64(uint32(app))<<32 | uint64(uint32(bucket))
}

// cellRef packs a cell's app over its index in cells. Two devices share a
// cell exactly when they hold equal refs, and a ref resolves to its state
// without hashing.
func cellRef(app, cell int32) uint64 {
	return uint64(uint32(app))<<32 | uint64(uint32(cell))
}

// Ingest feeds one install observation. Duplicate (device, app) pairs are
// ignored regardless of day, matching the batch detector.
func (d *Detector) Ingest(device, app string, day dates.Date) {
	di := d.internDev(device)
	ai := d.internApp(app)
	// The device's cell for ai, if it has one, sits where the app's
	// smallest key would insert: one search is both the dedup check and
	// the sorted insertion point.
	refs := d.devCells[di]
	i, _ := slices.BinarySearch(refs, cellRef(ai, 0))
	if i < len(refs) && int32(refs[i]>>32) == ai {
		return
	}
	key := cellKey(ai, int(day)/d.cfg.DayBucket)
	ci, ok := d.cellID[key]
	if !ok {
		ci = int32(len(d.cells))
		d.cellID[key] = ci
		d.cells = append(d.cells, cellState{})
	}
	d.devCells[di] = slices.Insert(refs, i, cellRef(ai, ci))

	c := &d.cells[ci]
	c.pop++
	if c.dead {
		// Every prior arrival is a device this one silently fails to
		// link with — priced so the cap's signal loss is attributable.
		d.pairsPruned += int64(c.pop - 1)
		d.metrics.addPruned(int64(c.pop - 1))
		return
	}
	if max := d.cfg.MaxBucketPopulation; max > 0 && c.pop > max {
		// The cell just outgrew the cap: a hugely popular bucket must not
		// link devices (the CopyCatch-style guard). Groups skips dead
		// cells, so dropping the members retracts every pair they formed.
		c.dead = true
		c.devs = nil
		d.bucketsRetracted++
		// The max resident pairs undone plus the max links the arrival
		// that crossed the cap never formed: pop*(pop-1)/2 with pop=max+1.
		pruned := int64(c.pop) * int64(c.pop-1) / 2
		d.pairsPruned += pruned
		d.metrics.addRetraction(pruned)
		return
	}
	c.devs = append(c.devs, di)
}

// IngestEvent feeds one Event.
func (d *Detector) IngestEvent(ev Event) { d.Ingest(ev.Device, ev.App, ev.Day) }

// namePair returns the pair's device names in name order.
func (d *Detector) namePair(a, b int32) [2]string {
	na, nb := d.devName[a], d.devName[b]
	if na > nb {
		na, nb = nb, na
	}
	return [2]string{na, nb}
}

func sortPairs(out [][2]string) [][2]string {
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// QualifyingPairs returns the device pairs currently meeting the
// MinCommonApps criterion, each name-ordered, the list sorted: every pair
// whose shared live cells number at least MinCommonApps.
func (d *Detector) QualifyingPairs() [][2]string {
	var out [][2]string
	d.eachQualifying(func(a int32, bs, _ []int32) {
		for _, b := range bs {
			out = append(out, d.namePair(a, b))
		}
	})
	return sortPairs(out)
}

// eachQualifying reports every device pair meeting MinCommonApps as
// stars: fn(a, bs, apps) says a qualifies with each partner in bs, and
// apps is the union of those pairs' linking apps. Every qualifying pair
// appears in exactly one star; stars come in no particular order, and fn
// must not retain the slices.
//
// For each device a it counts how many live cells a shares with every
// co-member b > a. A pair shares at most one cell per app, so the count
// is its shared synchronized-app count.
func (d *Detector) eachQualifying(fn func(a int32, bs, apps []int32)) {
	var apps []int32
	if n := len(d.devName); len(d.counts) < n {
		d.counts = append(d.counts, make([]int32, n-len(d.counts))...)
	}
	need := int32(d.cfg.MinCommonApps)
	for a, refs := range d.devCells {
		touched := d.touched[:0]
		for _, ref := range refs {
			// Dead cells dropped their members, so they count nothing.
			for _, b := range d.cells[uint32(ref)].devs {
				if b <= int32(a) {
					continue
				}
				if d.counts[b] == 0 {
					touched = append(touched, b)
				}
				d.counts[b]++
			}
		}
		// Keep the qualifying partners (their counts stay set for the
		// app pass) and clear the rest.
		bs := touched[:0]
		for _, b := range touched {
			if d.counts[b] >= need {
				bs = append(bs, b)
			} else {
				d.counts[b] = 0
			}
		}
		d.touched = touched
		if len(bs) == 0 {
			continue
		}
		// a's linking apps are its live cells holding a partner (only
		// partners still have counts set).
		apps = apps[:0]
		for _, ref := range refs {
			for _, b := range d.cells[uint32(ref)].devs {
				if d.counts[b] >= need {
					apps = append(apps, int32(ref>>32))
					break
				}
			}
		}
		fn(int32(a), bs, apps)
		for _, b := range bs {
			d.counts[b] = 0
		}
	}
}

// joinStar merges device a with each of its qualifying partners in the
// union-find forest, folding their linking apps into the set tracked at
// the merged root. Set union is commutative, so the final forest and app
// sets are independent of the order stars arrive in.
func joinStar(uf *unionFind, linkApps map[int32]map[int32]struct{}, a int32, bs, apps []int32) {
	// merged is the app set of a's component. It stays out of linkApps
	// until the unions are done, so a's current root never has an entry.
	ra := uf.find(a)
	merged := linkApps[ra]
	delete(linkApps, ra)
	if merged == nil {
		merged = make(map[int32]struct{}, len(apps))
	}
	for _, app := range apps {
		merged[app] = struct{}{}
	}
	for _, b := range bs {
		if rb := uf.find(b); rb != uf.find(a) {
			for app := range linkApps[rb] {
				merged[app] = struct{}{}
			}
			delete(linkApps, rb)
		}
		uf.union(a, b)
	}
	linkApps[uf.find(a)] = merged
}

// Groups extracts the current lockstep clusters: union-find over device
// pairs sharing at least MinCommonApps synchronized apps, groups of at
// least MinGroupSize, everything sorted deterministically. It can be
// called repeatedly as events stream in; each call runs in the live
// cells' co-membership, not the full event history.
func (d *Detector) Groups() []Group {
	uf := newUnionFind(len(d.devName))
	linkApps := map[int32]map[int32]struct{}{}
	d.eachQualifying(func(a int32, bs, apps []int32) {
		joinStar(uf, linkApps, a, bs, apps)
	})

	members := map[int32][]int32{}
	for di := range d.devName {
		if !uf.linked(int32(di)) {
			continue
		}
		root := uf.find(int32(di))
		members[root] = append(members[root], int32(di))
	}
	out := make([]Group, 0, len(members))
	for root, devs := range members {
		if len(devs) < d.cfg.MinGroupSize {
			continue
		}
		names := make([]string, len(devs))
		for i, di := range devs {
			names[i] = d.devName[di]
		}
		sort.Strings(names)
		apps := make([]string, 0, len(linkApps[root]))
		for app := range linkApps[root] {
			apps = append(apps, d.appName[app])
		}
		sort.Strings(apps)
		out = append(out, Group{Devices: names, Apps: apps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Devices[0] < out[j].Devices[0] })
	return out
}

// unionFind is a dense-index disjoint-set forest with path halving,
// tracking which elements ever participated in a union (only those belong
// to groups).
type unionFind struct {
	parent []int32
	was    []bool
}

func newUnionFind(n int) *unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return &unionFind{parent: parent, was: make([]bool, n)}
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union links a and b (marking both as participants) and returns the root.
func (u *unionFind) union(a, b int32) int32 {
	u.was[a], u.was[b] = true, true
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	// Deterministic: the smaller index becomes the root. (Group output is
	// re-sorted by name anyway; this just keeps intermediate state stable.)
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return ra
}

// linked reports whether x ever participated in a union.
func (u *unionFind) linked(x int32) bool { return u.was[x] }
