package lockstep

import "repro/internal/randx"

// The sketch tier replaces the exact tier's co-member counting — which
// walks every live cell's full member list at each Groups call — with a
// classic MinHash/LSH pipeline over each device's live (app, bucket) cell
// set, and keeps no per-cell member lists at all:
//
//   - Ingest keeps, per device, the minimum of k universal hashes over
//     the cells the device joined while they were alive. Min is
//     commutative and the cell-death decision depends only on arrival
//     counts, so the signature after a stream of events is independent of
//     how the events were batched — the same order-free argument the
//     exact tier makes for its live-cell counts, which is what preserves
//     the batch≡online contract behind the Detect facade.
//   - Groups buckets signatures band by band (SketchRows rows per band)
//     and emits every same-bucket pair as a candidate.
//   - Every candidate is verified exactly: appendCommonLiveApps
//     intersects the pair's sorted cell lists and keeps the live common
//     cells, one shared synchronized app each. A pair is reported only if
//     that count clears MinCommonApps — the exact tier's criterion, so
//     precision is unchanged and recall can only be lost where banding
//     never collides a qualifying pair.
//
// All hash parameters derive from Config.SketchSeed via randx.Derive, so
// a configuration is a pure function: the same seed yields the same
// signatures, candidates, and groups on every run and worker count.

// initSketch normalizes the sketch knobs and derives the hash family.
func (d *Detector) initSketch() {
	cfg := &d.cfg
	if cfg.SketchRows < 1 {
		cfg.SketchRows = 1
	}
	if cfg.SketchRows > cfg.SketchHashes {
		cfg.SketchRows = cfg.SketchHashes
	}
	// Trailing hashes that don't fill a band would never influence a
	// banding decision; drop them so the signature is exactly bands*rows.
	cfg.SketchHashes -= cfg.SketchHashes % cfg.SketchRows
	d.sketchK = cfg.SketchHashes
	r := randx.Derive(cfg.SketchSeed, "lockstep/minhash")
	d.sketchSalt = r.Uint64()
	d.hashA = make([]uint64, d.sketchK)
	d.hashB = make([]uint64, d.sketchK)
	for i := range d.hashA {
		d.hashA[i] = r.Uint64() | 1 // odd multiplier: a bijection on Z/2^64
		d.hashB[i] = r.Uint64()
	}
}

// emptySig is the k-slot all-max signature a device starts from.
func (d *Detector) emptySig() []uint64 {
	sig := make([]uint64, d.sketchK)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	return sig
}

// mix64 is a 64-bit finalizer (splitmix64's) giving every cell key a
// well-spread base hash the k universal hashes then shear.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sketchAdd records that device di joined cell key while it was alive:
// the device enters banding and its signature minima drop.
func (d *Detector) sketchAdd(di int32, key uint64) {
	d.sketched[di] = true
	h := mix64(key ^ d.sketchSalt)
	sig := d.sigs[int(di)*d.sketchK : (int(di)+1)*d.sketchK]
	for i, a := range d.hashA {
		if v := a*h + d.hashB[i]; v < sig[i] {
			sig[i] = v
		}
	}
}

// Candidates returns the sketch tier's current banding candidate pairs by
// device name (nil for the exact tier), name-ordered and sorted — the
// pre-verification set whose coverage of QualifyingPairs is the sketch
// tier's recall argument.
func (d *Detector) Candidates() [][2]string {
	if !d.cfg.Sketching() {
		return nil
	}
	var out [][2]string
	for pk := range d.candidatePairs() {
		out = append(out, d.namePair(int32(pk>>32), int32(uint32(pk))))
	}
	return sortPairs(out)
}

// candidatePairs returns the packed device pairs whose signatures agree
// on every row of at least one band.
func (d *Detector) candidatePairs() map[uint64]struct{} {
	k, rows := d.sketchK, d.cfg.SketchRows
	if k == 0 {
		return nil
	}
	cand := map[uint64]struct{}{}
	buckets := map[uint64][]int32{}
	for band := 0; band < k/rows; band++ {
		clear(buckets)
		lo := band * rows
		for di, ok := range d.sketched {
			if !ok {
				continue
			}
			h := uint64(14695981039346656037) // FNV offset basis
			for _, v := range d.sigs[di*k+lo : di*k+lo+rows] {
				h = (h ^ v) * 1099511628211 // FNV prime
			}
			buckets[h] = append(buckets[h], int32(di))
		}
		for _, devs := range buckets {
			for i := 0; i < len(devs); i++ {
				for j := i + 1; j < len(devs); j++ {
					cand[pairKey(devs[i], devs[j])] = struct{}{}
				}
			}
		}
	}
	return cand
}

// appendCommonLiveApps intersects two devices' sorted cell lists and
// appends the app of every common cell that is still alive. Each device
// holds at most one cell per app (the (device, app) dedup), so the result
// has no duplicate apps and its length is the pair's exact shared
// synchronized-app count.
func (d *Detector) appendCommonLiveApps(apps []int32, a, b int32) []int32 {
	ca, cb := d.devCells[a], d.devCells[b]
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] < cb[j]:
			i++
		case ca[i] > cb[j]:
			j++
		default:
			if !d.cells[uint32(ca[i])].dead {
				apps = append(apps, int32(ca[i]>>32))
			}
			i++
			j++
		}
	}
	return apps
}
