package playstore

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
	"repro/internal/dates"
)

// snapshotVersion guards the store snapshot wire format.
const snapshotVersion = 1

// EncodeSnapshot serializes the store's complete state — catalog,
// developers, every app's dense per-day metrics and rolling window, the
// full chart history, the configured scoring/size, and the enforcer —
// into a canonical byte string: encoding the same state always yields the
// same bytes (maps are emitted in sorted order, apps in publication
// order). Equivalence tests therefore compare whole stores by comparing
// snapshots, and DecodeSnapshot rebuilds a store that behaves
// bit-identically under further RecordX/StepDay calls.
func (s *Store) EncodeSnapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()

	enc := binenc.NewEnc(1 << 16)
	enc.U8(snapshotVersion)
	enc.Varint(int64(s.today))
	enc.Varint(int64(s.chartSize))
	enc.U8(uint8(s.scoring))

	if s.enforcer != nil {
		enc.Bool(true)
		enc.Blob(s.enforcer.EncodeState())
	} else {
		enc.Bool(false)
	}

	devs := make([]*Developer, 0, len(s.devs))
	for _, d := range s.devs {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	enc.Uvarint(uint64(len(devs)))
	for _, d := range devs {
		enc.Str(string(d.ID))
		enc.Str(d.Name)
		enc.Str(d.Country)
		enc.Str(d.Website)
		enc.Str(d.Email)
		enc.Bool(d.Public)
	}

	enc.Uvarint(uint64(len(s.pkgs)))
	for _, pkg := range s.pkgs {
		sh := s.shardFor(pkg)
		sh.mu.RLock()
		encodeApp(enc, sh.apps[pkg])
		sh.mu.RUnlock()
	}

	names := make([]string, 0, len(s.history))
	for name := range s.history {
		names = append(names, name)
	}
	sort.Strings(names)
	enc.Uvarint(uint64(len(names)))
	for _, name := range names {
		h := s.history[name]
		days := make([]dates.Date, 0, len(h))
		for d := range h {
			days = append(days, d)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		enc.Str(name)
		enc.Uvarint(uint64(len(days)))
		for _, d := range days {
			enc.Varint(int64(d))
			entries := h[d]
			enc.Uvarint(uint64(len(entries)))
			for _, e := range entries {
				enc.Varint(int64(e.Rank))
				enc.Str(e.Package)
				enc.F64(e.Score)
			}
		}
	}
	return enc.Bytes()
}

func encodeApp(enc *binenc.Enc, a *app) {
	enc.Str(a.pkg)
	enc.Str(a.title)
	enc.Str(a.genre)
	enc.Str(string(a.dev))
	enc.Varint(int64(a.released))
	enc.Varint(a.installs)
	enc.Varint(int64(a.base))
	enc.Varint(int64(a.winEnd))
	enc.Varint(a.win.installs)
	enc.Varint(a.win.referral)
	enc.Varint(a.win.sessions)
	enc.Varint(a.win.sessionSec)
	// The wire keeps the DAU varints of the seed format, and DAU is
	// sessions: the window's is summed from the day columns, so the
	// decoder can cross-check it against the rolling sum above.
	enc.Varint(a.sumInts(a.winEnd.AddDays(-(chartWindowDays - 1))).sessions)
	// Rows are emitted in the seed AoS field order, transposed back out of
	// the columns, so the wire format (and every committed golden built on
	// it) is unchanged by the SoA layout.
	enc.Uvarint(uint64(a.n))
	ar := a.ar
	for j := a.off; j < a.off+a.n; j++ {
		referral, removed := a.pairAt(j)
		enc.Varint(ar.organic[j])
		enc.Varint(referral)
		enc.Varint(removed)
		enc.F64(ar.fraudSum[j])
		enc.Varint(ar.sessions[j])
		enc.Varint(ar.sessionSec[j])
		enc.F64(ar.revenue[j])
		enc.Varint(ar.sessions[j])
	}
}

// DecodeSnapshot rebuilds a store from EncodeSnapshot output, enforcer
// included. The returned store re-encodes to the identical byte string.
func DecodeSnapshot(data []byte) (*Store, error) {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("playstore: unsupported snapshot version %d", v)
	}
	s := New(dates.Date(dec.Varint()))
	s.chartSize = int(dec.Varint())
	s.scoring = ChartScoring(dec.U8())

	if dec.Bool() {
		blob := dec.Blob()
		if dec.Err() == nil {
			e, err := DecodeEnforcer(blob)
			if err != nil {
				return nil, err
			}
			s.enforcer = e
		}
	}

	nDevs := dec.Uvarint()
	for i := uint64(0); i < nDevs && dec.Err() == nil; i++ {
		d := Developer{
			ID:      DeveloperID(dec.Str()),
			Name:    dec.Str(),
			Country: dec.Str(),
			Website: dec.Str(),
			Email:   dec.Str(),
			Public:  dec.Bool(),
		}
		cp := d
		s.devs[d.ID] = &cp
	}

	nApps := dec.Uvarint()
	for i := uint64(0); i < nApps && dec.Err() == nil; i++ {
		a, err := decodeApp(dec, s)
		if err != nil {
			return nil, err
		}
		if _, ok := s.devs[a.dev]; !ok {
			return nil, fmt.Errorf("playstore: snapshot app %s references %w: %s", a.pkg, ErrUnknownDeveloper, a.dev)
		}
		sh := s.shardFor(a.pkg)
		if _, ok := sh.apps[a.pkg]; ok {
			return nil, fmt.Errorf("playstore: snapshot %w: %s", ErrDuplicateApp, a.pkg)
		}
		sh.add(a)
		s.pkgs = append(s.pkgs, a.pkg)
	}

	nCharts := dec.Uvarint()
	for i := uint64(0); i < nCharts && dec.Err() == nil; i++ {
		name := dec.Str()
		nDays := dec.Uvarint()
		for j := uint64(0); j < nDays && dec.Err() == nil; j++ {
			day := dates.Date(dec.Varint())
			nEntries := dec.Uvarint()
			// Each entry costs at least 10 bytes, so a declared count
			// beyond the remaining input is corrupt — reject it before
			// allocating.
			if dec.Err() != nil || nEntries > uint64(dec.Remaining()) {
				return nil, fmt.Errorf("playstore: decoding snapshot charts: %w", binenc.ErrTooLong)
			}
			entries := make([]ChartEntry, 0, nEntries)
			for k := uint64(0); k < nEntries && dec.Err() == nil; k++ {
				entries = append(entries, ChartEntry{
					Rank:    int(dec.Varint()),
					Package: dec.Str(),
					Score:   dec.F64(),
				})
			}
			// Days arrive in ascending order, so the last day written
			// leaves s.charts holding the latest entries, exactly as a
			// sequence of live StepDay calls would.
			s.setChartLocked(name, day, entries)
		}
	}
	if err := dec.Done(); err != nil {
		return nil, fmt.Errorf("playstore: decoding snapshot: %w", err)
	}
	return s, nil
}

// decodeApp rebuilds one app row-by-row off the wire, allocating its
// column range in the owning shard's arena (the package name decodes
// first, so the shard is known before any day data is read) and its
// referral pair on its first nonzero referral or removed slot. The wire
// carries the rolling window sums; they must agree with the app's own
// columns, and the previous-window sums, which the wire does not carry,
// are rebuilt from them. Every DAU on the wire, per day and in the window,
// must equal its sessions.
func decodeApp(dec *binenc.Dec, s *Store) (*app, error) {
	pkg := dec.Str()
	a := &app{
		pkg:      pkg,
		ar:       &s.shardFor(pkg).cols,
		title:    dec.Str(),
		genre:    dec.Str(),
		dev:      DeveloperID(dec.Str()),
		released: dates.Date(dec.Varint()),
		installs: dec.Varint(),
		base:     dates.Date(dec.Varint()),
		winEnd:   dates.Date(dec.Varint()),
		win: winInts{
			installs:   dec.Varint(),
			referral:   dec.Varint(),
			sessions:   dec.Varint(),
			sessionSec: dec.Varint(),
		},
	}
	winDAU := dec.Varint()
	nDays := dec.Uvarint()
	if dec.Err() != nil {
		return nil, fmt.Errorf("playstore: decoding app: %w", dec.Err())
	}
	// Each day slot costs at least 22 bytes on the wire; reject counts the
	// input cannot possibly hold before allocating.
	if nDays > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("playstore: decoding app %s days: %w", a.pkg, binenc.ErrTooLong)
	}
	if nDays > 0 {
		ar := a.ar
		a.off = ar.alloc(int(nDays), 0)
		a.n = int(nDays)
		a.room = int(nDays)
		for j := a.off; j < a.off+a.n; j++ {
			ar.organic[j] = dec.Varint()
			if referral, removed := dec.Varint(), dec.Varint(); referral != 0 || removed != 0 {
				p := a.pairSlot(j)
				ar.referral[p], ar.removed[p] = referral, removed
			}
			ar.fraudSum[j] = dec.F64()
			ar.sessions[j] = dec.Varint()
			ar.sessionSec[j] = dec.Varint()
			ar.revenue[j] = dec.F64()
			if dau := dec.Varint(); dau != ar.sessions[j] && dec.Err() == nil {
				return nil, fmt.Errorf("playstore: snapshot app %s: day %s DAU %d differs from its sessions %d",
					a.pkg, a.base.AddDays(j-a.off), dau, ar.sessions[j])
			}
		}
	}
	if dec.Err() != nil {
		return nil, fmt.Errorf("playstore: decoding app %s: %w", a.pkg, dec.Err())
	}
	a.game = gameGenres[a.genre]
	if a.n > 0 && a.winEnd < a.base.AddDays(a.n-1) {
		return nil, fmt.Errorf("playstore: snapshot app %s: window anchor %d precedes its last day %d",
			a.pkg, a.winEnd, a.base.AddDays(a.n-1))
	}
	win := a.win
	a.rebuildWindows()
	if a.win != win {
		return nil, fmt.Errorf("playstore: snapshot app %s: window sums %+v disagree with its days %+v",
			a.pkg, win, a.win)
	}
	if winDAU != win.sessions {
		return nil, fmt.Errorf("playstore: snapshot app %s: window DAU %d differs from its sessions %d",
			a.pkg, winDAU, win.sessions)
	}
	return a, nil
}
