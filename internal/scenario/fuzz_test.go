package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dates"
	"repro/internal/randx"
)

// FuzzSpecJSONRoundTrip asserts the canonical-encoding property sweeps
// and config files rely on: for any JSON a Spec accepts, encode→decode→
// encode is byte-identical — the first marshal is already the canonical
// form, so specs never drift through tooling round trips.
func FuzzSpecJSONRoundTrip(f *testing.F) {
	for _, s := range Builtins() {
		raw, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name":"x","world":{"base":"scale","seed":9},"adversary":{"kind":"jitter","jitter_max_days":3},"detector":{"day_bucket":1}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return // not a spec; nothing to round-trip
		}
		first, err := s.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s2, err := Decode(first)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, first)
		}
		second, err := s2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode→decode→encode not byte-identical:\n first: %s\nsecond: %s", first, second)
		}
		// The struct must also survive structurally, not just textually.
		if s != s2 {
			t.Fatalf("spec changed through round trip: %+v vs %+v", s, s2)
		}
	})
}

// TestBuiltinSpecsCanonical pins every built-in to the round-trip
// property directly (the fuzz seeds, run as a plain test).
func TestBuiltinSpecsCanonical(t *testing.T) {
	for _, s := range Builtins() {
		raw, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var s2 Spec
		if err := json.Unmarshal(raw, &s2); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s != s2 {
			t.Fatalf("%s: not JSON round-trippable: %+v vs %+v", s.Name, s, s2)
		}
	}
}

// stateSpecs are the adversaries FuzzStrategyUnmarshalState restores
// state into: the stateful ones (jitter's pending-delivery ring at two
// ring sizes, burst's latent demand, mimic's retained cohort) and a
// stateless one, which accepts only an empty state.
var stateSpecs = []AdversarySpec{
	{Kind: KindJitter},
	{Kind: KindJitter, JitterMaxDays: 1},
	{Kind: KindBurst},
	{Kind: KindOrganicMimic},
	{Kind: KindBaseline},
}

// FuzzStrategyUnmarshalState feeds the strategies' UnmarshalState
// mangled checkpoint states. It must never panic, and a state it accepts
// must re-marshal to bytes that restore a fresh strategy of the same
// spec to the same encoding.
func FuzzStrategyUnmarshalState(f *testing.F) {
	newStrategy := func(tb testing.TB, spec AdversarySpec) Strategy {
		s, err := NewStrategy(spec, 1, "fuzz-unit")
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	for k, spec := range stateSpecs {
		s := newStrategy(f, spec)
		r := randx.Derive(3, "fuzz-state")
		for day := dates.Date(0); day < 12; day++ {
			if n := s.Quota(r, day, 4, testPace); n > 0 {
				s.Retention(r, day, n)
			}
		}
		state := s.MarshalState()
		if spec.Kind != KindBaseline && len(state) == 0 {
			f.Fatalf("%s: no state after 12 days", spec.Kind)
		}
		if again := newStrategy(f, spec); again.UnmarshalState(state) != nil || !bytes.Equal(again.MarshalState(), state) {
			f.Fatalf("%s: a real state does not restore", spec.Kind)
		}
		f.Add(uint8(k), state)
	}
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		spec := stateSpecs[int(k)%len(stateSpecs)]
		s := newStrategy(t, spec)
		if err := s.UnmarshalState(data); err != nil {
			return
		}
		enc := s.MarshalState()
		again := newStrategy(t, spec)
		if err := again.UnmarshalState(enc); err != nil {
			t.Fatalf("%s: re-marshalled state %x does not restore: %v", spec.Kind, enc, err)
		}
		if got := again.MarshalState(); !bytes.Equal(got, enc) {
			t.Fatalf("%s: re-marshalling %x is not a fixed point: %x", spec.Kind, enc, got)
		}
	})
}
