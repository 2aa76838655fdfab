package randx

import (
	"bytes"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same sequence")
		}
	}
	if New(1).Uint64() == New(2).Uint64() {
		t.Error("different seeds should diverge (first draw)")
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(42, "users")
	a2 := Derive(42, "users")
	b := Derive(42, "campaigns")
	same, diff := 0, 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == a2.Uint64() {
			same++
		}
		if Derive(42, "users").Uint64() == b.Uint64() {
			diff++
		}
	}
	if same != 64 {
		t.Errorf("same-label streams matched only %d/64 draws", same)
	}
	if diff > 2 {
		t.Errorf("different-label streams collided %d/64 times", diff)
	}
}

func TestBool(t *testing.T) {
	r := New(7)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %g", frac)
	}
}

func TestWeightedIndex(t *testing.T) {
	r := New(9)
	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[r.WeightedIndex(weights)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency = %g, want ~%g", i, got, want)
		}
	}
}

func TestWeightedIndexEdgeCases(t *testing.T) {
	r := New(1)
	if got := r.WeightedIndex([]float64{0, 0, 0}); got != 0 {
		t.Errorf("all-zero weights: got %d, want 0", got)
	}
	if got := r.WeightedIndex([]float64{-1, 0, 5}); got != 2 {
		t.Errorf("negative weights ignored: got %d, want 2", got)
	}
	if got := r.WeightedIndex([]float64{3}); got != 0 {
		t.Errorf("single weight: got %d", got)
	}
}

func TestSample(t *testing.T) {
	r := New(3)
	items := []int{1, 2, 3, 4, 5}
	s := Sample(r, items, 3)
	if len(s) != 3 {
		t.Fatalf("len = %d, want 3", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Error("sample repeated an element")
		}
		seen[v] = true
	}
	all := Sample(r, items, 10)
	if len(all) != 5 {
		t.Errorf("oversized k should return all items, got %d", len(all))
	}
}

func TestIntBetween(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
	}
	if r.IntBetween(4, 4) != 4 {
		t.Error("degenerate range")
	}
	if r.IntBetween(9, 3) != 9 {
		t.Error("inverted range should return lo")
	}
}

func TestLogUniform(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		v := r.LogUniform(10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("LogUniform out of range: %g", v)
		}
	}
	if r.LogUniform(0, 5) != 0 {
		t.Error("invalid lo should return lo")
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(19)
	for _, lambda := range []float64{0.5, 3, 50} {
		sum := 0
		const trials = 20000
		for i := 0; i < trials; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive lambda should give 0")
	}
}

func TestGeometric(t *testing.T) {
	r := New(23)
	if r.Geometric(1) != 0 {
		t.Error("p=1 should give 0 failures")
	}
	sum := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		sum += r.Geometric(0.25)
	}
	mean := float64(sum) / trials
	want := (1 - 0.25) / 0.25 // 3
	if math.Abs(mean-want) > 0.2 {
		t.Errorf("Geometric(0.25) mean = %g, want ~%g", mean, want)
	}
}

func TestChoice(t *testing.T) {
	r := New(29)
	items := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Choice(r, items)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choice never produced some items: %v", seen)
	}
}

func TestMarshalStateResumesSequence(t *testing.T) {
	r := Derive(99, "state-test")
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	state, err := r.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 8)
	for i := range want {
		want[i] = r.Uint64()
	}
	// A fresh stream fast-forwarded via UnmarshalState must continue with
	// exactly the same draws.
	r2 := Derive(99, "state-test")
	if err := r2.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, w)
		}
	}
	var bare Rand
	if _, err := bare.MarshalState(); err == nil {
		t.Error("MarshalState on a source-less Rand must fail")
	}
}

// FuzzRandUnmarshalState feeds UnmarshalState mangled stream states. A
// rejected state must leave the stream where it was; an accepted one must
// re-encode to bytes that restore another stream to the same encoding
// and the same draws.
func FuzzRandUnmarshalState(f *testing.F) {
	r := Derive(7, "fuzz")
	for i := 0; i < 5; i++ {
		r.Uint64()
	}
	state, err := r.MarshalState()
	if err != nil {
		f.Fatal(err)
	}
	if fresh := New(3); fresh.UnmarshalState(state) != nil || fresh.Uint64() != r.Uint64() {
		f.Fatal("a real state does not resume its stream")
	}
	f.Add(state)
	f.Add([]byte("pcg:"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(1)
		before, _ := r.MarshalState()
		if err := r.UnmarshalState(data); err != nil {
			if after, _ := r.MarshalState(); !bytes.Equal(after, before) {
				t.Fatalf("rejected state %x moved the stream", data)
			}
			return
		}
		enc, err := r.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		again := New(2)
		if err := again.UnmarshalState(enc); err != nil {
			t.Fatalf("re-encoded state does not restore: %v", err)
		}
		if got, _ := again.MarshalState(); !bytes.Equal(got, enc) {
			t.Fatalf("re-encoding %x is not a fixed point: %x", enc, got)
		}
		if a, b := r.Uint64(), again.Uint64(); a != b {
			t.Fatalf("restored streams diverge: %d vs %d", a, b)
		}
	})
}
