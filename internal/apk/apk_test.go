package apk

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestBuildAndDetectExact(t *testing.T) {
	r := randx.New(1)
	libs := []string{"Google AdMob", "AppLovin", "OkHttp"}
	a, err := Build(r, "com.example.game", libs, 0)
	if err != nil {
		t.Fatal(err)
	}
	detected := DetectLibraries(a)
	names := map[string]bool{}
	for _, l := range detected {
		names[l.Name] = true
	}
	for _, want := range libs {
		if !names[want] {
			t.Errorf("library %s not detected", want)
		}
	}
	if CountAdLibraries(a) != 2 {
		t.Errorf("ad libraries = %d, want 2 (AdMob + AppLovin)", CountAdLibraries(a))
	}
}

func TestBuildUnknownLibrary(t *testing.T) {
	if _, err := Build(randx.New(1), "p", []string{"NoSuchLib"}, 0); err == nil {
		t.Error("unknown library should error")
	}
}

func TestObfuscationHidesLibraries(t *testing.T) {
	r := randx.New(2)
	libs := []string{"Google AdMob", "AppLovin", "ChartBoost", "Vungle", "Tapjoy"}
	// Fully obfuscated: nothing detectable.
	a, err := Build(r, "com.example.app", libs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountAdLibraries(a); n != 0 {
		t.Errorf("fully obfuscated APK leaked %d libraries", n)
	}
	// Partially obfuscated: detection undercounts on average.
	total := 0
	for i := 0; i < 50; i++ {
		a, _ := Build(r, "com.example.app", libs, 0.5)
		total += CountAdLibraries(a)
	}
	avg := float64(total) / 50
	if avg < 1 || avg > 4 {
		t.Errorf("50%% obfuscation average detection = %g, want ~2.5", avg)
	}
}

func TestAdLibraryNames(t *testing.T) {
	names := AdLibraryNames()
	if len(names) < 15 {
		t.Errorf("ad catalog too small: %d", len(names))
	}
	for _, n := range names {
		lib, ok := LibraryByName(n)
		if !ok || !lib.Ad {
			t.Errorf("inconsistent catalog entry %q", n)
		}
	}
	// Mediator SDKs are not ad libraries.
	if lib, ok := LibraryByName("AppsFlyer"); !ok || lib.Ad {
		t.Error("AppsFlyer must be present and non-ad")
	}
}

func TestDetectNoFalsePositiveOnPrefixCollision(t *testing.T) {
	// A class under "com/applovinish/..." must not match AppLovin.
	a := APK{Package: "x", Classes: []string{"com/applovinish/Core"}}
	for _, l := range DetectLibraries(a) {
		if l.Name == "AppLovin" {
			t.Error("prefix match must be path-segment aware")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := randx.New(3)
	a, err := Build(r, "com.round.trip", []string{"Gson", "Fyber"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := Encode(a)
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Package != a.Package || len(got.Classes) != len(a.Classes) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
	for i := range a.Classes {
		if got.Classes[i] != a.Classes[i] {
			t.Fatalf("class %d mismatch", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SAPK"),                   // truncated version
		[]byte("SAPK\x00\x63"),           // wrong version
		[]byte("SAPK\x00\x01\x00\x05ab"), // truncated package
	}
	for i, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: want ErrBadFormat, got %v", i, err)
		}
	}
}

// TestDecodeBoundsClaimedClassCount feeds Decode a 13-byte input that
// claims 1<<20 classes: it must fail without sizing a table for the
// claim (16 MiB of string headers).
func TestDecodeBoundsClaimedClassCount(t *testing.T) {
	b := []byte("SAPK\x00\x01\x00\x01x\x00\x10\x00\x00")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(b)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("decoding a %d-byte input allocated %d bytes", len(b), got)
	}
}

func TestDecodeTruncatedClassTable(t *testing.T) {
	a := APK{Package: "p", Classes: []string{"a/b/C"}}
	b := Encode(a)
	if _, err := Decode(b[:len(b)-2]); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated blob should fail: %v", err)
	}
}

// Property: Decode(Encode(x)) == x for arbitrary printable content.
func TestRoundTripProperty(t *testing.T) {
	f := func(pkg string, classes []string) bool {
		if len(pkg) > 60000 {
			pkg = pkg[:60000]
		}
		for i, c := range classes {
			if len(c) > 60000 {
				classes[i] = c[:60000]
			}
		}
		a := APK{Package: pkg, Classes: classes}
		got, err := Decode(Encode(a))
		if err != nil {
			return false
		}
		if got.Package != a.Package || len(got.Classes) != len(a.Classes) {
			return false
		}
		for i := range a.Classes {
			if got.Classes[i] != a.Classes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBuildIncludesAppClasses(t *testing.T) {
	a, err := Build(randx.New(4), "com.my.app", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range a.Classes {
		if strings.HasPrefix(c, "com/my/app/") {
			found = true
		}
	}
	if !found {
		t.Error("APK must contain the app's own classes")
	}
	if CountAdLibraries(a) != 0 {
		t.Error("library-free app should detect zero ad libraries")
	}
}

// FuzzAPKDecode feeds Decode arbitrary bytes: the crawler decodes APK
// bodies fetched from the store API. It must never panic, and whatever it
// accepts must re-encode to a fixed point of Decode and Encode. The seed
// is a real built APK, which must round-trip byte for byte.
func FuzzAPKDecode(f *testing.F) {
	a, err := Build(randx.New(3), "com.fuzz.seed", []string{"Gson", "Fyber", "Google AdMob"}, 0)
	if err != nil {
		f.Fatal(err)
	}
	seed := Encode(a)
	got, err := Decode(seed)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(Encode(got), seed) {
		f.Fatal("a built APK does not round-trip")
	}
	f.Add(seed)
	f.Add(Encode(APK{Package: "p"}))
	f.Add([]byte("SAPK\x00\x01\x00\x01x\x00\x10\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(a)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded APK does not decode: %v", err)
		}
		if !bytes.Equal(Encode(again), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
