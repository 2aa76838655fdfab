// Package apk is the static-analysis substrate standing in for LibRadar in
// the paper's Figure 6 experiment: it defines a compact binary APK
// container holding an app's class-path table, builders that embed
// third-party library class trees (optionally obfuscated), and a
// signature-based detector that recovers the embedded libraries and counts
// advertising SDKs.
package apk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/randx"
)

// APK is a parsed synthetic Android package.
type APK struct {
	Package string
	// Classes is the flattened class-path table ("com/google/ads/Ad").
	Classes []string
}

// Library is a third-party SDK with its characteristic class-path prefix.
type Library struct {
	Name   string
	Prefix string // e.g. "com/google/android/gms/ads"
	Ad     bool   // advertising SDK?
}

// Catalog is the signature database the detector matches against; it plays
// the role of LibRadar's pre-built library profiles. It includes the ad
// vendors the paper names (Google AdMob, AppLovin, ChartBoost) and IIP
// SDKs that double as advertisers (Fyber).
var Catalog = []Library{
	{Name: "Google AdMob", Prefix: "com/google/android/gms/ads", Ad: true},
	{Name: "AppLovin", Prefix: "com/applovin", Ad: true},
	{Name: "ChartBoost", Prefix: "com/chartboost/sdk", Ad: true},
	{Name: "Fyber", Prefix: "com/fyber/offerwall", Ad: true},
	{Name: "UnityAds", Prefix: "com/unity3d/ads", Ad: true},
	{Name: "Vungle", Prefix: "com/vungle/warren", Ad: true},
	{Name: "IronSource", Prefix: "com/ironsource/mediationsdk", Ad: true},
	{Name: "Tapjoy", Prefix: "com/tapjoy", Ad: true},
	{Name: "AdColony", Prefix: "com/adcolony/sdk", Ad: true},
	{Name: "StartApp", Prefix: "com/startapp/android", Ad: true},
	{Name: "InMobi", Prefix: "com/inmobi/ads", Ad: true},
	{Name: "Mintegral", Prefix: "com/mintegral/msdk", Ad: true},
	{Name: "Facebook Audience", Prefix: "com/facebook/ads", Ad: true},
	{Name: "MoPub", Prefix: "com/mopub/mobileads", Ad: true},
	{Name: "OfferToro SDK", Prefix: "com/offertoro/sdk", Ad: true},
	{Name: "ayeT SDK", Prefix: "com/ayetstudios/publishersdk", Ad: true},
	{Name: "AdscendMedia SDK", Prefix: "com/adscendmedia/sdk", Ad: true},
	{Name: "AdGem SDK", Prefix: "com/adgem/android", Ad: true},
	{Name: "Huawei Ads", Prefix: "com/huawei/hms/ads", Ad: true},
	{Name: "Yandex Ads", Prefix: "com/yandex/mobile/ads", Ad: true},

	{Name: "OkHttp", Prefix: "okhttp3", Ad: false},
	{Name: "Retrofit", Prefix: "retrofit2", Ad: false},
	{Name: "Gson", Prefix: "com/google/gson", Ad: false},
	{Name: "Glide", Prefix: "com/bumptech/glide", Ad: false},
	{Name: "Firebase", Prefix: "com/google/firebase", Ad: false},
	{Name: "AppsFlyer", Prefix: "com/appsflyer", Ad: false},
	{Name: "Kochava", Prefix: "com/kochava/base", Ad: false},
	{Name: "Adjust", Prefix: "com/adjust/sdk", Ad: false},
	{Name: "RootBeer", Prefix: "com/scottyab/rootbeer", Ad: false},
	{Name: "EventBus", Prefix: "org/greenrobot/eventbus", Ad: false},
}

// LibraryByName looks up a catalog entry.
func LibraryByName(name string) (Library, bool) {
	for _, l := range Catalog {
		if l.Name == name {
			return l, true
		}
	}
	return Library{}, false
}

// AdLibraryNames returns the names of all advertising SDKs in the catalog.
func AdLibraryNames() []string {
	var out []string
	for _, l := range Catalog {
		if l.Ad {
			out = append(out, l.Name)
		}
	}
	return out
}

// classStems generate plausible member classes under a library prefix.
var classStems = []string{
	"Core", "Manager", "Config", "Network", "Cache", "View", "Banner",
	"Interstitial", "Loader", "Tracker", "Session", "Util", "Api",
}

// Build assembles an APK embedding the named catalog libraries plus the
// app's own classes. obfuscation in [0,1] is the probability that a
// library's class tree is renamed by a code obfuscator, which hides it
// from signature matching — the mechanism behind the paper's caveat that
// "static analysis may miss some advertising libraries due to code
// obfuscation".
func Build(r *randx.Rand, pkg string, libNames []string, obfuscation float64) (APK, error) {
	a := APK{Package: pkg}
	appPrefix := strings.ReplaceAll(pkg, ".", "/")
	for i := 0; i < 6; i++ {
		a.Classes = append(a.Classes, fmt.Sprintf("%s/%s", appPrefix, classStems[i%len(classStems)]))
	}
	for _, name := range libNames {
		lib, ok := LibraryByName(name)
		if !ok {
			return APK{}, fmt.Errorf("apk: unknown library %q", name)
		}
		prefix := lib.Prefix
		if r.Bool(obfuscation) {
			// An obfuscator renames the tree to opaque single letters.
			prefix = fmt.Sprintf("%c/%c/%c", 'a'+r.IntN(26), 'a'+r.IntN(26), 'a'+r.IntN(26))
		}
		n := r.IntBetween(3, 8)
		for i := 0; i < n; i++ {
			a.Classes = append(a.Classes, fmt.Sprintf("%s/%s", prefix, classStems[r.IntN(len(classStems))]))
		}
	}
	sort.Strings(a.Classes)
	return a, nil
}

// DetectLibraries returns the catalog libraries whose class-path signature
// appears in the APK, sorted by name.
func DetectLibraries(a APK) []Library {
	var found []Library
	for _, lib := range Catalog {
		prefix := lib.Prefix + "/"
		for _, c := range a.Classes {
			if strings.HasPrefix(c, prefix) {
				found = append(found, lib)
				break
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Name < found[j].Name })
	return found
}

// CountAdLibraries returns the number of unique advertising SDKs detected
// in the APK — the quantity on Figure 6's x-axis.
func CountAdLibraries(a APK) int {
	n := 0
	for _, lib := range DetectLibraries(a) {
		if lib.Ad {
			n++
		}
	}
	return n
}

// Binary container format:
//
//	magic "SAPK" | u16 version | u16 pkgLen | pkg |
//	u32 classCount | { u16 len | class }*
var (
	magic = []byte("SAPK")
	// ErrBadFormat is returned for malformed APK blobs.
	ErrBadFormat = errors.New("apk: malformed container")
)

const formatVersion = 1

// Encode serializes the APK to its binary container.
func Encode(a APK) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	binary.Write(&buf, binary.BigEndian, uint16(formatVersion))
	binary.Write(&buf, binary.BigEndian, uint16(len(a.Package)))
	buf.WriteString(a.Package)
	binary.Write(&buf, binary.BigEndian, uint32(len(a.Classes)))
	for _, c := range a.Classes {
		binary.Write(&buf, binary.BigEndian, uint16(len(c)))
		buf.WriteString(c)
	}
	return buf.Bytes()
}

// Decode parses a binary APK container.
func Decode(b []byte) (APK, error) {
	r := bytes.NewReader(b)
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, magic) {
		return APK{}, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	var version uint16
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return APK{}, fmt.Errorf("%w: truncated version", ErrBadFormat)
	}
	if version != formatVersion {
		return APK{}, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	pkg, err := readString16(r)
	if err != nil {
		return APK{}, err
	}
	var count uint32
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return APK{}, fmt.Errorf("%w: truncated class count", ErrBadFormat)
	}
	if count > 1<<20 {
		return APK{}, fmt.Errorf("%w: implausible class count %d", ErrBadFormat, count)
	}
	// Each class takes at least its 2-byte length, so the bytes left
	// bound how many a well-formed input holds: size the table by that,
	// not by the count the input claims.
	a := APK{Package: pkg, Classes: make([]string, 0, min(count, uint32(r.Len()/2)))}
	for i := uint32(0); i < count; i++ {
		c, err := readString16(r)
		if err != nil {
			return APK{}, err
		}
		a.Classes = append(a.Classes, c)
	}
	return a, nil
}

func readString16(r *bytes.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", fmt.Errorf("%w: truncated string length", ErrBadFormat)
	}
	if int(n) > r.Len() {
		return "", fmt.Errorf("%w: truncated string", ErrBadFormat)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrBadFormat)
	}
	return string(b), nil
}
