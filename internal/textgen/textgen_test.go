package textgen

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/randx"
)

func TestDeterminism(t *testing.T) {
	a := New(randx.New(5))
	b := New(randx.New(5))
	for i := 0; i < 50; i++ {
		na, nb := a.AppName(), b.AppName()
		if ta, tb := na.Title(), nb.Title(); ta != tb {
			t.Fatalf("titles diverged: %q vs %q", ta, tb)
		}
		if a.PackageName(na) != b.PackageName(nb) {
			t.Fatal("package names diverged")
		}
	}
}

func TestPackageNameUniqueAndValid(t *testing.T) {
	g := New(randx.New(1))
	valid := regexp.MustCompile(`^[a-z0-9.]+$`)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		pkg := g.PackageName(g.AppName())
		if seen[pkg] {
			t.Fatalf("duplicate package name: %s", pkg)
		}
		seen[pkg] = true
		if !valid.MatchString(pkg) {
			t.Fatalf("invalid package name: %q", pkg)
		}
		if strings.HasPrefix(pkg, ".") || strings.HasSuffix(pkg, ".") {
			t.Fatalf("package name has leading/trailing dot: %q", pkg)
		}
		if strings.Count(pkg, ".") < 2 {
			t.Fatalf("package name too shallow: %q", pkg)
		}
	}
}

func TestCompanyNameUnique(t *testing.T) {
	g := New(randx.New(2))
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		c := g.CompanyName()
		if seen[c] {
			t.Fatalf("duplicate company: %s", c)
		}
		seen[c] = true
	}
}

func TestHasMoneyKeyword(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"CashPirate", true},
		{"Make Money Easy", true},
		{"eu.gcashapp", true},
		{"Super Puzzle 3D", false},
		{"REWARD hub", true},
		{"photo editor", false},
	}
	for _, c := range cases {
		if got := HasMoneyKeyword(c.in); got != c.want {
			t.Errorf("HasMoneyKeyword(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCountryDistributionHeadHeavy(t *testing.T) {
	g := New(randx.New(4))
	counts := map[string]int{}
	const trials = 5000
	for i := 0; i < trials; i++ {
		counts[g.Country()]++
	}
	if counts["USA"] < counts[Countries[len(Countries)-1]] {
		t.Error("country distribution should be head-heavy (USA first)")
	}
	if len(counts) < 20 {
		t.Errorf("expected broad country coverage, got %d", len(counts))
	}
}

func TestDeviceBuildEmulatorMarkers(t *testing.T) {
	g := New(randx.New(6))
	for i := 0; i < 50; i++ {
		b := g.DeviceBuild(true)
		if !strings.Contains(b, "generic") && !strings.Contains(b, "genymotion") {
			t.Fatalf("emulator build lacks marker: %q", b)
		}
		if nb := g.DeviceBuild(false); strings.Contains(nb, "generic") || strings.Contains(nb, "genymotion") {
			t.Fatalf("real-device build carries emulator marker: %q", nb)
		}
	}
}

func TestWebsiteAndEmail(t *testing.T) {
	g := New(randx.New(7))
	c := g.CompanyName()
	w := g.Website(c)
	if !strings.HasPrefix(w, "https://") || strings.Contains(w, " ") {
		t.Errorf("bad website: %q", w)
	}
	e := g.Email(c)
	if !strings.Contains(e, "@") || strings.Contains(e, " ") {
		t.Errorf("bad email: %q", e)
	}
}

func TestGenreInList(t *testing.T) {
	g := New(randx.New(8))
	set := map[string]bool{}
	for _, genre := range Genres {
		set[genre] = true
	}
	for i := 0; i < 200; i++ {
		if !set[g.Genre()] {
			t.Fatal("Genre returned value outside Genres")
		}
	}
}

func TestMilkerCountriesMatchPaper(t *testing.T) {
	if len(MilkerCountries) != 8 {
		t.Fatalf("paper uses 8 VPN exit countries, got %d", len(MilkerCountries))
	}
}

func TestSSIDShape(t *testing.T) {
	g := New(randx.New(9))
	re := regexp.MustCompile(`^[A-Za-z-]+-\d{4}$`)
	for i := 0; i < 20; i++ {
		if s := g.SSID(); !re.MatchString(s) {
			t.Errorf("unexpected SSID shape: %q", s)
		}
	}
}

// refPackageBase is the reference title-to-package transform: a title's
// words joined by dots, lowered, and stripped to [a-z0-9.]. It is the
// oracle for PackageName's word-table rendering.
func refPackageBase(title string) string {
	base := strings.ToLower(strings.Join(strings.Fields(title), "."))
	var b strings.Builder
	for _, c := range base {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.':
			b.WriteRune(c)
		}
	}
	out := strings.Trim(b.String(), ".")
	if out == "" {
		out = "app"
	}
	return out
}

// refAppTitle is the reference title draw: adjective, noun, suffix.
func refAppTitle(g *Gen) string {
	adj := randx.Choice(g.r, nameAdjectives)
	noun := randx.Choice(g.r, nameNouns)
	suf := randx.Choice(g.r, nameSuffixes)
	return adj + " " + noun + suf
}

// refPackageName is the reference title-based package naming, draws
// included; numbered reports whether the collision fallback fired.
func refPackageName(g *Gen, title string) (pkg string, numbered bool) {
	base := refPackageBase(title)
	tld := randx.Choice(g.r, tlds)
	stem := strings.ToLower(randx.Choice(g.r, companyStems))
	pkg = fmt.Sprintf("%s.%s.%s", tld, stem, base)
	for g.usedPkg[pkg] {
		pkg = fmt.Sprintf("%s.%s.%s%d", tld, stem, base, g.r.IntN(10000))
		numbered = true
	}
	g.usedPkg[pkg] = true
	return pkg, numbered
}

func TestPackageRenderingMatchesTitleTransform(t *testing.T) {
	g := New(randx.New(10))
	for adj := range nameAdjectives {
		for noun := range nameNouns {
			for suf := range nameSuffixes {
				n := AppName{uint8(adj), uint8(noun), uint8(suf)}
				clear(g.usedPkg) // no numbered fallback: render the name alone
				got := strings.SplitN(g.PackageName(n), ".", 3)[2]
				if want := refPackageBase(n.Title()); got != want {
					t.Fatalf("%+v: rendered %q, title transform gives %q", n, got, want)
				}
			}
		}
	}
}

func TestPackageNameMatchesTitleBasedSequence(t *testing.T) {
	const names = 200_000
	ref, cur := New(randx.New(11)), New(randx.New(11))
	numbered := 0
	for i := 0; i < names; i++ {
		title := refAppTitle(ref)
		want, renamed := refPackageName(ref, title)
		if renamed {
			numbered++
		}
		n := cur.AppName()
		if got := n.Title(); got != title {
			t.Fatalf("name %d: title %q, want %q", i, got, title)
		}
		if got := cur.PackageName(n); got != want {
			t.Fatalf("name %d: package %q, want %q", i, got, want)
		}
	}
	if numbered == 0 {
		t.Fatal("the numbered-collision branch never fired; the sequence does not cover it")
	}
	if a, b := ref.r.Uint64(), cur.r.Uint64(); a != b {
		t.Fatal("streams diverged after the last name")
	}
}
