// Package textgen deterministically generates the naming surface of the
// synthetic ecosystem: app titles, Android package names, developer/company
// names, mailing-address countries, genres, and network identifiers (WiFi
// SSIDs, device build fingerprints). The generators are plain template
// grammars over word lists, so identical RNG streams give identical worlds.
package textgen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/randx"
)

// Genres mirrors the breadth of Google Play categories seen in the paper's
// Table 4 (up to 51 distinct genres on ayeT-Studios).
var Genres = []string{
	"Action", "Adventure", "Arcade", "Art & Design", "Auto & Vehicles",
	"Beauty", "Board", "Books & Reference", "Business", "Card",
	"Casino", "Casual", "Comics", "Communication", "Dating",
	"Education", "Educational", "Entertainment", "Events", "Finance",
	"Food & Drink", "Health & Fitness", "House & Home", "Libraries & Demo",
	"Lifestyle", "Maps & Navigation", "Medical", "Music", "Music & Audio",
	"News & Magazines", "Parenting", "Personalization", "Photography",
	"Productivity", "Puzzle", "Racing", "Role Playing", "Shopping",
	"Simulation", "Social", "Sports", "Strategy", "Tools",
	"Travel & Local", "Trivia", "Video Players & Editors", "Weather",
	"Word", "Wellness", "Kids", "Utilities",
}

// Countries is the developer-country universe (the paper reports apps from
// up to 44 countries on a single IIP).
var Countries = []string{
	"USA", "UK", "Spain", "Israel", "Canada", "Germany", "India", "Russia",
	"France", "Brazil", "China", "Japan", "South Korea", "Turkey",
	"Indonesia", "Vietnam", "Philippines", "Mexico", "Argentina",
	"Netherlands", "Sweden", "Poland", "Ukraine", "Italy", "Portugal",
	"Egypt", "Nigeria", "South Africa", "Australia", "New Zealand",
	"Singapore", "Malaysia", "Thailand", "Pakistan", "Bangladesh",
	"Saudi Arabia", "UAE", "Ireland", "Belgium", "Switzerland",
	"Austria", "Denmark", "Norway", "Finland", "Czechia", "Romania",
	"Hungary", "Greece", "Chile", "Colombia",
}

// MilkerCountries are the eight VPN exit countries the paper's monitoring
// infrastructure uses.
var MilkerCountries = []string{
	"USA", "UK", "Spain", "Israel", "Canada", "Germany", "India", "Russia",
}

var nameAdjectives = []string{
	"Super", "Mega", "Happy", "Epic", "Tiny", "Golden", "Magic", "Swift",
	"Lucky", "Brave", "Cosmic", "Pixel", "Turbo", "Royal", "Crystal",
	"Shadow", "Neon", "Solar", "Mighty", "Clever", "Daily", "Smart",
	"Instant", "Secure", "Prime", "Ultra", "Fresh", "Wild", "Frozen",
	"Hidden",
}

var nameNouns = []string{
	"Quest", "Saga", "Runner", "Farm", "Kitchen", "Garden", "Empire",
	"Legends", "Puzzle", "Words", "Racing", "Soccer", "Poker", "Slots",
	"Diary", "Notes", "Scanner", "Wallet", "Camera", "Editor", "Fitness",
	"Recipes", "Weather", "Radio", "Music", "Chat", "Browser", "Keyboard",
	"Launcher", "Cleaner", "Translator", "Planner", "Market", "Deals",
	"Stories", "Trivia", "Blocks", "Bubbles", "Castle", "Dragons",
}

var nameSuffixes = []string{
	"", "", "", " Pro", " 2", " 3D", " Plus", " Deluxe", " HD", " Go",
	" Lite", " Premium", " Master", " Mania", " World", " Land",
}

// moneyWords are the keywords the paper observed in affiliate-app names
// ("money", "reward", "cash"), for the keyword analysis in Section 3.
var moneyWords = []string{"money", "reward", "cash", "earn", "gift", "pay"}

var companyStems = []string{
	"Nova", "Apex", "Blue", "Bright", "Clear", "Core", "Delta", "Echo",
	"Flux", "Giga", "Halo", "Iris", "Jade", "Kite", "Luna", "Mono",
	"North", "Orbit", "Pulse", "Quartz", "Rapid", "Stellar", "Terra",
	"Umbra", "Vertex", "Wave", "Xeno", "Yonder", "Zephyr", "Forge",
}

var companySuffixes = []string{
	"Labs", "Studios", "Games", "Soft", "Works", "Interactive", "Media",
	"Apps", "Mobile", "Digital", "Tech", "Entertainment",
}

var tlds = []string{"com", "io", "app", "net", "co", "dev", "games"}

// Gen is a deterministic name generator with collision-free package and
// developer identifiers.
type Gen struct {
	r           *randx.Rand
	usedPkg     map[string]bool
	usedCompany map[string]bool
	companySeq  int
}

// New returns a generator bound to the given RNG.
func New(r *randx.Rand) *Gen {
	return &Gen{r: r, usedPkg: map[string]bool{}, usedCompany: map[string]bool{}}
}

// AppName is a drawn app name: indexes into the adjective, noun and
// suffix tables. Title and PackageName render it; no title is parsed.
type AppName struct{ adj, noun, suf uint8 }

// AppName draws an adjective, a noun and a suffix, in that order.
func (g *Gen) AppName() AppName {
	adj, noun := g.r.IntN(len(nameAdjectives)), g.r.IntN(len(nameNouns))
	return AppName{uint8(adj), uint8(noun), uint8(g.r.IntN(len(nameSuffixes)))}
}

// Title renders the name as a plausible store listing title.
func (n AppName) Title() string {
	return nameAdjectives[n.adj] + " " + nameNouns[n.noun] + nameSuffixes[n.suf]
}

// The word tables' package forms, lowered once. A suffix's leading space
// becomes its dot, so "Super Quest 3D" renders as "super.quest.3d".
var pkgStems, pkgAdjectives = lowered(companyStems), lowered(nameAdjectives)
var pkgNouns, pkgSuffixes = lowered(nameNouns), lowered(nameSuffixes)

func lowered(words []string) (out []string) {
	for _, w := range words {
		out = append(out, strings.ToLower(strings.ReplaceAll(w, " ", ".")))
	}
	return out
}

// PackageName renders n as a unique Android package name,
// tld.stem.adj.noun[.suffix]; a taken one gets a drawn number appended.
func (g *Gen) PackageName(n AppName) string {
	var buf [64]byte
	b := append(buf[:0], randx.Choice(g.r, tlds)...)
	b = append(append(b, '.'), randx.Choice(g.r, pkgStems)...)
	b = append(append(b, '.'), pkgAdjectives[n.adj]...)
	b = append(append(b, '.'), pkgNouns[n.noun]...)
	b = append(b, pkgSuffixes[n.suf]...)
	for base := len(b); g.usedPkg[string(b)]; {
		b = strconv.AppendInt(b[:base], int64(g.r.IntN(10000)), 10)
	}
	pkg := string(b)
	g.usedPkg[pkg] = true
	return pkg
}

// CompanyName generates a unique developer/company name. The grammar's
// name space is ~10.8k two-stem combinations; once a large world
// approaches that, rejection sampling stalls (and past it, livelocks),
// so after a bounded number of collisions the name gets a sequence
// number instead. Stems and suffixes contain no digits, so numbered
// names can never collide with drawn ones — and at small-world load
// factors the fallback fires with vanishing probability, keeping the
// RNG draw sequence (and thus existing worlds) unchanged.
func (g *Gen) CompanyName() string {
	name := randx.Choice(g.r, companyStems) + " " + randx.Choice(g.r, companySuffixes)
	for tries := 0; g.usedCompany[name]; tries++ {
		if tries >= 20 {
			g.companySeq++
			name = fmt.Sprintf("%s %d", name, g.companySeq)
			break
		}
		name = randx.Choice(g.r, companyStems) + randx.Choice(g.r, companyStems) + " " + randx.Choice(g.r, companySuffixes)
	}
	g.usedCompany[name] = true
	return name
}

// Website derives a company website URL from its name.
func (g *Gen) Website(company string) string {
	host := strings.ToLower(strings.Join(strings.Fields(company), ""))
	return "https://" + host + "." + randx.Choice(g.r, tlds)
}

// Email derives a contact address from a company name.
func (g *Gen) Email(company string) string {
	host := strings.ToLower(strings.Join(strings.Fields(company), ""))
	return "contact@" + host + ".com"
}

// Country draws a developer country, biased toward the head of the list so
// a few countries dominate as in real marketplaces.
func (g *Gen) Country() string {
	// Zipf-ish: index drawn geometrically over the country list.
	i := g.r.Geometric(0.08)
	if i >= len(Countries) {
		i = g.r.IntN(len(Countries))
	}
	return Countries[i]
}

// Genre draws a store genre uniformly.
func (g *Gen) Genre() string {
	return randx.Choice(g.r, Genres)
}

// SSID generates a home-router-looking WiFi network name.
func (g *Gen) SSID() string {
	vendors := []string{"NETGEAR", "Linksys", "TP-Link", "dlink", "ASUS", "xfinity", "MyWifi"}
	return fmt.Sprintf("%s-%04d", randx.Choice(g.r, vendors), g.r.IntN(10000))
}

// DeviceBuild generates an Android build fingerprint; emulator builds carry
// the telltale strings the honey app scans for ("generic", "genymotion").
func (g *Gen) DeviceBuild(emulator bool) string {
	if emulator {
		kind := randx.Choice(g.r, []string{"generic", "genymotion", "generic_x86"})
		return fmt.Sprintf("%s/sdk_gphone/8.1.0/%07d", kind, g.r.IntN(1e7))
	}
	brands := []string{"samsung", "xiaomi", "huawei", "oppo", "vivo", "motorola", "oneplus", "lge"}
	models := []string{"SM-G960F", "Redmi-6A", "P20-lite", "A5s", "Y91", "moto-g6", "A6003", "K10"}
	return fmt.Sprintf("%s/%s/9/%07d", randx.Choice(g.r, brands), randx.Choice(g.r, models), g.r.IntN(1e7))
}

// HasMoneyKeyword reports whether an app title or package name contains one
// of the money/reward keywords from the paper's Section 3 analysis.
func HasMoneyKeyword(name string) bool {
	l := strings.ToLower(name)
	for _, w := range moneyWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}
