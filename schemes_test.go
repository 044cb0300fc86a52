package gpusecmem

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
)

func TestSchemeNamesStable(t *testing.T) {
	names := SchemeNames()
	if len(names) != 12 {
		t.Fatalf("schemes = %v", names)
	}
	for _, n := range names {
		cfg, err := ConfigForScheme(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: invalid config: %v", n, err)
		}
	}
}

func TestConfigForSchemeUnknown(t *testing.T) {
	if _, err := ConfigForScheme("nonsense"); err == nil {
		t.Fatal("want error")
	}
}

func TestSchemeSemantics(t *testing.T) {
	cases := []struct {
		name       string
		enc        int
		mac, tree  bool
		metaCache  int
		metaMSHRs  int
		unifiedSet bool
	}{
		{"baseline", int(EncNone), false, false, 2048, 64, false},
		{"ctr", int(EncCounter), false, false, 2048, 64, false},
		{"ctr_bmt", int(EncCounter), false, true, 2048, 64, false},
		{"ctr_mac_bmt", int(EncCounter), true, true, 2048, 64, false},
		{"secure", int(EncCounter), true, true, 2048, 64, false},
		{"secure_nomshr", int(EncCounter), true, true, 2048, 0, false},
		{"direct", int(EncDirect), false, false, 2048, 64, false},
		{"direct_mac", int(EncDirect), true, false, 6144, 64, false},
		{"direct_mac_mt", int(EncDirect), true, true, 3072, 64, false},
		{"unified", int(EncCounter), true, true, 2048, 64, true},
	}
	for _, tc := range cases {
		cfg, err := ConfigForScheme(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sc := cfg.Secure
		if int(sc.Encryption) != tc.enc || sc.MAC != tc.mac || sc.Tree != tc.tree {
			t.Errorf("%s: enc=%v mac=%v tree=%v", tc.name, sc.Encryption, sc.MAC, sc.Tree)
		}
		if sc.MetaCacheBytes != tc.metaCache {
			t.Errorf("%s: meta cache %d, want %d", tc.name, sc.MetaCacheBytes, tc.metaCache)
		}
		if sc.MetaMSHRs != tc.metaMSHRs {
			t.Errorf("%s: MSHRs %d, want %d", tc.name, sc.MetaMSHRs, tc.metaMSHRs)
		}
		if sc.Unified != tc.unifiedSet {
			t.Errorf("%s: unified %v", tc.name, sc.Unified)
		}
	}
}

// TestConfigForKnobsSchemeDefaults pins that a request naming only a
// scheme resolves to exactly that scheme's design point — the shared
// knob parser must not write any knob value over the scheme's own.
func TestConfigForKnobsSchemeDefaults(t *testing.T) {
	const cycles = 3000
	for _, name := range SchemeNames() {
		want, err := ConfigForScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		want.MaxCycles = cycles
		got, scheme, err := ConfigForKnobs(url.Values{"scheme": {name}}, cycles)
		if err != nil || scheme != name {
			t.Fatalf("%s: scheme=%q err=%v", name, scheme, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ConfigForKnobs differs from ConfigForScheme\n got %+v\nwant %+v", name, got.Secure, want.Secure)
		}
	}
	// An empty query is the default scheme.
	got, scheme, err := ConfigForKnobs(url.Values{}, cycles)
	want, _ := ConfigForScheme("ctr_mac_bmt")
	want.MaxCycles = cycles
	if err != nil || scheme != "ctr_mac_bmt" || !reflect.DeepEqual(got, want) {
		t.Fatalf("empty query: scheme=%q err=%v", scheme, err)
	}
}

func TestConfigForKnobsApplies(t *testing.T) {
	q := url.Values{
		"scheme":      {"direct_mac"},
		"aes-latency": {"80"},
		"aes-engines": {"4"},
		"meta-kb":     {"12"},
		"mshrs":       {"16"},
		"unified":     {"1"},
	}
	cfg, _, err := ConfigForKnobs(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.Secure
	if sc.AESLatency != 80 || sc.AESEngines != 4 || sc.MetaCacheBytes != 12*1024 || sc.MetaMSHRs != 16 || !sc.Unified {
		t.Fatalf("knobs not applied: %+v", sc)
	}
	// A scheme without encryption ignores the knobs, malformed or not.
	base, _, err := ConfigForKnobs(url.Values{"scheme": {"baseline"}, "aes-latency": {"banana"}}, 1000)
	if want := BaselineConfig(); err != nil || base.Secure != want.Secure {
		t.Fatalf("baseline with knobs: err=%v", err)
	}
}

func TestConfigForKnobsErrors(t *testing.T) {
	for _, tc := range []struct {
		q    url.Values
		want string
	}{
		{url.Values{"scheme": {"nonsense"}}, "unknown scheme"},
		{url.Values{"aes-latency": {"banana"}}, "bad aes-latency: "},
		{url.Values{"mshrs": {"x"}}, "bad mshrs: "},
		{url.Values{"aes-engines": {"0"}}, "AESEngines must be positive"},
	} {
		if _, _, err := ConfigForKnobs(tc.q, 1000); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.q, err, tc.want)
		}
	}
	if _, _, err := ConfigForKnobs(url.Values{}, 0); err == nil {
		t.Error("zero cycles validated")
	}
}
