package gpusecmem

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
)

// SchemeNames lists the named secure-memory design points of Tables V
// and VIII, resolvable with ConfigForScheme.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes))
	for n := range schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var schemes = map[string]func() Config{
	// baseline: no secure memory.
	"baseline": BaselineConfig,
	// ctr: counter-mode encryption, no integrity metadata.
	"ctr": cfgCtr,
	// ctr_bmt: counter-mode encryption with the BMT protecting
	// counters, no data MACs.
	"ctr_bmt": cfgCtrBMT,
	// ctr_mac_bmt: the full counter-mode secure memory (alias:
	// "secure").
	"ctr_mac_bmt": SecureMemConfig,
	"secure":      SecureMemConfig,
	// secure_nomshr: the paper's Fig 3 secureMem (no metadata MSHRs).
	"secure_nomshr": cfgSecureNoMSHR,
	// direct: direct encryption only.
	"direct": func() Config { return cfgDirect(40) },
	// direct_mac: direct encryption with sector MACs (6KB MAC cache).
	"direct_mac": func() Config { return DirectMemConfig(40, true, false) },
	// direct_mac_mt: direct encryption with MACs and the Merkle tree
	// (3KB + 3KB caches).
	"direct_mac_mt": func() Config { return DirectMemConfig(40, true, true) },
	// unified: the full counter-mode design with a unified 6KB
	// metadata cache.
	"unified": cfgUnified,
	// scattered: secret-shared line placement (Secure Scattered Memory,
	// arXiv:2402.15824) with the default 2-way share fan-out and a 6KB
	// share-map cache; no AES, MACs, or integrity tree.
	"scattered": func() Config { return ScatteredMemConfig(2) },
	// sw_crypto: MemShield-style software encryption (arXiv:2004.09252)
	// at 320 cycles per sector; no hardware metadata structures.
	"sw_crypto": func() Config { return SWCryptoConfig(320) },
}

// ConfigForScheme resolves a named design point (see SchemeNames).
func ConfigForScheme(name string) (Config, error) {
	mk, ok := schemes[name]
	if !ok {
		return Config{}, fmt.Errorf("gpusecmem: unknown scheme %q (known: %v)", name, SchemeNames())
	}
	return mk(), nil
}

// ConfigForKnobs resolves a run request to a validated Config: the
// named scheme (default ctr_mac_bmt) with the integer knobs
// aes-latency, aes-engines, meta-kb and mshrs and the boolean unified
// applied on top, and MaxCycles set to cycles. An absent or empty key
// keeps the scheme's own value; meta-kb <= 0 does too, and a scheme
// without encryption ignores every knob. The keys are both secmemd's
// /api/run query parameters and secmemsim's flag names, so the two
// tools resolve a request the same way.
func ConfigForKnobs(knobs url.Values, cycles uint64) (cfg Config, scheme string, err error) {
	scheme = knobs.Get("scheme")
	if scheme == "" {
		scheme = "ctr_mac_bmt"
	}
	if cfg, err = ConfigForScheme(scheme); err != nil {
		return cfg, scheme, err
	}
	cfg.MaxCycles = cycles
	if sc := &cfg.Secure; sc.Encryption != EncNone {
		metaKB := 0
		for _, k := range []struct {
			key string
			dst *int
		}{
			{"aes-latency", &sc.AESLatency},
			{"aes-engines", &sc.AESEngines},
			{"meta-kb", &metaKB},
			{"mshrs", &sc.MetaMSHRs},
		} {
			v := knobs.Get(k.key)
			if v == "" {
				continue
			}
			if *k.dst, err = strconv.Atoi(v); err != nil {
				return cfg, scheme, fmt.Errorf("bad %s: %v", k.key, err)
			}
		}
		if metaKB > 0 {
			sc.MetaCacheBytes = metaKB * 1024
		}
		if v := knobs.Get("unified"); v != "" {
			sc.Unified = v == "true" || v == "1"
		}
	}
	return cfg, scheme, cfg.Validate()
}
