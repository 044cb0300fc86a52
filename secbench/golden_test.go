package main

import (
	"encoding/json"
	"testing"

	"gpusecmem"
)

func TestDigestCheckCatchesOneFlippedByte(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gpusecmem.ConfigForScheme("ctr_mac_bmt")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = g.Cycles
	res, err := gpusecmem.Simulate(cfg, "nw")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check("ctr_mac_bmt/nw", raw); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}
	for _, i := range []int{0, len(raw) / 2, len(raw) - 1} {
		flipped := append([]byte(nil), raw...)
		flipped[i] ^= 0x01
		if g.check("ctr_mac_bmt/nw", flipped) == nil {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if g.check("no-such/pair", raw) == nil {
		t.Error("a pair without a golden digest passed")
	}
}
