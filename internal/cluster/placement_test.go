package cluster

import (
	"fmt"
	"testing"
)

func ringOf(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// syntheticKeys builds n keys shaped like real RunKeys: long JSON-ish
// prefixes differing in a few fields, so the balance test exercises
// the sha256 condensation rather than toy short strings.
func syntheticKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf(
			`{"NumSMs":80,"NumPartitions":32,"MaxCycles":%d,"Secure":{"Encryption":%d,"AESLatency":40}}|bench%d`,
			24000+i, i%3, i%7)
	}
	return keys
}

func TestOwnerOrderIndependent(t *testing.T) {
	a := ringOf(t, "http://n1:1", "http://n2:2", "http://n3:3")
	b := ringOf(t, "http://n3:3", "http://n1:1", "http://n2:2")
	c := ringOf(t, "http://n2:2", "http://n3:3", "http://n1:1")
	for _, key := range syntheticKeys(500) {
		oa, ob, oc := a.Owner(key), b.Owner(key), c.Owner(key)
		if oa != ob || oa != oc {
			t.Fatalf("owner differs across orderings for %q: %q %q %q", key, oa, ob, oc)
		}
	}
}

func TestRingDedupAndValidation(t *testing.T) {
	r := ringOf(t, "http://a", "http://b", "http://a")
	if r.Len() != 2 {
		t.Fatalf("dedup failed: %v", r.Nodes())
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}); err == nil {
		t.Fatal("empty node name accepted")
	}
}

// TestPlacementBalance pins the balance bound the peer tier sizes
// itself on: over 10k synthetic keys the most loaded owner holds at
// most 1.3x the least loaded one's share.
func TestPlacementBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 8000+i)
		}
		r := ringOf(t, nodes...)
		load := make(map[string]int, n)
		for _, key := range syntheticKeys(10000) {
			load[r.Owner(key)]++
		}
		if len(load) != n {
			t.Fatalf("n=%d: only %d nodes own keys: %v", n, len(load), load)
		}
		min, max := 1<<30, 0
		for _, c := range load {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if ratio := float64(max) / float64(min); ratio > 1.3 {
			t.Fatalf("n=%d: owner load imbalance %.3f > 1.3 (%v)", n, ratio, load)
		}
	}
}

// TestMinimalMovement pins the rendezvous property the cluster's
// cache economics depend on: when a node joins, only the keys it now
// wins move (~1/(n+1) of them, and none move between survivors), and
// when a node leaves, only its keys are reassigned.
func TestMinimalMovement(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	joined := append(append([]string{}, nodes...), "http://d:4")
	before := ringOf(t, nodes...)
	after := ringOf(t, joined...)
	keys := syntheticKeys(10000)

	moved := 0
	for _, key := range keys {
		ob, oa := before.Owner(key), after.Owner(key)
		if ob != oa {
			moved++
			if oa != "http://d:4" {
				t.Fatalf("join moved %q between survivors: %q -> %q", key, ob, oa)
			}
		}
	}
	// Expect ~1/4 of keys to move to the new node; allow generous
	// slack either way but reject wholesale reshuffles.
	if frac := float64(moved) / float64(len(keys)); frac < 0.15 || frac > 0.35 {
		t.Fatalf("join moved %.3f of keys, want ~0.25", frac)
	}

	// Leave: remove b; every key b owned must land on a survivor, and
	// keys a or c owned must not move at all.
	left := ringOf(t, "http://a:1", "http://c:3")
	for _, key := range keys {
		ob, oa := before.Owner(key), left.Owner(key)
		if ob == "http://b:2" {
			continue // reassigned, necessarily
		}
		if ob != oa {
			t.Fatalf("leave moved %q between survivors: %q -> %q", key, ob, oa)
		}
	}
}

func BenchmarkOwner(b *testing.B) {
	r, _ := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	key := syntheticKeys(1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Owner(key)
	}
}
