package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenPath is the repository's pinned digest archive, read at run
// time so an intentional model update (regenerated with
// `go test -run TestGoldenResultDigests -update-golden`) flows through
// without touching the benchmark.
const goldenPath = "testdata/golden_digests.json"

// golden is the digest archive: the sha256 of each scheme/benchmark
// Result's canonical JSON at a fixed horizon.
type golden struct {
	Cycles  uint64            `json:"cycles"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(root string) (*golden, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("read golden digests: %w", err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("parse golden digests: %w", err)
	}
	if g.Cycles == 0 || len(g.Digests) == 0 {
		return nil, fmt.Errorf("golden digests: empty archive")
	}
	return &g, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check compares the digest of one run's Result JSON with the pinned
// one for name ("scheme/benchmark").
func (g *golden) check(name string, resultJSON []byte) error {
	want, ok := g.Digests[name]
	if !ok {
		return fmt.Errorf("%s: no golden digest", name)
	}
	if got := sha256Hex(resultJSON); got != want {
		return fmt.Errorf("%s: result digest %s, golden %s", name, got, want)
	}
	return nil
}
