package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"time"
)

// runKey names one /api/run request: a scheme, a benchmark and a
// horizon. Distinct runKeys are distinct daemon cache keys.
type runKey struct {
	Scheme string
	Bench  string
	Cycles uint64
}

func (k runKey) String() string { return fmt.Sprintf("%s/%s@%d", k.Scheme, k.Bench, k.Cycles) }

func (k runKey) query() string {
	v := url.Values{}
	v.Set("scheme", k.Scheme)
	v.Set("bench", k.Bench)
	v.Set("cycles", strconv.FormatUint(k.Cycles, 10))
	return v.Encode()
}

// Request populations of the serve-cluster traffic mix.
const (
	popWarm = iota // Zipf-drawn from the pre-populated key space
	popCold        // a key never requested before
	popDup         // a near-simultaneous duplicate of a cold request, on the other node
)

// item is one scheduled request: when it is due (offset from the
// schedule's start), which node it goes to, and what it asks for.
type item struct {
	Due  time.Duration
	Node int
	Key  runKey
	Pop  int
}

// mix is one open-loop phase: its rate, its length, and the first
// cold horizon (phases use disjoint cold ranges). The traffic shape is
// the same in every phase; README.md gives the basis of each constant.
type mix struct {
	Rate     float64       // requests per second (evenly spaced)
	Duration time.Duration // schedule length
	ColdBase uint64        // first cold horizon
}

const (
	zipfS     = 1.2              // skew of the warm-key popularity
	coldEvery = 65               // every coldEvery-th arrival asks for a never-seen key
	dupShare  = 0.3              // share of cold arrivals duplicated onto the other node
	dupDelay  = time.Millisecond // lag of a duplicate behind its original
)

// coldScheme and coldBench make every cold key cost about the same (a
// write-heavy benchmark on a full-metadata scheme at ~1.5k cycles), so
// the tail the cold population sets is steady.
const (
	coldScheme = "direct_mac_mt"
	coldBench  = "lbm"
)

// popularityOrder returns the warm keys most popular first: which
// keys are hot depends on the seed.
func popularityOrder(seed uint64, warm []runKey) []runKey {
	rng := rand.New(rand.NewPCG(seed, 0x9097))
	out := make([]runKey, len(warm))
	for i, j := range rng.Perm(len(warm)) {
		out[i] = warm[j]
	}
	return out
}

// buildSchedule lays out one phase's requests over warm keys given in
// popularity order. The same seed, mix and key list always give the
// same schedule: arrivals are evenly spaced at the mix rate, and every
// random choice (cold offset, duplicates, node, warm rank) comes from
// a PCG stream seeded by seed.
func buildSchedule(seed uint64, m mix, warm []runKey) []item {
	rng := rand.New(rand.NewPCG(seed, 0x5ec6e4c4))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(warm)-1))
	n := int(m.Rate * m.Duration.Seconds())
	gap := time.Duration(float64(time.Second) / m.Rate)
	// Every coldEvery-th arrival, from a seed-picked offset, is cold, and
	// a seed-picked dupShare of those are duplicated. Even spacing and
	// fixed counts keep the tail population the same size on every
	// seed, and keep cold simulations from queueing behind each other on
	// the nominal schedule.
	const (
		warmArrival = iota
		coldArrival
		dupArrival
	)
	kind := make([]int, n)
	var coldAt []int
	for i := rng.IntN(coldEvery); i < n; i += coldEvery {
		kind[i] = coldArrival
		coldAt = append(coldAt, i)
	}
	nDup := int(math.Round(dupShare * float64(len(coldAt))))
	for _, j := range rng.Perm(len(coldAt))[:nDup] {
		kind[coldAt[j]] = dupArrival
	}
	var out []item
	cold := 0
	for i := 0; i < n; i++ {
		due := time.Duration(i) * gap
		node := rng.IntN(2)
		if kind[i] != warmArrival {
			k := runKey{Scheme: coldScheme, Bench: coldBench, Cycles: m.ColdBase + uint64(cold)}
			cold++
			out = append(out, item{Due: due, Node: node, Key: k, Pop: popCold})
			if kind[i] == dupArrival {
				out = append(out, item{Due: due + dupDelay, Node: 1 - node, Key: k, Pop: popDup})
			}
			continue
		}
		out = append(out, item{Due: due, Node: node, Key: warm[zipf.Uint64()], Pop: popWarm})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}
