package sim

import (
	"gpusecmem/internal/cache"
	"gpusecmem/internal/dram"
	"gpusecmem/internal/eventq"
	"gpusecmem/internal/faults"
	"gpusecmem/internal/geometry"
	"gpusecmem/internal/stats"
)

// destKind classifies what a completed DRAM transaction was for.
type destKind int

const (
	destDataFill destKind = iota
	destCtrFill
	destMACFill
	destTreeFill
	// destKeyFill is an EncSWCrypto key-table line returning from DRAM.
	// Key fetches are uncached and unmerged (the software path has no
	// MSHRs), so each carries at most one waiting read.
	destKeyFill
)

type dest struct {
	kind   destKind
	addr   uint64 // metadata line address (fills)
	readID uint64 // waiting read for destDataFill / bypass metadata fetches
	bypass bool
	write  bool
	// issuedAt is the enqueue cycle, kept for probe span attribution.
	issuedAt uint64
}

// readState tracks one in-flight L2 read miss through the secure
// engine.
type readState struct {
	id         uint64
	globalAddr uint64
	localAddr  uint64
	l2Token    uint64
	l2Bypass   bool
	l2Bank     int

	dataDone, ctrDone, macDone bool
	// sharesLeft counts outstanding secret-share fetches under
	// EncScattered; the read's data is reconstructible only once the
	// last share arrives. Zero for every other scheme, where one DRAM
	// transaction carries the whole sector.
	sharesLeft int
	// unprotected marks reads outside the selective-encryption range:
	// no crypto on the reply path.
	unprotected bool
	// arrivedAt is the cycle the miss reached the partition, kept for
	// probe span attribution.
	arrivedAt           uint64
	dataReady, ctrReady uint64
	macReady            uint64
	replied             bool
	// finished is set once the reply event fired and the L2 was
	// filled; only then may the state be retired.
	finished bool
}

type replyEvent struct {
	at     uint64
	readID uint64
}

// When orders reply events for the partition's eventq.
func (e replyEvent) When() uint64 { return e.at }

// partition is one memory partition: L2 banks, the secure memory
// engine (metadata caches, AES engines, MAC unit), and the DRAM
// channel.
type partition struct {
	id  int
	gpu *GPU
	cfg *Config
	lay *geometry.Layout

	banks []*cache.Cache
	dram  *dram.DRAM

	// Metadata caches. With a unified configuration all three point
	// at the same cache; with EncDirect ctr is nil. EncScattered reuses
	// the ctr slot for its share-map cache (the only metadata cache the
	// scheme has), so the counter wake/fill machinery serves the map
	// gate unchanged; EncSWCrypto has no metadata caches at all.
	ctr, mac, tree *cache.Cache

	// metaBase is where the extension schemes' partition-local metadata
	// region starts: the first address past the partition's data space.
	// EncScattered's share map and EncSWCrypto's key table live there
	// (the paper schemes derive their region bases from lay instead).
	metaBase uint64
	// lastKeyLine is EncSWCrypto's single software-held key register:
	// the key-table line the driver last loaded. ^0 = none held.
	lastKeyLine uint64

	aesFree3 []uint64
	macFree3 uint64

	dests   map[uint64]dest
	reads   map[uint64]*readState
	replies eventq.Queue[replyEvent]
	// rsPool recycles retired readStates; reads are the per-L2-miss
	// hot-path allocation.
	rsPool []*readState
	// wake is dispatch's partition-owned copy of the reads a metadata
	// fill releases, so wakeWaiters never holds or appends to a
	// cache's scratch.
	wake []uint64

	metaStats [numMeta]MetaStats

	// faultDetected / faultSilent classify injected corruptions by
	// whether the configured protection level catches them.
	faultDetected, faultSilent uint64

	// protectedStripes is the number of 1 MB partition-local stripes
	// out of 16 that the secure engine covers (selective encryption);
	// 16 = everything.
	protectedStripes uint64

	// localTok seeds newToken: partition-owned tokens (readState ids,
	// DRAM destination tokens) are generated locally so the parallel
	// engine needs no shared counter. Token values are opaque map keys
	// and never ordered or iterated, so local generation changes no
	// observable result.
	localTok uint64
	// stage, when non-nil, redirects sendReply into the parallel
	// engine's per-shard staging buffer instead of the shared toSM
	// queue; nil (the sequential engine) costs one pointer test.
	stage *replyStage

	ctrReuse, macReuse *stats.ReuseProfiler
}

func newPartition(id int, gpu *GPU) *partition {
	cfg := &gpu.cfg
	p := &partition{
		id:    id,
		gpu:   gpu,
		cfg:   cfg,
		dram:  dram.New(cfg.DRAM),
		dests: make(map[uint64]dest),
		reads: make(map[uint64]*readState),
	}
	for b := 0; b < cfg.L2BanksPerPartition; b++ {
		p.banks = append(p.banks, cache.New(cache.Config{
			Name:        "L2",
			SizeBytes:   cfg.L2BankBytes,
			LineSize:    geometry.LineSize,
			Assoc:       cfg.L2Assoc,
			Sectored:    cfg.SectoredL2,
			NumMSHRs:    cfg.L2MSHRs,
			MergeCap:    cfg.L2MergeCap,
			AllocOnFill: true,
		}))
	}
	sc := &cfg.Secure
	if sc.Encryption != EncNone {
		p.protectedStripes = uint64(sc.ProtectedFraction*16 + 0.5)
		p.metaBase = cfg.ProtectedBytes / uint64(cfg.NumPartitions)
		metaCache := func(name string, mergeCap int) *cache.Cache {
			return cache.New(cache.Config{
				Name:        name,
				SizeBytes:   sc.MetaCacheBytes,
				LineSize:    geometry.LineSize,
				Assoc:       sc.MetaAssoc,
				NumMSHRs:    sc.MetaMSHRs,
				MergeCap:    mergeCap,
				AllocOnFill: sc.AllocOnFill,
				Perfect:     sc.PerfectMeta,
				Unlimited:   sc.UnlimitedMeta,
			})
		}
		switch sc.Encryption {
		case EncScattered:
			// One share-map cache; no AES pipeline, MAC unit, or
			// counter/MAC/tree geometry — the placement map is the
			// scheme's entire metadata footprint.
			p.ctr = metaCache("smap$", sc.MergeCapCounter)
			return p
		case EncSWCrypto:
			// No hardware metadata structures at all: the software
			// driver holds one key-table line in a register.
			p.lastKeyLine = ^uint64(0)
			return p
		}
		p.lay = layoutFor(cfg)
		p.aesFree3 = make([]uint64, sc.AESEngines)
		if sc.Unified {
			u := cache.New(cache.Config{
				Name:        "unified$",
				SizeBytes:   sc.UnifiedBytes,
				LineSize:    geometry.LineSize,
				Assoc:       sc.MetaAssoc,
				NumMSHRs:    sc.UnifiedMSHRs,
				MergeCap:    sc.MergeCapCounter,
				AllocOnFill: sc.AllocOnFill,
				Perfect:     sc.PerfectMeta,
				Unlimited:   sc.UnlimitedMeta,
				Policy:      sc.UnifiedPolicy,
			})
			p.ctr, p.mac, p.tree = u, u, u
		} else {
			if sc.Encryption == EncCounter {
				p.ctr = metaCache("ctr$", sc.MergeCapCounter)
			}
			if sc.MAC {
				p.mac = metaCache("mac$", sc.MergeCapMAC)
			}
			if sc.Tree {
				p.tree = metaCache("tree$", sc.MergeCapTree)
			}
		}
		if id == 0 && cfg.ProfileReuse {
			p.ctrReuse = stats.NewReuseProfiler()
			p.macReuse = stats.NewReuseProfiler()
		}
	}
	return p
}

// layoutFor builds the partition-local metadata layout.
func layoutFor(cfg *Config) *geometry.Layout {
	kind := geometry.BMT
	if cfg.Secure.Encryption == EncDirect {
		kind = geometry.MT
	}
	return geometry.MustLayout(cfg.ProtectedBytes/uint64(cfg.NumPartitions), kind)
}

// newToken returns a fresh partition-unique token. Tokens are only
// ever compared for equality against tokens of the same partition, so
// uniqueness within the partition suffices; the partition-id high bits
// keep them globally distinct anyway, and the +1 keeps them nonzero (0
// is the "no waiter" sentinel in wakeWaiters).
func (p *partition) newToken() uint64 {
	p.localTok++
	return uint64(p.id+1)<<40 | p.localTok
}

// sendReply forwards completed sector data toward the SMs: directly
// onto the toSM delay queue under the sequential engine, or into the
// shard's staging buffer under the parallel engine (merged into toSM
// in canonical order at the window barrier). tokens may alias
// cache-owned scratch; the staged path copies token-by-token.
func (p *partition) sendReply(now, at, globalAddr uint64, tokens []uint64) {
	if st := p.stage; st != nil {
		st.stageReply(now, at, globalAddr, tokens)
		return
	}
	p.gpu.scheduleReply(at, globalAddr, tokens)
}

// isProtected reports whether a partition-local data address falls in
// the selectively-protected stripes (1 MB granularity, 16 stripes per
// 16 MB period).
func (p *partition) isProtected(localAddr uint64) bool {
	return (localAddr>>20)&15 < p.protectedStripes
}

func (p *partition) bankFor(localAddr uint64) int {
	if len(p.banks) == 1 {
		return 0
	}
	return int(localAddr>>8) % len(p.banks)
}

// --- AES / MAC unit scheduling ---

// aesSchedule books one 32 B sector through a pipelined AES engine
// that is free no earlier than readyCycle, and returns the cycle its
// result is available. Zero-crypto configs short-circuit.
func (p *partition) aesSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.AESLatency == 0 && sc.MACLatency == 0 {
		return readyCycle
	}
	ready3 := readyCycle * 3
	best := 0
	for i := 1; i < len(p.aesFree3); i++ {
		if p.aesFree3[i] < p.aesFree3[best] {
			best = i
		}
	}
	start3 := ready3
	if p.aesFree3[best] > start3 {
		start3 = p.aesFree3[best]
	}
	// 32 B through a 16 B/memory-cycle pipeline = 2 memory cycles =
	// 8 thirds of a core cycle.
	p.aesFree3[best] = start3 + 8
	return start3/3 + uint64(sc.AESLatency)
}

// macSchedule books one sector MAC computation/verification.
func (p *partition) macSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.AESLatency == 0 && sc.MACLatency == 0 {
		return readyCycle
	}
	ready3 := readyCycle * 3
	start3 := ready3
	if p.macFree3 > start3 {
		start3 = p.macFree3
	}
	p.macFree3 = start3 + 8
	return start3/3 + uint64(sc.MACLatency)
}

// --- L2-side entry points ---

// handleL2Read services a load sector arriving from the interconnect.
func (p *partition) handleL2Read(globalAddr, localAddr, token uint64, now uint64) {
	bank := p.bankFor(localAddr)
	acc := p.banks[bank].Access(localAddr, false, token)
	switch {
	case acc.Outcome == cache.Hit:
		if pr := p.gpu.probe; pr != nil {
			p.recordHitSpan(pr, now)
		}
		p.sendReply(now, now+p.cfg.L2Latency, globalAddr, []uint64{token})
	case acc.NeedFetch:
		p.startRead(globalAddr, localAddr, token, acc.Bypass, bank, now)
	}
	// Merged: the existing fetch's fill will wake this token.
}

// handleL2Write services a store sector (write-validate policy).
func (p *partition) handleL2Write(localAddr uint64, now uint64) {
	bank := p.bankFor(localAddr)
	ev, _ := p.banks[bank].WriteValidate(localAddr)
	if ev != nil {
		p.handleDataWriteback(ev, now)
	}
}

// startRead launches the secure read path for an L2 sector miss.
func (p *partition) startRead(globalAddr, localAddr, token uint64, l2Bypass bool, bank int, now uint64) {
	var rs *readState
	if n := len(p.rsPool); n > 0 {
		rs = p.rsPool[n-1]
		p.rsPool = p.rsPool[:n-1]
	} else {
		rs = new(readState)
	}
	*rs = readState{
		id:         p.newToken(),
		globalAddr: globalAddr,
		localAddr:  localAddr,
		l2Token:    token,
		l2Bypass:   l2Bypass,
		l2Bank:     bank,
		arrivedAt:  now,
	}
	p.reads[rs.id] = rs
	sc := &p.cfg.Secure
	protected := p.isProtected(localAddr)
	if protected && sc.Encryption == EncScattered {
		// The share locations are unknown until the share map answers,
		// so no data fetch is issued here: the map lookup gates the
		// whole fan-out (a map hit issues the shares this cycle; a miss
		// defers them to the map line's fill, which reuses the counter
		// gate in readState).
		rs.macDone = true
		if p.metaAccess(MetaSMap, p.ctr, p.smapLineAddr(localAddr), false, rs.id, destCtrFill, KindSMap, now) {
			rs.ctrDone, rs.ctrReady = true, now+p.cfg.MetaLatency
			p.issueShares(rs, now)
		}
		return
	}
	p.fetch(dest{kind: destDataFill, readID: rs.id}, localAddr, geometry.SectorSize, KindData)

	switch {
	case protected && sc.Encryption == EncCounter:
		ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(localAddr))
		if p.metaAccess(MetaCounter, p.ctr, ctrAddr, false, rs.id, destCtrFill, KindCounter, now) {
			rs.ctrDone, rs.ctrReady = true, now+p.cfg.MetaLatency
		}
	case protected && sc.Encryption == EncSWCrypto:
		if p.keyAccess(p.keyLineAddr(localAddr), rs.id, now) {
			rs.ctrDone, rs.ctrReady = true, now+p.cfg.MetaLatency
		}
	default:
		rs.ctrDone = true
	}
	if protected && sc.MAC {
		// Background under speculative verification.
		if p.metaAccess(MetaMAC, p.mac, p.lay.MACSectorAddr(localAddr), false, rs.id, destMACFill, KindMAC, now) {
			rs.macDone, rs.macReady = true, now+p.cfg.MetaLatency
		}
	} else {
		rs.macDone = true
	}
	if !protected {
		rs.unprotected = true
	}
	p.maybeReply(rs, now)
}

// --- EncScattered share-map + share fan-out ---

// mix64 is the splitmix64 finalizer: a deterministic 64-bit mixer used
// to derive pseudorandom share placements. Scattering quality only
// needs decorrelation from the row/bank/set-index bits, not
// cryptographic strength (the real scheme's placements are keyed; the
// timing model only needs their locality-destroying shape).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// smapLineAddr is the share-map line holding the placement entry for a
// data address: 8 B per 128 B data line, the map region starting at
// metaBase.
func (p *partition) smapLineAddr(localAddr uint64) uint64 {
	off := localAddr / geometry.LineSize * 8
	return p.metaBase + off/geometry.LineSize*geometry.LineSize
}

// shareAddr is the partition-local address of share i (1..k-1) of a
// protected line; share 0 is the line's home address itself. The
// placement is a pure function of (line, i) so reads and writebacks
// agree, and it preserves the sector offset so sectored-DRAM byte
// accounting matches the primary share's.
func (p *partition) shareAddr(localAddr uint64, i int) uint64 {
	line := localAddr / geometry.LineSize
	h := mix64(line + uint64(i)*0x9e3779b97f4a7c15)
	dataLines := p.metaBase / geometry.LineSize
	return h%dataLines*geometry.LineSize + localAddr%geometry.LineSize
}

// issueShares launches the k-way share fetch once the placement is
// known: the home-address share counts as ordinary data traffic, the
// k-1 scattered shares as KindShare. All shares feed the same
// destDataFill wait; the last arrival completes the read's data.
func (p *partition) issueShares(rs *readState, now uint64) {
	k := p.cfg.Secure.ScatterShares
	rs.sharesLeft = k
	for i := 0; i < k; i++ {
		addr, kind := rs.localAddr, KindData
		if i > 0 {
			addr, kind = p.shareAddr(rs.localAddr, i), KindShare
		}
		p.fetch(dest{kind: destDataFill, readID: rs.id}, addr, geometry.SectorSize, kind)
	}
}

// --- EncSWCrypto key table ---

// keyLineAddr is the key-table line holding the page key for a data
// address: 8 B per 4 KB page, the table starting at metaBase.
func (p *partition) keyLineAddr(localAddr uint64) uint64 {
	off := localAddr >> 12 * 8
	return p.metaBase + off/geometry.LineSize*geometry.LineSize
}

// keyAccess models the software driver's key lookup for a read
// (readID) or a dirty writeback (readID 0) and reports whether the key
// is held: one key-table line is held in a register; any other page's
// key is a full uncached DRAM line read. There are no MSHRs —
// concurrent misses to the same key line each pay their own fetch,
// which is exactly the cost the hardware metadata path exists to avoid.
func (p *partition) keyAccess(keyLine, readID, now uint64) (hit bool) {
	ms := &p.metaStats[MetaKey]
	ms.Accesses++
	if keyLine == p.lastKeyLine {
		return true
	}
	ms.MissesPrimary++
	p.fetch(dest{kind: destKeyFill, addr: keyLine, readID: readID, write: readID == 0, issuedAt: now}, keyLine, geometry.LineSize, KindKey)
	return false
}

// swSchedule books one sector's software decrypt/encrypt pass through
// the SM-side crypto kernel, modeled as a single serial unit three
// times slower per sector than the hardware MAC pipe, plus the
// SWCryptoCycles software latency.
func (p *partition) swSchedule(readyCycle uint64) uint64 {
	sc := &p.cfg.Secure
	if sc.SWCryptoCycles == 0 {
		return readyCycle
	}
	start3 := readyCycle * 3
	if p.macFree3 > start3 {
		start3 = p.macFree3
	}
	p.macFree3 = start3 + 24
	return start3/3 + uint64(sc.SWCryptoCycles)
}

// maybeReply checks whether rs can be scheduled for its L2 fill and
// SM reply, and if so computes the reply time through the crypto
// pipeline.
func (p *partition) maybeReply(rs *readState, now uint64) {
	if rs.replied {
		p.maybeRetire(rs)
		return
	}
	sc := &p.cfg.Secure
	if !rs.dataDone || !rs.ctrDone {
		return
	}
	if !sc.SpeculativeVerify && sc.MAC && !rs.macDone {
		return
	}
	// otpReady / encDone / verifyDone stay at zero on paths that do not
	// compute them; recordReadSpan uses them for stage attribution.
	var at, otpReady, encDone, verifyDone uint64
	switch {
	case rs.unprotected || sc.Encryption == EncNone:
		at = rs.dataReady
	case sc.Encryption == EncCounter:
		// OTP generation starts when the counter is known; the pad is
		// XORed when both pad and data are present.
		otpReady = p.aesSchedule(rs.ctrReady)
		at = rs.dataReady
		if otpReady > at {
			at = otpReady
		}
	case sc.Encryption == EncScattered:
		// The XOR reconstruction starts once the last share arrives
		// (dataReady); the map lookup already gated the fan-out, so it
		// is never the later event here.
		encDone = rs.dataReady + uint64(sc.ScatterCombineLatency)
		at = encDone
	case sc.Encryption == EncSWCrypto:
		// The software kernel needs both the ciphertext and the page
		// key before it can start, then pays the serial software pass.
		base := rs.dataReady
		if rs.ctrReady > base {
			base = rs.ctrReady
		}
		encDone = p.swSchedule(base)
		at = encDone
	default: // EncDirect: decryption starts after the ciphertext arrives.
		encDone = p.aesSchedule(rs.dataReady)
		at = encDone
	}
	if sc.MAC && !rs.unprotected {
		if !sc.SpeculativeVerify {
			v := rs.macReady
			if rs.dataReady > v {
				v = rs.dataReady
			}
			v = p.macSchedule(v)
			verifyDone = v
			if v > at {
				at = v
			}
		} else {
			// Background verification still occupies the MAC unit.
			p.macSchedule(now)
		}
	}
	if at <= now {
		at = now + 1
	}
	rs.replied = true
	if pr := p.gpu.probe; pr != nil {
		p.recordReadSpan(pr, rs, otpReady, encDone, verifyDone, at)
	}
	p.replies.Push(replyEvent{at: at, readID: rs.id})
}

// maybeRetire frees the read state once the reply has fired and every
// tracked fill has returned. The state returns to the pool; callers
// must not touch rs after this (a recycled state gets a fresh token,
// so stale IDs in late events simply miss the reads map).
func (p *partition) maybeRetire(rs *readState) {
	if rs.finished && rs.dataDone && rs.ctrDone && rs.macDone {
		delete(p.reads, rs.id)
		p.rsPool = append(p.rsPool, rs)
	}
}

// finishRead fires at the reply time: fill the L2 bank, forward the
// data to the waiting SMs, and handle any dirty L2 eviction.
func (p *partition) finishRead(rs *readState, now uint64) {
	fill := p.banks[rs.l2Bank].Fill(rs.localAddr, rs.l2Bypass, false)
	tokens := fill.Tokens
	if rs.l2Bypass {
		tokens = append(tokens, rs.l2Token)
	}
	if fill.Writeback != nil {
		p.handleDataWriteback(fill.Writeback, now)
	}
	if len(tokens) > 0 {
		p.sendReply(now, now, rs.globalAddr, tokens)
	}
	rs.finished = true
	p.maybeRetire(rs)
}

// --- Write path ---

// handleDataWriteback processes a dirty L2 data eviction through the
// secure write path: counter increment, encryption, MAC update, and
// the DRAM data write.
func (p *partition) handleDataWriteback(ev *cache.Eviction, now uint64) {
	sc := &p.cfg.Secure
	p.dram.Enqueue(dram.Request{Addr: ev.LineAddr, Bytes: ev.DirtyBytes, Write: true, Kind: int(KindData)})
	if sc.Encryption == EncNone || !p.isProtected(ev.LineAddr) {
		return
	}
	switch sc.Encryption {
	case EncScattered:
		// A dirty writeback re-splits the line: the home share was the
		// data write above, the k-1 scattered shares follow, and the
		// placement entry is read-modified-written (fresh shares mean
		// fresh map contents).
		for i := 1; i < sc.ScatterShares; i++ {
			p.dram.Enqueue(dram.Request{Addr: p.shareAddr(ev.LineAddr, i), Bytes: ev.DirtyBytes, Write: true, Kind: int(KindShare)})
		}
		p.metaAccess(MetaSMap, p.ctr, p.smapLineAddr(ev.LineAddr), true, 0, destCtrFill, KindSMap, now)
		return
	case EncSWCrypto:
		// Software encryption of each dirty sector, after the driver
		// swaps the page key into its register if it isn't held.
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.swSchedule(now)
		}
		p.keyAccess(p.keyLineAddr(ev.LineAddr), 0, now)
		return
	}
	// Encryption occupancy, one AES pass per dirty sector.
	for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
		p.aesSchedule(now)
	}
	// Eager tree updates write the leaf's parent node alongside the
	// leaf; lazy ones defer it to the leaf's eviction.
	eager := sc.Tree && !sc.LazyTreeUpdate
	if sc.Encryption == EncCounter {
		// Counter increment: read-modify-write of the counter line.
		ctrAddr := p.lay.CounterLineAddr(p.lay.CounterLine(ev.LineAddr))
		p.metaAccess(MetaCounter, p.ctr, ctrAddr, true, 0, destCtrFill, KindCounter, now)
		if eager {
			p.treeAccess(ctrAddr, true, now)
		}
	}
	if sc.MAC {
		for b := 0; b < ev.DirtyBytes; b += geometry.SectorSize {
			p.macSchedule(now)
		}
		macAddr := p.lay.MACSectorAddr(ev.LineAddr)
		p.metaAccess(MetaMAC, p.mac, macAddr, true, 0, destMACFill, KindMAC, now)
		if eager {
			p.treeAccess(macAddr, true, now) // a tree leaf only under EncDirect
		}
	}
}

// handleMetaWriteback processes a dirty metadata-cache eviction: the
// DRAM writeback plus the lazy parent update it triggers.
func (p *partition) handleMetaWriteback(ev *cache.Eviction, now uint64) {
	// ev aliases cache scratch: read it before the parent access.
	lineAddr := ev.LineAddr
	p.dram.Enqueue(dram.Request{Addr: lineAddr, Bytes: ev.DirtyBytes, Write: true, Kind: int(KindWB)})
	if sc := &p.cfg.Secure; sc.Tree && sc.LazyTreeUpdate {
		p.treeAccess(lineAddr, true, now)
	}
}

// --- Metadata access ---

// metaAccess is the one metadata-cache lookup. It probes c for addr —
// a read on the critical path (readID set), a read-modify-write
// (write), or a tree-walk step (neither) — books metaStats[mk], writes
// back any dirty victim an allocate-on-miss reservation evicts, and on
// a miss that needs a fetch reads the line from DRAM, to complete as a
// fill of kind fill. A bypassing fetch carries readID, since no MSHR
// holds it. Only a hit's action is left to the caller.
func (p *partition) metaAccess(mk MetaKind, c *cache.Cache, addr uint64, write bool, readID uint64, fill destKind, traffic TrafficKind, now uint64) (hit bool) {
	switch {
	case mk == MetaCounter && p.ctrReuse != nil:
		p.ctrReuse.Touch(addr / geometry.LineSize)
	case mk == MetaMAC && p.macReuse != nil:
		p.macReuse.Touch(addr / geometry.LineSize)
	}
	ms := &p.metaStats[mk]
	ms.Accesses++
	acc := c.Access(addr, write, readID)
	switch acc.Outcome {
	case cache.Hit:
		return true
	case cache.MissPrimary:
		ms.MissesPrimary++
	default:
		ms.MissesSecondary++
	}
	if acc.Writeback != nil {
		p.handleMetaWriteback(acc.Writeback, now)
	}
	if acc.NeedFetch {
		lineAddr := addr / geometry.LineSize * geometry.LineSize
		d := dest{kind: fill, addr: lineAddr, bypass: acc.Bypass, write: write, issuedAt: now}
		if acc.Bypass {
			d.readID = readID
		}
		p.fetch(d, lineAddr, geometry.LineSize, traffic)
	}
	return false
}

// fetch issues a DRAM read of bytes at addr whose completion dispatch
// routes to d. It is the only place a DRAM token is minted.
func (p *partition) fetch(d dest, addr uint64, bytes int, kind TrafficKind) {
	tok := p.newToken()
	p.dests[tok] = d
	p.dram.Enqueue(dram.Request{Addr: addr, Bytes: bytes, Token: tok, Kind: int(kind)})
}

// treeParent returns the address of the tree node that authenticates
// the metadata line holding addr: a leaf's lowest interior node
// (counter lines under BMT, MAC lines under MT) or a node's parent. ok
// is false for lines outside the tree and for level 0, whose hash
// lives in the on-chip root register.
func (p *partition) treeParent(addr uint64) (node uint64, ok bool) {
	var level int
	var idx uint64
	switch p.lay.RegionOf(addr) {
	case geometry.RegionCounter:
		level, idx, _ = p.lay.LeafParent((addr - p.lay.CounterBase) / geometry.LineSize)
	case geometry.RegionMAC:
		if p.cfg.Secure.Encryption != EncDirect {
			return 0, false
		}
		level, idx, _ = p.lay.LeafParent((addr - p.lay.MACBase) / geometry.LineSize)
	case geometry.RegionTree:
		if level, idx, _, ok = p.lay.Parent(p.lay.NodeByAddr(addr)); !ok {
			return 0, false
		}
	default:
		return 0, false
	}
	return p.lay.TreeNodeAddr(level, idx), true
}

// treeAccess touches the tree node above the metadata line holding
// addr: a parent update (write) or one step of the background
// verification walk. A cached node ends the walk (cached implies
// verified); a miss fetches the node, and its fill continues the walk
// from its parent. A miss merged into an in-flight fetch leaves the
// walk to that fetch.
func (p *partition) treeAccess(addr uint64, write bool, now uint64) {
	if node, ok := p.treeParent(addr); ok {
		p.metaAccess(MetaTree, p.tree, node, write, 0, destTreeFill, KindTree, now)
	}
}

// --- DRAM completion dispatch ---

// nextEvent returns the earliest cycle after `now` at which tick could
// do anything — fire a scheduled reply or move the DRAM channel —
// assuming no new L2 message arrives in between (the cycle loop
// re-arms the partition on delivery). Like dram.NextEvent it is a
// lower bound: undershooting costs a no-op tick, which is exactly what
// the legacy every-cycle loop did, so skipping up to the bound is
// state-identical.
func (p *partition) nextEvent(now uint64) uint64 {
	next := p.dram.NextEvent(now)
	if r := p.replies.NextWhen(); r < next {
		next = r
	}
	if next <= now && next != ^uint64(0) {
		next = now + 1
	}
	return next
}

func (p *partition) tick(now uint64) {
	for p.replies.Len() > 0 && p.replies.Min().at <= now {
		ev := p.replies.Pop()
		if rs, ok := p.reads[ev.readID]; ok {
			p.finishRead(rs, now)
		}
	}
	for _, tok := range p.dram.Tick(now) {
		d, ok := p.dests[tok]
		if !ok {
			continue
		}
		delete(p.dests, tok)
		p.dispatch(d, now)
	}
}

// recordCorruption books one injected bit flip as detected (the
// protection level would raise a verification error) or silent.
func (p *partition) recordCorruption(detected bool) {
	if detected {
		p.faultDetected++
	} else {
		p.faultSilent++
	}
}

// injectMeta gives the fault plan its two shots at a returning
// metadata line: SiteDRAMMeta models the line corrupted at rest in
// DRAM, SiteMetaFill models corruption on the fill path into the
// metadata cache. Both are detected iff `covered` — whether the
// configured protection level has a check that would miscompare.
func (p *partition) injectMeta(in *faults.Injector, addr uint64, covered bool) {
	if in.Fire(faults.SiteDRAMMeta, addr) {
		p.recordCorruption(covered)
	}
	if in.Fire(faults.SiteMetaFill, addr) {
		p.recordCorruption(covered)
	}
}

func (p *partition) dispatch(d dest, now uint64) {
	sc := &p.cfg.Secure
	switch d.kind {
	case destDataFill:
		if rs, ok := p.reads[d.readID]; ok {
			if in := p.gpu.inj; in != nil && in.Fire(faults.SiteDRAMData, rs.localAddr) {
				// A flipped data line is caught only by a MAC over a
				// protected address; decryption alone scrambles
				// silently.
				p.recordCorruption(sc.MAC && !rs.unprotected)
			}
			if rs.sharesLeft > 1 {
				// EncScattered: more shares outstanding — the line is
				// reconstructible only once the last one lands.
				rs.sharesLeft--
				return
			}
			rs.sharesLeft = 0
			rs.dataDone = true
			rs.dataReady = now
			p.maybeReply(rs, now)
		}
	case destKeyFill:
		if in := p.gpu.inj; in != nil {
			// A flipped page key scrambles the plaintext with nothing
			// to miscompare against: always silent.
			p.injectMeta(in, d.addr, false)
		}
		if pr := p.gpu.probe; pr != nil {
			p.recordMetaSpan(pr, d, KindKey, now)
		}
		// The driver's register holds this key line from the fill cycle
		// on. Updating at fill (not issue) time means concurrent misses
		// on the same line each pay their own fetch — the software path
		// has no MSHRs to merge them.
		p.lastKeyLine = d.addr
		p.wake = p.wake[:0]
		p.wakeWaiters(d, now)
	default: // destCtrFill, destMACFill, destTreeFill
		// A flipped stored MAC always miscompares against the
		// recomputed one, and a flipped tree node fails its parent's
		// hash check. A corrupt counter fails the tree check directly,
		// or the (stateful) MAC check indirectly via the wrong OTP;
		// under EncScattered this is the share map and neither exists,
		// so the flip lands silently.
		c, kind, covered := p.tree, KindTree, true
		switch d.kind {
		case destCtrFill:
			c, kind, covered = p.ctr, KindCounter, sc.Tree || sc.MAC
			if sc.Encryption == EncScattered {
				kind = KindSMap
			}
		case destMACFill:
			c, kind = p.mac, KindMAC
		}
		if in := p.gpu.inj; in != nil {
			p.injectMeta(in, d.addr, covered)
		}
		if pr := p.gpu.probe; pr != nil {
			p.recordMetaSpan(pr, d, kind, now)
		}
		fill := c.Fill(d.addr, d.bypass, d.write)
		// fill.Tokens is cache scratch, valid only until the next
		// Access on c, and the writeback's parent update reaches c
		// itself when the metadata cache is unified: copy the tokens
		// out first. The writeback still goes first, which keeps the
		// DRAM enqueue order (woken EncScattered reads issue shares).
		p.wake = append(p.wake[:0], fill.Tokens...)
		if fill.Writeback != nil {
			p.handleMetaWriteback(fill.Writeback, now)
		}
		p.wakeWaiters(d, now) // tree lines have none
		if sc.Tree {
			// Authenticate the line: continue the verification walk
			// from its parent.
			p.treeAccess(d.addr, false, now)
		}
	}
}

// wakeWaiters releases the reads waiting on a metadata line that just
// arrived: the MSHR's merged tokens, which dispatch has copied into
// p.wake, plus the fetch's own read (a bypassing or key fetch). A MAC
// line completes the reads' MAC gate; any other line (counter, share
// map, page key) their counter gate.
func (p *partition) wakeWaiters(d dest, now uint64) {
	if d.readID != 0 {
		p.wake = append(p.wake, d.readID)
	}
	for _, tok := range p.wake {
		if tok == 0 {
			continue // a write or walk access: no waiting read
		}
		rs, ok := p.reads[tok]
		if !ok {
			continue
		}
		switch {
		case d.kind == destMACFill:
			rs.macDone, rs.macReady = true, now
		case p.cfg.Secure.Encryption == EncScattered:
			// The placement just became known: release the share
			// fan-out (the reply waits on the shares, not here).
			rs.ctrDone, rs.ctrReady = true, now
			p.issueShares(rs, now)
			continue
		default:
			rs.ctrDone, rs.ctrReady = true, now
		}
		p.maybeReply(rs, now)
	}
}
