package p3

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p3/internal/erasure"
)

// ErasureSecretStore stores each sealed secret as a Reed-Solomon coded
// stripe across its child shards: k data shares plus n-k parity shares,
// placed on n distinct ring shards, so any k surviving shares reconstruct
// the blob byte-identically. Replication is the same store with k = 1: the
// systematic code's one parity row is all ones, so every share of a 1-of-r
// stripe is a full copy (NewShardedSecretStore builds that layout). The
// default 4-of-6 survives two shard deaths at 1.5× storage, where three
// replicas pay 3×.
//
// Every quorum follows from (k, n):
//
//   - Writes encode and store all n shares concurrently and succeed once k
//     shares are durable; shares that miss a down shard are parked locally
//     (hinted handoff) and delivered when the shard revives.
//   - Deletes write epoch-versioned tombstones over the n share slots and
//     succeed once min(k, n-k+1) are durable, so a shard that slept through
//     a delete cannot resurrect the secret.
//   - Reads fan out to all n slots and return the newest epoch holding k
//     shares once n-k+1 slots have answered. For n < 2k that is the first k
//     matching shares (a dead or slow shard degrades the read into a
//     reconstruction, never a failure); for k = 1 it is every replica's
//     answer, and the read repairs the replicas holding an older record,
//     nothing, or garbage (read-repair).
//   - A background scrubber (see StartRepair/ScrubOnce) walks share
//     inventories, detects missing or bit-rotten shares by checksum, and
//     re-encodes them onto their home shards — proactive repair, so a dying
//     shard decays loudly and briefly instead of silently until read.
//   - Rebalance moves shares onto a new shard set through the same scrub
//     machinery when shards join or leave the ring permanently.
//
// Every share is self-describing (object ID, epoch, scheme, index,
// CRC-32C — see internal/erasure), which is what makes shard-local
// inventory walks and cross-shard repair safe.
type ErasureSecretStore struct {
	mu     sync.RWMutex // guards shards/ring/counters across Rebalance
	shards []SecretStore
	ring   hashRing

	k, n   int
	epochs epochSource
	hints  *hintLog

	counters []shardCounters
	repairC  repairCounters

	inflightMu sync.Mutex
	inflight   map[string]*objectWriteLock // objects with a write in progress; scrub skips them, writers queue

	scrubMu       sync.Mutex // serializes scrub/rebalance passes
	scrubInterval time.Duration
	stopScrub     chan struct{}
	scrubDone     chan struct{}
	startOnce     sync.Once
	stopOnce      sync.Once
}

// DefaultErasureK and DefaultErasureN are the default coding scheme: 4 data
// + 2 parity shares. Any 2 of 6 shards can die with zero data loss, at
// 1.5× storage — the 3-replica durability point at half the bytes.
const (
	DefaultErasureK = 4
	DefaultErasureN = 6
)

// hintBytes bounds the in-memory hinted-handoff log. When it is full,
// further shares for down shards are dropped (counted in
// RepairStats.HintsDropped) and the scrubber restores redundancy instead.
const hintBytes = 64 << 20

// ErasureOption configures an ErasureSecretStore.
type ErasureOption func(*ErasureSecretStore)

// WithErasureScheme sets the coding scheme: k data shares (all needed to
// reconstruct) out of n total, with n at most the shard count. It requires
// k = 1 (replication: n full copies) or k < n < 2k. The n < 2k bound is
// what lets a read return on the first k matching shares: at most one
// epoch can ever hold k of the n share slots, so those k cannot belong to
// a write that a successful overwrite already superseded. With k = 1 many
// epochs can each hold a slot, so reads wait for every slot instead.
// Schemes that want to survive more failures should raise k and n together
// (8-of-12 has the same 1.5x overhead and 4-failure tolerance).
func WithErasureScheme(k, n int) ErasureOption {
	return func(s *ErasureSecretStore) { s.k, s.n = k, n }
}

// WithShardReplicas stores each blob as r full copies on r distinct shards:
// the 1-of-r scheme, WithErasureScheme(1, r).
func WithShardReplicas(r int) ErasureOption { return WithErasureScheme(1, r) }

// NewShardedSecretStore builds the replicated layout: one copy of each blob
// (or r with WithShardReplicas) spread over the shards by consistent
// hashing.
func NewShardedSecretStore(shards []SecretStore, opts ...ErasureOption) (*ErasureSecretStore, error) {
	return NewErasureSecretStore(shards, slices.Concat([]ErasureOption{WithShardReplicas(1)}, opts)...)
}

// WithScrubInterval starts the background repair daemon with the given
// cycle period once StartRepair is called (p3proxy does this at boot).
// Zero or negative leaves repair manual via ScrubOnce.
func WithScrubInterval(d time.Duration) ErasureOption {
	return func(s *ErasureSecretStore) { s.scrubInterval = d }
}

// NewErasureSecretStore builds a store striping over the given child
// shards with the default 4-of-6 scheme (see WithErasureScheme). The shard
// count must be at least n so the n shares land on distinct shards.
func NewErasureSecretStore(shards []SecretStore, opts ...ErasureOption) (*ErasureSecretStore, error) {
	s := &ErasureSecretStore{
		shards:   shards,
		k:        DefaultErasureK,
		n:        DefaultErasureN,
		hints:    &hintLog{entries: map[hintKey][]byte{}},
		inflight: map[string]*objectWriteLock{},
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.n > erasure.MaxShares || !(s.k == 1 && s.n >= 1 || s.k < s.n && s.n < 2*s.k) {
		return nil, fmt.Errorf("p3: erasure scheme k=%d n=%d invalid: need k = 1 <= n, or k < n < 2k, with n <= %d (see WithErasureScheme)",
			s.k, s.n, erasure.MaxShares)
	}
	if len(shards) < s.n {
		return nil, fmt.Errorf("p3: erasure scheme %d-of-%d needs at least %d shards, have %d",
			s.k, s.n, s.n, len(shards))
	}
	s.ring = newHashRing(len(shards))
	s.counters = make([]shardCounters, len(shards))
	s.startRepairDaemon()
	return s, nil
}

// Shards returns the number of child stores.
func (s *ErasureSecretStore) Shards() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.shards)
}

// Scheme returns the store's (k, n) coding parameters.
func (s *ErasureSecretStore) Scheme() (k, n int) { return s.k, s.n }

// --- Share keys --------------------------------------------------------

// shareKeyPrefix namespaces erasure shares in the child stores, so a shard
// directory shared with other stores stays unambiguous.
const shareKeyPrefix = "es1-"

// shareKey names object id's share index on whatever shard holds it. The ID
// is base64url-encoded so the key parses unambiguously regardless of what
// bytes the PSP put in the ID.
func shareKey(id string, index int) string {
	return shareKeyPrefix + base64.RawURLEncoding.EncodeToString([]byte(id)) + "-" + strconv.Itoa(index)
}

// parseShareKey inverts shareKey.
func parseShareKey(key string) (id string, index int, ok bool) {
	rest, found := strings.CutPrefix(key, shareKeyPrefix)
	if !found {
		return "", 0, false
	}
	dash := strings.LastIndexByte(rest, '-')
	if dash < 0 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(rest[dash+1:])
	if err != nil || idx < 0 {
		return "", 0, false
	}
	raw, err := base64.RawURLEncoding.DecodeString(rest[:dash])
	if err != nil {
		return "", 0, false
	}
	return string(raw), idx, true
}

// --- Stats -------------------------------------------------------------

// shardCounters is one shard's cumulative slot-operation counts, kept with
// atomics so the serving path never takes a lock for accounting.
type shardCounters struct {
	reads        atomic.Uint64
	readFailures atomic.Uint64
	puts         atomic.Uint64
	putFailures  atomic.Uint64
	repairs      atomic.Uint64
}

// ShardStats is a point-in-time snapshot of one shard's traffic. Its
// tagged fields are the p3_shard_*_total{shard="i"} series a serving stack
// exports per shard through metrics.Export (ARCHITECTURE.md § Observability).
type ShardStats struct {
	// Reads counts slot fetches routed to this shard (each GetSecret fans
	// one fetch per share slot).
	Reads uint64 `json:"reads" metric:"counter" help:"Slot fetches routed to this shard."`
	// ReadFailures counts slot fetches this shard failed or answered "not
	// found" — the degraded-read signal.
	ReadFailures uint64 `json:"read_failures" metric:"counter" help:"Slot fetches this shard failed or missed (degraded reads)."`
	// Puts counts share and tombstone writes routed to this shard, repairs
	// included.
	Puts uint64 `json:"puts" metric:"counter" help:"Share and tombstone writes routed to this shard."`
	// PutFailures counts writes this shard failed (each failed upload or
	// delete write parks a hint when the hint log has room).
	PutFailures uint64 `json:"put_failures" metric:"counter" help:"Writes this shard failed."`
	// Repairs counts shares read-repair, the scrubber or the hint drain
	// restored onto this shard.
	Repairs uint64 `json:"repairs" metric:"counter" help:"Shares restored onto this shard by read-repair, scrub or hint drain."`
}

// ShardStats returns a snapshot of every shard's counters, indexed like
// the shard list the store was built with.
func (s *ErasureSecretStore) ShardStats() []ShardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ShardStats, len(s.counters))
	for i := range s.counters {
		c := &s.counters[i]
		out[i] = ShardStats{
			Reads:        c.reads.Load(),
			ReadFailures: c.readFailures.Load(),
			Puts:         c.puts.Load(),
			PutFailures:  c.putFailures.Load(),
			Repairs:      c.repairs.Load(),
		}
	}
	return out
}

// repairCounters is the store-level self-healing accounting.
type repairCounters struct {
	scrubCycles          atomic.Uint64
	objectsScanned       atomic.Uint64
	sharesChecked        atomic.Uint64
	sharesMissing        atomic.Uint64
	sharesCorrupt        atomic.Uint64
	sharesRepaired       atomic.Uint64
	sharesRemoved        atomic.Uint64
	tombstonesPropagated atomic.Uint64
	lostObjects          atomic.Uint64
	degradedReads        atomic.Uint64
	hintsParked          atomic.Uint64
	hintsDropped         atomic.Uint64
	hintsDrained         atomic.Uint64
}

// RepairStats is a point-in-time snapshot of the store's self-healing
// activity. Its tagged fields are the store-wide p3_repair_*_total series
// a serving stack exports through metrics.Export (ARCHITECTURE.md
// § Observability).
type RepairStats struct {
	// ScrubCycles counts completed scrub passes (manual and daemon alike).
	ScrubCycles uint64 `json:"scrub_cycles" metric:"counter" help:"Completed scrub passes."`
	// ObjectsScanned counts objects examined across all scrub passes and
	// read-repairs.
	ObjectsScanned uint64 `json:"objects_scanned" metric:"counter" help:"Objects examined by scrub passes."`
	// SharesChecked counts share slots verified healthy during scrubs.
	SharesChecked uint64 `json:"shares_checked" metric:"counter" help:"Share slots verified healthy."`
	// SharesMissing counts share slots found empty on their home shard.
	SharesMissing uint64 `json:"shares_missing" metric:"counter" help:"Share slots found empty on their home shard."`
	// SharesCorrupt counts shares whose checksum failed — bit rot caught
	// before it cost a read.
	SharesCorrupt uint64 `json:"shares_corrupt" metric:"counter" help:"Shares failing their checksum (bit rot)."`
	// SharesRepaired counts shares re-encoded and written back to their
	// home shard by the scrubber.
	SharesRepaired uint64 `json:"shares_repaired" metric:"counter" help:"Shares re-encoded onto their home shard."`
	// SharesRemoved counts stale or misplaced share copies cleaned up
	// (after a rebalance, or superseded epochs).
	SharesRemoved uint64 `json:"shares_removed" metric:"counter" help:"Stale or misplaced share copies cleaned up."`
	// TombstonesPropagated counts deletion markers the scrubber copied over
	// stale shares so a revived shard cannot resurrect a deleted secret.
	TombstonesPropagated uint64 `json:"tombstones_propagated" metric:"counter" help:"Tombstones copied over stale shares."`
	// LostObjects counts objects a scrub found with fewer than k intact
	// shares and no tombstone — genuine data loss, the alarm metric.
	LostObjects uint64 `json:"lost_objects" metric:"counter" help:"Objects found unrecoverable (alarm metric)."`
	// DegradedReads counts GetSecret calls served without share 0's
	// stripe: a parity reconstruction, or a non-preferred replica.
	DegradedReads uint64 `json:"degraded_reads" metric:"counter" help:"Reads served without share 0 (parity or a non-preferred replica)."`
	// HintsParked counts shares parked locally because their home shard was
	// down at write time (hinted handoff).
	HintsParked uint64 `json:"hints_parked" metric:"counter" help:"Shares parked for down shards (hinted handoff)."`
	// HintsDropped counts shares that could not be parked because the hint
	// log was full; the scrubber restores that redundancy instead.
	HintsDropped uint64 `json:"hints_dropped" metric:"counter" help:"Shares dropped because the hint log was full."`
	// HintsDrained counts parked shares delivered to their revived home
	// shard.
	HintsDrained uint64 `json:"hints_drained" metric:"counter" help:"Parked shares delivered to revived shards."`
}

// RepairStats returns a snapshot of the self-healing counters.
func (s *ErasureSecretStore) RepairStats() RepairStats {
	c := &s.repairC
	return RepairStats{
		ScrubCycles:          c.scrubCycles.Load(),
		ObjectsScanned:       c.objectsScanned.Load(),
		SharesChecked:        c.sharesChecked.Load(),
		SharesMissing:        c.sharesMissing.Load(),
		SharesCorrupt:        c.sharesCorrupt.Load(),
		SharesRepaired:       c.sharesRepaired.Load(),
		SharesRemoved:        c.sharesRemoved.Load(),
		TombstonesPropagated: c.tombstonesPropagated.Load(),
		LostObjects:          c.lostObjects.Load(),
		DegradedReads:        c.degradedReads.Load(),
		HintsParked:          c.hintsParked.Load(),
		HintsDropped:         c.hintsDropped.Load(),
		HintsDrained:         c.hintsDrained.Load(),
	}
}

// --- Hinted handoff ----------------------------------------------------

// hintKey addresses one parked share: the shard it belongs on and the
// share key it should be stored under.
type hintKey struct {
	shard int
	key   string
}

// hintLog parks shares whose home shard rejected a write, in memory and
// bytes-bounded, until a drain delivers them. Parked shares also serve
// reads: a GetSecret that cannot reach a shard consults the log, so a
// write-then-read during an outage still sees full redundancy.
type hintLog struct {
	mu      sync.Mutex
	bytes   int64
	entries map[hintKey][]byte
}

// park stores (or replaces) a parked share. Reports false when the log is
// full.
func (h *hintLog) park(shard int, key string, rec []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := hintKey{shard: shard, key: key}
	old := int64(len(h.entries[k]))
	if h.bytes-old+int64(len(rec)) > hintBytes {
		return false
	}
	h.entries[k] = rec
	h.bytes += int64(len(rec)) - old
	return true
}

// lookup returns the parked record for (shard, key), if any.
func (h *hintLog) lookup(shard int, key string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec, ok := h.entries[hintKey{shard: shard, key: key}]
	return rec, ok
}

// snapshot returns the current parked entries (for draining without
// holding the lock across network writes).
func (h *hintLog) snapshot() map[hintKey][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[hintKey][]byte, len(h.entries))
	for k, v := range h.entries {
		out[k] = v
	}
	return out
}

// removeSuperseded drops a parked record for (shard, key) when a write of
// a newer epoch just landed on that slot, so a stale hint can never stand
// in for the slot's real contents on a later read.
func (h *hintLog) removeSuperseded(shard int, key string, epoch uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := hintKey{shard: shard, key: key}
	if rec, ok := h.entries[k]; ok && recordEpochOf(rec) < epoch {
		h.bytes -= int64(len(rec))
		delete(h.entries, k)
	}
}

// remove drops a delivered (or obsolete) hint.
func (h *hintLog) remove(k hintKey) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rec, ok := h.entries[k]; ok {
		h.bytes -= int64(len(rec))
		delete(h.entries, k)
	}
}

// clear empties the log (used by Rebalance: shard indices change meaning).
func (h *hintLog) clear() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = map[hintKey][]byte{}
	h.bytes = 0
}

// --- SecretStore implementation ----------------------------------------

// storeLayout is an atomic snapshot of the store's shard set, taken so a
// concurrent Rebalance swapping the slices cannot leave an operation
// indexing a counters slice that no longer matches its shard list.
type storeLayout struct {
	shards   []SecretStore
	counters []shardCounters
	ring     hashRing
	k, n     int
}

// layout snapshots the current shard set.
func (s *ErasureSecretStore) layout() storeLayout {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return storeLayout{shards: s.shards, counters: s.counters, ring: s.ring, k: s.k, n: s.n}
}

// placementFor snapshots the store's current layout and the n home shards
// for one object.
func (s *ErasureSecretStore) placementFor(id string) (lay storeLayout, placement []int) {
	lay = s.layout()
	return lay, lay.ring.placements(id, lay.n)
}

// objectWriteLock serializes writers for one object id; refs counts the
// holders and waiters so the map entry can be dropped when the last one
// leaves.
type objectWriteLock struct {
	mu   sync.Mutex
	refs int
}

// beginWrite marks an object as having a write (put, delete, read-repair or
// legacy migration) in flight —
// so a concurrent scrub pass does not mistake its half-written stripe for
// damage, or worse, for data loss — and serializes writers for the same
// id. Serialization is load-bearing: two concurrent epochs racing slot by
// slot across the same n slots can each keep fewer than k shares while
// both writers count >= k per-slot successes — two acknowledged writes
// adding up to an unreadable object. With writers queued per id, the
// later epoch overwrites every slot it reaches and last-writer-wins holds.
func (s *ErasureSecretStore) beginWrite(id string) {
	s.inflightMu.Lock()
	l := s.inflight[id]
	if l == nil {
		l = &objectWriteLock{}
		s.inflight[id] = l
	}
	l.refs++
	s.inflightMu.Unlock()
	l.mu.Lock()
}

func (s *ErasureSecretStore) endWrite(id string) {
	s.inflightMu.Lock()
	l := s.inflight[id]
	l.mu.Unlock()
	if l.refs--; l.refs <= 0 {
		delete(s.inflight, id)
	}
	s.inflightMu.Unlock()
}

func (s *ErasureSecretStore) writeInFlight(id string) bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	return s.inflight[id] != nil
}

// PutSecret implements SecretStore: the blob is encoded into n shares
// written to their n home shards concurrently. The write succeeds once at
// least k shares are durable (enough to reconstruct); shares that missed a
// down shard are parked as hints and delivered when it revives.
func (s *ErasureSecretStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	s.beginWrite(id)
	defer s.endWrite(id)
	lay, placement := s.placementFor(id)
	epoch := s.epochs.next()
	shs, err := erasure.Encode(id, epoch, blob, lay.k, lay.n)
	if err != nil {
		return fmt.Errorf("p3: erasure store encoding %q: %w", id, err)
	}
	return s.writeSlots(ctx, lay, placement, id, epoch, lay.k, "shares stored",
		func(i int) []byte { return shs[i].Marshal() })
}

// DeleteSecret implements SecretDeleter by writing epoch-versioned
// tombstones over every share slot concurrently. The delete succeeds once
// min(k, n-k+1) tombstones are durable. For n < 2k that is n-k+1, which
// leaves at most k-1 slots holding pre-delete shares, so no first-k-wins
// read can assemble them and resurrect the secret, however slowly the
// tombstoned shards answer. For k = 1 it is one tombstone, which outvotes
// every older copy because 1-of-r reads hear every replica. Within the
// scheme's fault tolerance the quorum is always reachable. Slots that
// missed the quorum park tombstone hints, and read-repair and the scrubber
// propagate the marker to them. Shards need not implement SecretDeleter.
func (s *ErasureSecretStore) DeleteSecret(ctx context.Context, id string) error {
	s.beginWrite(id)
	defer s.endWrite(id)
	lay, placement := s.placementFor(id)
	epoch := s.epochs.next()
	rec := encodeRecord(recordTombstone, epoch, nil)
	return s.writeSlots(ctx, lay, placement, id, epoch, min(lay.k, lay.n-lay.k+1), "tombstones durable",
		func(int) []byte { return rec })
}

// writeSlots writes rec(i) to share slot i on its home shard, all n slots
// concurrently, and fails unless at least quorum writes land. A slot whose
// shard refuses the write parks the record as a hint; a slot that takes it
// drops any hint an older write parked there, which must not stand in for
// the slot on a later read.
func (s *ErasureSecretStore) writeSlots(ctx context.Context, lay storeLayout, placement []int, id string,
	epoch uint64, quorum int, what string, rec func(i int) []byte) error {
	errs := make([]error, lay.n)
	var wg sync.WaitGroup
	for i := 0; i < lay.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shard, key, r := placement[i], shareKey(id, i), rec(i)
			lay.counters[shard].puts.Add(1)
			if err := lay.shards[shard].PutSecret(ctx, key, r); err != nil {
				lay.counters[shard].putFailures.Add(1)
				errs[i] = fmt.Errorf("shard %d slot %d: %w", shard, i, err)
				if s.hints.park(shard, key, r) {
					s.repairC.hintsParked.Add(1)
				} else {
					s.repairC.hintsDropped.Add(1)
				}
			} else {
				s.hints.removeSuperseded(shard, key, epoch)
			}
		}(i)
	}
	wg.Wait()
	durable := 0
	for _, e := range errs {
		if e == nil {
			durable++
		}
	}
	if durable < quorum {
		return fmt.Errorf("p3: erasure store: only %d/%d %s for %q, need %d: %w",
			durable, lay.n, what, id, quorum, errors.Join(errs...))
	}
	return nil
}

// shareFetch is one share slot's answer during the GetSecret fan-out.
type shareFetch struct {
	index     int
	share     erasure.Share
	valid     bool
	tombEpoch uint64
	tomb      bool
	err       error
	missing   bool
}

// GetSecret implements SecretStore with a concurrent fan-out over all n
// share slots. Once n-k+1 slots have answered, it returns the newest epoch
// holding k valid shares, unless a tombstone at or above that epoch has
// been seen; the remaining fetches are cancelled. A missing data share
// degrades the read into a parity reconstruction rather than an error, and
// parked hints stand in for shares on unreachable shards.
//
// Waiting for n-k+1 answers is what makes the early return safe. For
// n < 2k it is implied by k matching shares: a superseded epoch keeps at
// most n-k < k slots after a successful overwrite, and a successful delete
// leaves at most k-1 share slots behind, so any k same-epoch shares are
// the committed newest write. For k = 1 it is every slot, because a write
// or delete acknowledged by one replica may have reached only that one.
//
// A 1-of-r read, which always hears every slot, repairs the slots that
// answered with an older record, nothing, or garbage before it returns
// (see repairObject). An n < 2k read hears every slot only when the k-th
// matching share happens to come last, so it leaves repair to the
// scrubber rather than repairing by answer order.
func (s *ErasureSecretStore) GetSecret(ctx context.Context, id string) ([]byte, error) {
	lay, placement := s.placementFor(id)
	k, n := lay.k, lay.n
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan shareFetch, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			shard := placement[i]
			key := shareKey(id, i)
			lay.counters[shard].reads.Add(1)
			raw, err := lay.shards[shard].GetSecret(fctx, key)
			if err != nil {
				lay.counters[shard].readFailures.Add(1)
				// A parked hint is as good as the shard's own copy.
				if rec, ok := s.hints.lookup(shard, key); ok {
					raw, err = rec, nil
				} else {
					ch <- shareFetch{index: i, err: err, missing: IsNotFound(err)}
					return
				}
			}
			ch <- parseShareBytes(i, id, raw)
		}(i)
	}

	heard := make([]shareFetch, 0, n)
	groups := map[uint64][]erasure.Share{}
	var tombMax uint64
	haveTomb := false
	var maxShareEpoch uint64
	var errs []error
	missing, invalid := 0, 0
	for len(heard) < n {
		var f shareFetch
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case f = <-ch:
		}
		heard = append(heard, f)
		switch {
		case f.tomb:
			haveTomb = true
			tombMax = max(tombMax, f.tombEpoch)
		case f.valid:
			e := f.share.Epoch
			maxShareEpoch = max(maxShareEpoch, e)
			groups[e] = append(groups[e], f.share)
		case f.err != nil:
			if f.missing {
				missing++
			} else {
				errs = append(errs, fmt.Errorf("share %d (shard %d): %w", f.index, placement[f.index], f.err))
			}
		default:
			invalid++
		}
		if len(heard) < n-k+1 {
			continue
		}
		e, ok := newestComplete(groups)
		if !ok || (haveTomb && e <= tombMax) {
			continue
		}
		// Lowest indices first: data shares skip the field arithmetic, and
		// a replica set serves from its preferred copy.
		g := groups[e]
		slices.SortFunc(g, func(a, b erasure.Share) int { return a.Index - b.Index })
		blob, err := erasure.Reconstruct(g)
		if err != nil {
			// Inconsistent group (should not happen); keep collecting.
			errs = append(errs, err)
			delete(groups, e)
			continue
		}
		cancel()
		if g[g[0].K-1].Index >= g[0].K {
			s.repairC.degradedReads.Add(1)
		}
		if k == 1 && holdsStale(heard, e, true) {
			s.repairObject(ctx, lay, id)
		}
		return blob, nil
	}
	// All n answered without k consistent shares of a live epoch.
	if haveTomb && tombMax >= maxShareEpoch {
		if k == 1 && holdsStale(heard, tombMax, false) {
			s.repairObject(ctx, lay, id)
		}
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	if missing == n {
		if k == 1 {
			return s.readLegacy(ctx, lay, placement, id)
		}
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	if len(groups) == 0 && len(errs) == 0 && invalid == 0 {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	return nil, fmt.Errorf("p3: erasure store: cannot reconstruct %q (need %d shares, %d missing, %d invalid): %w",
		id, k, missing, invalid, errors.Join(errs...))
}

// newestComplete returns the newest epoch whose group holds enough shares
// to reconstruct.
func newestComplete(groups map[uint64][]erasure.Share) (epoch uint64, ok bool) {
	for e, g := range groups {
		if len(g) >= g[0].K && (!ok || e > epoch) {
			epoch, ok = e, true
		}
	}
	return epoch, ok
}

// holdsStale reports whether a slot that answered holds something older
// than the winning epoch: garbage, an older share or tombstone, or — when
// a blob won — nothing at all. Unreachable slots are the scrubber's.
func holdsStale(heard []shareFetch, win uint64, blobWon bool) bool {
	for _, f := range heard {
		switch {
		case f.tomb:
			if f.tombEpoch < win {
				return true
			}
		case f.valid:
			if f.share.Epoch < win {
				return true
			}
		case f.missing:
			if blobWon {
				return true
			}
		case f.err == nil:
			return true
		}
	}
	return false
}

// parseShareBytes classifies raw bytes read from a share slot: a tombstone
// record, a valid share for this object, or garbage.
func parseShareBytes(index int, id string, raw []byte) shareFetch {
	if kind, epoch, _ := decodeRecord(raw); kind == recordTombstone {
		return shareFetch{index: index, tomb: true, tombEpoch: epoch}
	}
	sh, err := erasure.ParseShare(raw)
	if err != nil || sh.ID != id || sh.Index != index {
		return shareFetch{index: index}
	}
	return shareFetch{index: index, share: sh, valid: true}
}

// readLegacy serves an object the pre-share replicated layout wrote: an
// epoch-versioned record, or before that the raw blob, stored under the
// bare id on the id's ring placements — the same shards, in the same
// order, as its share slots. It runs only for 1-of-r stores and only once
// every slot has answered NotFound, and it rewrites the newest record
// (blob or tombstone) into the slots that are still empty, so each legacy
// object pays the extra fan-out once. It holds the object's write lock, so
// a write that lands meanwhile is never overwritten.
func (s *ErasureSecretStore) readLegacy(ctx context.Context, lay storeLayout, placement []int, id string) ([]byte, error) {
	s.beginWrite(id)
	defer s.endWrite(id)
	found := false
	var kind recordKind
	var epoch uint64
	var payload []byte
	for _, shard := range placement {
		raw, err := lay.shards[shard].GetSecret(ctx, id)
		if err != nil {
			continue
		}
		// The newest record wins; on an epoch tie, the tombstone.
		kd, e, p := decodeRecord(raw)
		if !found || e > epoch || e == epoch && kd == recordTombstone {
			found, kind, epoch, payload = true, kd, e, p
		}
	}
	if !found {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	rec := encodeRecord(recordTombstone, epoch, nil)
	var shs []erasure.Share
	if kind == recordBlob {
		var err error
		if shs, err = erasure.Encode(id, epoch, payload, lay.k, lay.n); err != nil {
			return nil, err
		}
	}
	for i, shard := range placement {
		key := shareKey(id, i)
		if _, err := lay.shards[shard].GetSecret(ctx, key); !IsNotFound(err) {
			continue // a write landed meanwhile, or the shard is down
		}
		if shs != nil {
			rec = shs[i].Marshal()
		}
		lay.counters[shard].puts.Add(1)
		if err := lay.shards[shard].PutSecret(ctx, key, rec); err != nil {
			lay.counters[shard].putFailures.Add(1)
		} else {
			lay.counters[shard].repairs.Add(1)
		}
	}
	if kind == recordTombstone {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	return payload, nil
}
