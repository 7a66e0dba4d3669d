package p3

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
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
// the blob byte-identically. It is the RADON-shaped successor to plain
// N-way replication (ShardedSecretStore): the same loss tolerance as 3
// replicas at roughly n/k× storage (1.5× for the default 4-of-6 scheme)
// instead of 3×.
//
//   - Reads fan out to all n share locations concurrently and return as
//     soon as ANY k valid shares of one write epoch arrive — the healthy
//     path reassembles data shares with no field arithmetic, and a dead or
//     slow shard degrades the read into a reconstruction, never a failure.
//   - Writes encode and store all n shares concurrently and succeed once k
//     shares are durable; shares that miss a down shard are parked locally
//     (hinted handoff) and delivered when the shard revives.
//   - A background scrubber (see StartRepair/ScrubOnce) walks share
//     inventories, detects missing or bit-rotten shares by checksum, and
//     re-encodes them onto their home shards — proactive repair, so a dying
//     shard decays loudly and briefly instead of silently until read.
//   - Deletions write epoch-versioned tombstones over the share slots
//     (shared machinery with ShardedSecretStore), so a shard that slept
//     through a delete cannot resurrect the secret.
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

	counters []erasureShardCounters
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
// reconstruct) out of n total. Requires 1 <= k < n < 2k, with n at most
// the shard count. The n < 2k bound (more data than parity shares) is a
// correctness requirement, not a tuning preference: it guarantees at most
// one epoch can ever hold k of the n share slots, so a read that returns
// on the first k matching shares cannot assemble a stale epoch that a
// successful overwrite already superseded. Schemes that want to survive
// more failures than that should raise k and n together (8-of-12 has the
// same 1.5x overhead and 4-failure tolerance); pure mirroring lives in
// ShardedSecretStore.
func WithErasureScheme(k, n int) ErasureOption {
	return func(s *ErasureSecretStore) { s.k, s.n = k, n }
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
	if s.k < 1 || s.n <= s.k || s.n > erasure.MaxShares {
		return nil, fmt.Errorf("p3: erasure scheme k=%d n=%d invalid (need 1 <= k < n <= %d)",
			s.k, s.n, erasure.MaxShares)
	}
	if s.n >= 2*s.k {
		return nil, fmt.Errorf("p3: erasure scheme k=%d n=%d invalid: need n < 2k so no two epochs can both hold k slots (see WithErasureScheme)",
			s.k, s.n)
	}
	if len(shards) < s.n {
		return nil, fmt.Errorf("p3: erasure scheme %d-of-%d needs at least %d shards, have %d",
			s.k, s.n, s.n, len(shards))
	}
	s.ring = newHashRing(len(shards))
	s.counters = make([]erasureShardCounters, len(shards))
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

// erasureShardCounters is one shard's cumulative share-operation counts.
type erasureShardCounters struct {
	shareReads        atomic.Uint64
	shareReadFailures atomic.Uint64
	sharePuts         atomic.Uint64
	sharePutFailures  atomic.Uint64
	shareRepairs      atomic.Uint64
}

// ErasureShardStats is a point-in-time snapshot of one shard's share
// traffic, exposed per shard on /metrics as p3_erasure_*_total{shard="i"}.
type ErasureShardStats struct {
	// ShareReads counts share fetches routed to this shard (each GetSecret
	// fans one fetch per share slot).
	ShareReads uint64 `json:"share_reads"`
	// ShareReadFailures counts share fetches this shard failed or answered
	// "not found" — the degraded-read signal.
	ShareReadFailures uint64 `json:"share_read_failures"`
	// SharePuts counts share (and tombstone) writes routed to this shard.
	SharePuts uint64 `json:"share_puts"`
	// SharePutFailures counts share writes this shard failed (each parks a
	// hint when the hint log has room).
	SharePutFailures uint64 `json:"share_put_failures"`
	// ShareRepairs counts shares the scrubber or hint drain restored onto
	// this shard.
	ShareRepairs uint64 `json:"share_repairs"`
}

// ErasureShardStats returns a snapshot of every shard's counters, indexed
// like the shard list the store was built with.
func (s *ErasureSecretStore) ErasureShardStats() []ErasureShardStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ErasureShardStats, len(s.counters))
	for i := range s.counters {
		c := &s.counters[i]
		out[i] = ErasureShardStats{
			ShareReads:        c.shareReads.Load(),
			ShareReadFailures: c.shareReadFailures.Load(),
			SharePuts:         c.sharePuts.Load(),
			SharePutFailures:  c.sharePutFailures.Load(),
			ShareRepairs:      c.shareRepairs.Load(),
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
// activity, exposed on /metrics as p3_repair_* (naming scheme in
// ARCHITECTURE.md).
type RepairStats struct {
	// ScrubCycles counts completed scrub passes (manual and daemon alike).
	ScrubCycles uint64 `json:"scrub_cycles"`
	// ObjectsScanned counts objects examined across all scrub passes.
	ObjectsScanned uint64 `json:"objects_scanned"`
	// SharesChecked counts share slots verified healthy during scrubs.
	SharesChecked uint64 `json:"shares_checked"`
	// SharesMissing counts share slots found empty on their home shard.
	SharesMissing uint64 `json:"shares_missing"`
	// SharesCorrupt counts shares whose checksum failed — bit rot caught
	// before it cost a read.
	SharesCorrupt uint64 `json:"shares_corrupt"`
	// SharesRepaired counts shares re-encoded and written back to their
	// home shard by the scrubber.
	SharesRepaired uint64 `json:"shares_repaired"`
	// SharesRemoved counts stale or misplaced share copies cleaned up
	// (after a rebalance, or superseded epochs).
	SharesRemoved uint64 `json:"shares_removed"`
	// TombstonesPropagated counts deletion markers the scrubber copied over
	// stale shares so a revived shard cannot resurrect a deleted secret.
	TombstonesPropagated uint64 `json:"tombstones_propagated"`
	// LostObjects counts objects a scrub found with fewer than k intact
	// shares and no tombstone — genuine data loss, the alarm metric.
	LostObjects uint64 `json:"lost_objects"`
	// DegradedReads counts GetSecret calls that needed parity
	// reconstruction because a data share was unavailable.
	DegradedReads uint64 `json:"degraded_reads"`
	// HintsParked counts shares parked locally because their home shard was
	// down at write time (hinted handoff).
	HintsParked uint64 `json:"hints_parked"`
	// HintsDropped counts shares that could not be parked because the hint
	// log was full; the scrubber restores that redundancy instead.
	HintsDropped uint64 `json:"hints_dropped"`
	// HintsDrained counts parked shares delivered to their revived home
	// shard.
	HintsDrained uint64 `json:"hints_drained"`
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
	counters []erasureShardCounters
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

// beginWrite marks an object as having a write (put or delete) in flight —
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

// PutSecret implements SecretStore: the blob is encoded into k+m shares
// written to their n home shards concurrently. The write succeeds once at
// least k shares are durable (enough to reconstruct); shares that missed a
// down shard are parked as hints and delivered when it revives.
func (s *ErasureSecretStore) PutSecret(ctx context.Context, id string, blob []byte) error {
	s.beginWrite(id)
	defer s.endWrite(id)
	lay, placement := s.placementFor(id)
	k, n := lay.k, lay.n
	epoch := s.epochs.next()
	shs, err := erasure.Encode(id, epoch, blob, k, n)
	if err != nil {
		return fmt.Errorf("p3: erasure store encoding %q: %w", id, err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shard := placement[i]
			key := shareKey(id, i)
			rec := shs[i].Marshal()
			lay.counters[shard].sharePuts.Add(1)
			if err := lay.shards[shard].PutSecret(ctx, key, rec); err != nil {
				lay.counters[shard].sharePutFailures.Add(1)
				errs[i] = fmt.Errorf("shard %d share %d: %w", shard, i, err)
				if s.hints.park(shard, key, rec) {
					s.repairC.hintsParked.Add(1)
				} else {
					s.repairC.hintsDropped.Add(1)
				}
			} else {
				// The slot now holds this epoch; a hint parked by an older
				// write must not stand in for the slot on a later read.
				s.hints.removeSuperseded(shard, key, epoch)
			}
		}(i)
	}
	wg.Wait()
	stored := 0
	for _, e := range errs {
		if e == nil {
			stored++
		}
	}
	if stored < k {
		return fmt.Errorf("p3: erasure store: only %d/%d shares stored for %q, need %d: %w",
			stored, n, id, k, errors.Join(errs...))
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
// share slots, returning as soon as any k valid shares of one write epoch
// arrive (the remaining fetches are cancelled). A missing data share
// degrades the read into a parity reconstruction rather than an error;
// parked hints stand in for shares on unreachable shards. Tombstones win
// over shares at or below their epoch.
//
// Returning on the first k matching shares without waiting for the
// stragglers is safe only because of two write-side invariants: the
// scheme bound n < 2k means a superseded epoch retains at most n-k < k
// slots after a successful overwrite, and the DeleteSecret quorum of
// n-k+1 tombstones leaves at most k-1 share slots behind a successful
// delete — so any k same-epoch shares are necessarily the committed
// newest write, and the slow shards can hold nothing that outranks them.
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
			lay.counters[shard].shareReads.Add(1)
			raw, err := lay.shards[shard].GetSecret(fctx, key)
			if err != nil {
				lay.counters[shard].shareReadFailures.Add(1)
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

	groups := map[uint64][]erasure.Share{}
	var tombMax uint64
	haveTomb := false
	var maxShareEpoch uint64
	var errs []error
	missing, invalid := 0, 0
	for received := 0; received < n; received++ {
		var f shareFetch
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case f = <-ch:
		}
		switch {
		case f.tomb:
			haveTomb = true
			tombMax = max(tombMax, f.tombEpoch)
		case f.valid:
			e := f.share.Epoch
			maxShareEpoch = max(maxShareEpoch, e)
			groups[e] = append(groups[e], f.share)
			if g := groups[e]; len(g) >= g[0].K && (!haveTomb || e > tombMax) {
				blob, err := erasure.Reconstruct(g)
				if err == nil {
					cancel()
					for _, sh := range g[:g[0].K] {
						if sh.Index >= sh.K {
							s.repairC.degradedReads.Add(1)
							break
						}
					}
					return blob, nil
				}
				// Inconsistent group (should not happen); keep collecting.
				errs = append(errs, err)
			}
		case f.err != nil:
			if f.missing {
				missing++
			} else {
				errs = append(errs, fmt.Errorf("share %d (shard %d): %w", f.index, placement[f.index], f.err))
			}
		default:
			invalid++
		}
	}
	// All n answered without k consistent shares of a live epoch.
	if haveTomb && tombMax >= maxShareEpoch {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	if missing == n {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	if len(groups) == 0 && len(errs) == 0 && invalid == 0 {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	return nil, fmt.Errorf("p3: erasure store: cannot reconstruct %q (need %d shares, %d missing, %d invalid): %w",
		id, k, missing, invalid, errors.Join(errs...))
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

// DeleteSecret implements SecretDeleter by writing epoch-versioned
// tombstones over every share slot concurrently. The delete succeeds once
// tombstones are durable on n-k+1 slots — a quorum chosen so at most k-1
// slots can still hold pre-delete shares, which (with the n < 2k scheme
// bound) means no read can ever assemble k stale shares and resurrect a
// secret whose DeleteSecret returned success, even if the tombstoned
// shards answer slowly. Slots that missed the quorum park tombstone hints
// and the scrubber propagates the marker to them. Within the scheme's
// fault tolerance the quorum is always reachable: with at most n-k shards
// down, at least k >= n-k+1 remain up. Shards need not implement
// SecretDeleter.
func (s *ErasureSecretStore) DeleteSecret(ctx context.Context, id string) error {
	s.beginWrite(id)
	defer s.endWrite(id)
	lay, placement := s.placementFor(id)
	n := lay.n
	epoch := s.epochs.next()
	rec := encodeRecord(recordTombstone, epoch, nil)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shard := placement[i]
			key := shareKey(id, i)
			lay.counters[shard].sharePuts.Add(1)
			if err := lay.shards[shard].PutSecret(ctx, key, rec); err != nil {
				lay.counters[shard].sharePutFailures.Add(1)
				errs[i] = fmt.Errorf("shard %d: %w", shard, err)
				if s.hints.park(shard, key, rec) {
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
	if quorum := n - lay.k + 1; durable < quorum {
		return fmt.Errorf("p3: erasure store: only %d/%d tombstones durable for %q, need %d: %w",
			durable, n, id, quorum, errors.Join(errs...))
	}
	return nil
}
