package p3

import (
	"context"
	"fmt"
	"sort"
	"time"

	"p3/internal/erasure"
)

// ScrubReport summarizes one scrub pass over the share inventories (the
// same numbers accumulate into RepairStats; the report is the per-pass
// view, for operators and tests).
type ScrubReport struct {
	// Objects is how many distinct objects the pass examined.
	Objects int `json:"objects"`
	// SharesChecked counts home share slots found healthy at the newest
	// recoverable epoch.
	SharesChecked int `json:"shares_checked"`
	// SharesMissing counts home slots found empty.
	SharesMissing int `json:"shares_missing"`
	// SharesCorrupt counts home slots holding bytes that failed the share
	// checksum or parse — bit rot caught before a read paid for it.
	SharesCorrupt int `json:"shares_corrupt"`
	// SharesRepaired counts shares re-encoded and written to their home
	// slots this pass.
	SharesRepaired int `json:"shares_repaired"`
	// SharesRemoved counts misplaced or departed-shard copies deleted after
	// their object was verified healthy on its home shards.
	SharesRemoved int `json:"shares_removed"`
	// TombstonesPropagated counts deletion markers written over stale
	// shares so a revived shard cannot resurrect a deleted secret.
	TombstonesPropagated int `json:"tombstones_propagated"`
	// LostObjects counts objects with fewer than k intact shares anywhere
	// and no tombstone — unrecoverable data loss.
	LostObjects int `json:"lost_objects"`
	// HintsDrained counts parked shares delivered to revived shards this
	// pass.
	HintsDrained int `json:"hints_drained"`
	// UnlistableShards counts shards whose inventory could not be
	// enumerated (no SecretLister, or the listing failed); their objects
	// are still scrubbed when any listable shard holds a share of them.
	UnlistableShards int `json:"unlistable_shards"`
	// LegacyRemaining counts bare-id records of the pre-merge replicated
	// layout still present after the pass, which migrates and removes them
	// unless a home shard was unreachable.
	LegacyRemaining int `json:"legacy_remaining"`
}

// scrubSource is one store the scrubber reads from: a current shard
// (shard >= 0, indexed into the snapshot's shard list) or a departed store
// being drained by a rebalance (shard < 0).
type scrubSource struct {
	store SecretStore
	shard int
}

// ScrubOnce runs one full scrub pass: drain parked hints to revived
// shards, walk every listable shard's share inventory, and for each object
// verify all n home slots — re-encoding missing, corrupt or stale shares
// from any k intact ones, propagating tombstones over shares that survived
// a delete, and removing copies stranded off their home shard. On a
// replicated store the records the pre-merge layout kept under the bare
// object id are such stray copies too, so one pass migrates them into
// share slots (see legacyShare). Passes are serialized; concurrent reads
// and writes proceed normally.
func (s *ErasureSecretStore) ScrubOnce(ctx context.Context) (ScrubReport, error) {
	return s.scrub(ctx, nil, false)
}

// MigrateLegacy is the part of a scrub pass an upgraded replicated store
// needs before it serves: it walks every shard's inventory as a pass does
// but scrubs only the objects that still have a pre-merge bare-id record,
// so once those are migrated it costs one listing per shard. It drains no
// hints and does not count as a scrub cycle. The report's LegacyRemaining
// and UnlistableShards say whether any such record may be left.
func (s *ErasureSecretStore) MigrateLegacy(ctx context.Context) (ScrubReport, error) {
	return s.scrub(ctx, nil, true)
}

// scrub is ScrubOnce plus optional extra read-only sources (the departed
// shards during a Rebalance); legacyOnly narrows it to MigrateLegacy.
func (s *ErasureSecretStore) scrub(ctx context.Context, extra []SecretStore, legacyOnly bool) (ScrubReport, error) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	lay := s.layout()
	var rep ScrubReport

	if !legacyOnly {
		rep.HintsDrained = s.drainHints(ctx, lay)
	}

	// Inventory: every listable source's share keys, grouped by object.
	sources := make([]scrubSource, 0, len(lay.shards)+len(extra))
	for i, shard := range lay.shards {
		sources = append(sources, scrubSource{store: shard, shard: i})
	}
	for _, ex := range extra {
		if !containsStore(lay.shards, ex) {
			sources = append(sources, scrubSource{store: ex, shard: -1})
		}
	}
	inv := map[string]map[int][]scrubSource{} // id -> share index (or legacyIndex) -> holders
	for _, src := range sources {
		lister, ok := src.store.(SecretLister)
		if !ok {
			rep.UnlistableShards++
			continue
		}
		keys, err := lister.ListSecrets(ctx)
		if err != nil {
			rep.UnlistableShards++
			continue
		}
		for _, key := range keys {
			id, idx, ok := parseShareKey(key)
			switch {
			case ok:
			case lay.k == 1:
				id, idx = key, legacyIndex // a pre-merge replicated record
			default:
				continue // foreign key on a shared shard directory
			}
			byIdx := inv[id]
			if byIdx == nil {
				byIdx = map[int][]scrubSource{}
				inv[id] = byIdx
			}
			byIdx[idx] = append(byIdx[idx], src)
		}
	}

	ids := make([]string, 0, len(inv))
	for id := range inv {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			s.accumulateScrub(rep)
			return rep, err
		}
		switch _, legacy := inv[id][legacyIndex]; {
		case legacy:
			// Migration writes slots a writer may be racing for; hold the
			// object's write lock, as read-repair does.
			s.beginWrite(id)
			s.scrubObject(ctx, lay, id, inv[id], &rep)
			s.endWrite(id)
		case legacyOnly:
		case s.writeInFlight(id):
			// Half-written stripe; the writer owns it, next pass verifies.
		default:
			s.scrubObject(ctx, lay, id, inv[id], &rep)
		}
	}
	s.accumulateScrub(rep)
	if !legacyOnly {
		s.repairC.scrubCycles.Add(1)
	}
	return rep, nil
}

// repairObject is read-repair: one object's scrub, run by a 1-of-r read
// that heard a replica answer with an older record, nothing, or garbage.
// It holds the object's write lock, so a write that lands after the read
// is re-read rather than overwritten with the older record, and its
// findings accumulate into RepairStats.
func (s *ErasureSecretStore) repairObject(ctx context.Context, lay storeLayout, id string) {
	s.beginWrite(id)
	defer s.endWrite(id)
	var rep ScrubReport
	s.scrubObject(ctx, lay, id, nil, &rep)
	s.accumulateScrub(rep)
}

// containsStore reports whether stores holds exactly this store value
// (pointer identity for all bundled stores).
func containsStore(stores []SecretStore, target SecretStore) bool {
	for _, st := range stores {
		if st == target {
			return true
		}
	}
	return false
}

// accumulateScrub folds a pass's report into the cumulative RepairStats.
func (s *ErasureSecretStore) accumulateScrub(rep ScrubReport) {
	c := &s.repairC
	c.objectsScanned.Add(uint64(rep.Objects))
	c.sharesChecked.Add(uint64(rep.SharesChecked))
	c.sharesMissing.Add(uint64(rep.SharesMissing))
	c.sharesCorrupt.Add(uint64(rep.SharesCorrupt))
	c.sharesRepaired.Add(uint64(rep.SharesRepaired))
	c.sharesRemoved.Add(uint64(rep.SharesRemoved))
	c.tombstonesPropagated.Add(uint64(rep.TombstonesPropagated))
	c.lostObjects.Add(uint64(rep.LostObjects))
}

// slotView is what the scrubber found in one home share slot.
type slotView struct {
	present   bool // some bytes are stored there
	readErr   bool // the read failed (shard unreachable; not "not found")
	valid     bool // bytes parse as a share for this object and slot
	share     erasure.Share
	tomb      bool
	tombEpoch uint64
}

// misplacedCopy is a share or tombstone copy living somewhere other than
// its current home slot (wrong shard, departed shard, an index beyond the
// current scheme, or a pre-merge record under the bare id) — readable for
// reconstruction, removable once the home slots are healthy.
type misplacedCopy struct {
	src    scrubSource
	key    string
	legacy bool
}

// legacyIndex is the inventory index of a record the pre-merge replicated
// layout kept under the bare object id.
const legacyIndex = -1

// legacyShare reads a pre-merge record as a stray copy: a tombstone stays
// a tombstone, a blob becomes share 0 of the current 1-of-n scheme at the
// record's own epoch, so any later write supersedes its migrated copies.
func legacyShare(id string, n int, raw []byte) shareFetch {
	kind, epoch, payload := decodeRecord(raw)
	if kind == recordTombstone {
		return shareFetch{tomb: true, tombEpoch: epoch}
	}
	shs, err := erasure.Encode(id, epoch, payload, 1, n)
	if err != nil {
		return shareFetch{}
	}
	return shareFetch{share: shs[0], valid: true}
}

// scrubObject verifies and repairs one object's share slots.
func (s *ErasureSecretStore) scrubObject(ctx context.Context, lay storeLayout, id string, locs map[int][]scrubSource, rep *ScrubReport) {
	rep.Objects++
	k, n := lay.k, lay.n
	placement := lay.ring.placements(id, n)

	// Read every home slot (even unlisted ones: the shard may be unlistable
	// or the slot empty) plus every stray copy the inventory turned up.
	homes := make([]slotView, n)
	groups := map[uint64][]erasure.Share{}
	var tombMax uint64
	haveTomb, haveReadErr := false, false
	note := func(f shareFetch) *slotView {
		v := &slotView{present: true}
		switch {
		case f.tomb:
			v.tomb, v.tombEpoch = true, f.tombEpoch
			haveTomb = true
			tombMax = max(tombMax, f.tombEpoch)
		case f.valid:
			v.valid, v.share = true, f.share
			groups[f.share.Epoch] = append(groups[f.share.Epoch], f.share)
		}
		return v
	}
	for i := 0; i < n; i++ {
		raw, err := lay.shards[placement[i]].GetSecret(ctx, shareKey(id, i))
		if err != nil {
			if !IsNotFound(err) {
				homes[i].readErr = true
				haveReadErr = true
			}
			continue
		}
		homes[i] = *note(parseShareBytes(i, id, raw))
	}
	var misplaced []misplacedCopy
	for idx, srcs := range locs {
		legacy := idx == legacyIndex
		for _, src := range srcs {
			if src.shard >= 0 && !legacy && idx < n && src.shard == placement[idx] {
				continue // that is the home copy, already read above
			}
			key := shareKey(id, idx)
			if legacy {
				key = id
			}
			raw, err := src.store.GetSecret(ctx, key)
			if legacy && !IsNotFound(err) {
				rep.LegacyRemaining++ // until removeCopies deletes it
			}
			if err != nil {
				if !IsNotFound(err) {
					haveReadErr = true
				}
				continue
			}
			if legacy {
				note(legacyShare(id, n, raw))
			} else {
				note(parseShareBytes(idx, id, raw))
			}
			misplaced = append(misplaced, misplacedCopy{src: src, key: key, legacy: legacy})
		}
	}

	// The newest epoch with enough distinct shares to reconstruct wins.
	var bestEpoch uint64
	haveBest := false
	for e, g := range groups {
		if uniqueShareCount(g) >= g[0].K && (!haveBest || e > bestEpoch) {
			bestEpoch, haveBest = e, true
		}
	}

	switch {
	case haveTomb && (!haveBest || tombMax >= bestEpoch):
		// The object is deleted. Overwrite any surviving share (or garbage)
		// with the tombstone so no future read or repair resurrects it;
		// already-tombstoned and empty slots are left alone, so a converged
		// deleted object costs a scrub nothing.
		//
		// Exception, mirroring the LostObjects guard below: while any source
		// is unreachable, a share NEWER than the tombstone is never
		// overwritten even though its epoch lacks k shares here — the missing
		// shares of that post-delete write may be sitting on the unreachable
		// shards, and destroying the reachable ones would turn a degraded
		// acknowledged write into a permanent loss. Only once every source
		// has answered is a sub-k newer epoch provably unrecoverable, and the
		// tombstone the deterministic resolution.
		rec := encodeRecord(recordTombstone, tombMax, nil)
		for i := 0; i < n; i++ {
			v := &homes[i]
			if v.readErr || !v.present || (v.tomb && v.tombEpoch >= tombMax) {
				continue
			}
			if haveReadErr && v.valid && v.share.Epoch > tombMax {
				continue
			}
			shard := placement[i]
			lay.counters[shard].puts.Add(1)
			if err := lay.shards[shard].PutSecret(ctx, shareKey(id, i), rec); err != nil {
				lay.counters[shard].putFailures.Add(1)
			} else {
				rep.TombstonesPropagated++
			}
		}
		// Stray copies may likewise be the last reachable shares of a newer
		// write; keep them until a pass where every source answers.
		if !haveReadErr {
			removeCopies(ctx, misplaced, rep)
		}

	case haveBest:
		g := groups[bestEpoch]
		schemeCurrent := g[0].K == k && g[0].N == n
		var unhealthy []int
		for i := 0; i < n; i++ {
			v := &homes[i]
			if schemeCurrent && v.valid && v.share.Epoch == bestEpoch && v.share.K == k && v.share.N == n {
				rep.SharesChecked++
				continue
			}
			if v.readErr {
				continue // unreachable shard: repair it next pass
			}
			if haveReadErr && v.valid && v.share.Epoch > bestEpoch {
				// Same protection as the tombstone case: a share newer than
				// the best recoverable epoch may belong to a write whose
				// sibling shares are on the unreachable shards.
				continue
			}
			switch {
			case !v.present:
				rep.SharesMissing++
			case !v.valid && !v.tomb:
				rep.SharesCorrupt++
			}
			unhealthy = append(unhealthy, i)
		}
		if len(unhealthy) == 0 && len(misplaced) == 0 {
			return
		}
		data, err := erasure.Reconstruct(g)
		if err != nil {
			return // inconsistent group; leave it for reads to report
		}
		epoch := bestEpoch
		if !schemeCurrent {
			// The scheme changed (rebalance or reconfiguration): rewrite the
			// whole stripe under the current scheme at a fresh epoch, which
			// supersedes every old-scheme share.
			epoch = s.epochs.next()
			unhealthy = unhealthy[:0]
			for i := 0; i < n; i++ {
				v := &homes[i]
				if v.readErr || (haveReadErr && v.valid && v.share.Epoch > bestEpoch) {
					continue
				}
				unhealthy = append(unhealthy, i)
			}
		}
		// Re-encoding at the same epoch is deterministic, so repaired shares
		// are byte-identical to the originals.
		shs, err := erasure.Encode(id, epoch, data, k, n)
		if err != nil {
			return
		}
		repairFailed := false
		for _, i := range unhealthy {
			shard := placement[i]
			lay.counters[shard].puts.Add(1)
			if err := lay.shards[shard].PutSecret(ctx, shareKey(id, i), shs[i].Marshal()); err != nil {
				lay.counters[shard].putFailures.Add(1)
				repairFailed = true
			} else {
				lay.counters[shard].repairs.Add(1)
				rep.SharesRepaired++
			}
		}
		// Strays are only removed once every home slot is verifiably
		// healthy — while any slot is unreachable or failed its repair, a
		// stray copy may be the margin between degraded and lost.
		if !repairFailed && !haveReadErr {
			removeCopies(ctx, misplaced, rep)
		}

	default:
		// Fewer than k intact shares anywhere and no tombstone. Only declare
		// loss when every source actually answered; an unreachable shard may
		// still hold the missing shares.
		if !haveReadErr {
			rep.LostObjects++
		}
	}
}

// uniqueShareCount counts distinct share indices in a group (the same
// share can be seen from its home slot and a stray copy).
func uniqueShareCount(g []erasure.Share) int {
	seen := map[int]bool{}
	for _, sh := range g {
		seen[sh.Index] = true
	}
	return len(seen)
}

// removeCopies best-effort deletes stray copies from sources that support
// deletion, counting them into rep. Sources without SecretDeleter keep
// their strays — harmless, since reads never consult them.
func removeCopies(ctx context.Context, copies []misplacedCopy, rep *ScrubReport) {
	for _, mp := range copies {
		del, ok := mp.src.store.(SecretDeleter)
		if !ok {
			continue
		}
		if err := del.DeleteSecret(ctx, mp.key); err == nil {
			rep.SharesRemoved++
			if mp.legacy {
				rep.LegacyRemaining--
			}
		}
	}
}

// recordEpochOf extracts the write epoch from stored share or tombstone
// bytes (0 for legacy/unparseable bytes, which any real record supersedes).
func recordEpochOf(raw []byte) uint64 {
	if sh, err := erasure.ParseShare(raw); err == nil {
		return sh.Epoch
	}
	if kind, epoch, _ := decodeRecord(raw); kind == recordTombstone {
		return epoch
	}
	return 0
}

// drainHints tries to deliver every parked share to its home shard,
// keeping hints whose shard is still down and discarding hints the shard
// has since superseded (a newer write landed while the hint was parked).
func (s *ErasureSecretStore) drainHints(ctx context.Context, lay storeLayout) int {
	drained := 0
	for hk, rec := range s.hints.snapshot() {
		if hk.shard < 0 || hk.shard >= len(lay.shards) {
			s.hints.remove(hk) // stale after a rebalance
			continue
		}
		cur, err := lay.shards[hk.shard].GetSecret(ctx, hk.key)
		switch {
		case err == nil && recordEpochOf(cur) >= recordEpochOf(rec):
			s.hints.remove(hk) // superseded while parked
			continue
		case err != nil && !IsNotFound(err):
			continue // shard still down; keep the hint
		}
		lay.counters[hk.shard].puts.Add(1)
		if err := lay.shards[hk.shard].PutSecret(ctx, hk.key, rec); err != nil {
			lay.counters[hk.shard].putFailures.Add(1)
			continue
		}
		lay.counters[hk.shard].repairs.Add(1)
		s.hints.remove(hk)
		s.repairC.hintsDrained.Add(1)
		drained++
	}
	return drained
}

// Rebalance replaces the shard set — the planned join/leave path. The new
// ring takes effect immediately for reads and writes, then a scrub pass
// migrates every share onto its new home shards, reading from the union of
// old and new shards so even objects living entirely on departed shards
// are recovered before those stores are detached. Departed shards that
// support deletion are emptied of their copies as objects are verified
// healthy on the new layout.
func (s *ErasureSecretStore) Rebalance(ctx context.Context, newShards []SecretStore) error {
	s.mu.RLock()
	n := s.n
	s.mu.RUnlock()
	if len(newShards) < n {
		return fmt.Errorf("p3: erasure store rebalance: scheme needs %d shards, got %d", n, len(newShards))
	}
	s.mu.Lock()
	old := s.shards
	s.shards = newShards
	s.ring = newHashRing(len(newShards))
	s.counters = make([]shardCounters, len(newShards))
	s.mu.Unlock()
	// Parked hints address shards by index in the old layout; drop them and
	// let the migration scrub restore redundancy from the data itself.
	s.hints.clear()
	_, err := s.scrub(ctx, old, false)
	return err
}

// startRepairDaemon launches the background scrubber when a scrub interval
// was configured; Close stops it.
func (s *ErasureSecretStore) startRepairDaemon() {
	s.startOnce.Do(func() {
		if s.scrubInterval <= 0 {
			return
		}
		s.stopScrub = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go func() {
			defer close(s.scrubDone)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-s.stopScrub
				cancel()
			}()
			ticker := time.NewTicker(s.scrubInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					s.ScrubOnce(ctx)
				}
			}
		}()
	})
}

// Close stops the background repair daemon, waiting for an in-flight scrub
// pass to wind down. The store remains usable for reads and writes; Close
// is idempotent and a no-op when no daemon was started.
func (s *ErasureSecretStore) Close() error {
	s.stopOnce.Do(func() {
		if s.stopScrub != nil {
			close(s.stopScrub)
			<-s.scrubDone
		}
	})
	return nil
}
