package p3

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"
)

// shardVnodes is how many points each shard contributes to the hash ring.
// More virtual nodes smooth the key distribution across shards; 64 keeps
// the per-shard load imbalance under a few percent for realistic N.
const shardVnodes = 64

// hashRing is a consistent-hash ring over shard indices, the placement of
// ErasureSecretStore's share slots (replicas included): each ID hashes to a
// point on the ring, and its n share slots live on the next n distinct
// shards clockwise from that point. Adding
// or removing a shard only remaps the keys adjacent to its ring points, not
// the whole keyspace — which is what makes planned rebalance proportional
// to the data moved, not the data stored.
type hashRing struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newHashRing builds the ring over shardCount shards.
func newHashRing(shardCount int) hashRing {
	r := hashRing{points: make([]ringPoint, 0, shardCount*shardVnodes), shards: shardCount}
	for i := 0; i < shardCount; i++ {
		for v := 0; v < shardVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("shard/%d/vnode/%d", i, v)), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// placements returns the `count` distinct shard indices responsible for id,
// in ring (preference) order.
func (r hashRing) placements(id string, count int) []int {
	h := hash64(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, count)
	seen := make(map[int]bool, count)
	for i := 0; len(out) < count && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 finalizer. Raw FNV-1a barely avalanches its last few
// input bytes, so sequential PSP IDs ("p00000041", "p00000042", …) hash to
// one tiny arc of the ring and all land on one shard; the finalizer spreads
// them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// --- Tombstones and legacy records ------------------------------------
//
// A deletion is itself a record in each share slot — a tombstone carrying
// its write epoch — rather than an absence. Absence cannot be replicated;
// a tombstone can, which is what stops repair from resurrecting a deleted
// blob off a shard that was down during the delete.
//
// The same envelope with kind 'B' is how the pre-share replicated layout
// stored blobs under the bare object id, and before the envelope it stored
// raw blobs there. No read path knows that layout: the scrubber of a
// replicated store reads each such record as a stray copy of its object
// (legacyShare), migrates it into share slots and removes it.

// recordKind distinguishes the two enveloped record types.
type recordKind byte

const (
	recordBlob      recordKind = 'B'
	recordTombstone recordKind = 'T'
)

// recordMagic starts every enveloped record on a child shard.
const recordMagic = "p3r1"

// encodeRecord envelopes payload as magic | kind | epoch | payload.
func encodeRecord(kind recordKind, epoch uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(recordMagic)+1+8+len(payload))
	buf = append(buf, recordMagic...)
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	return append(buf, payload...)
}

// decodeRecord splits an on-shard record. Bytes without the envelope are
// treated as a legacy epoch-0 blob, so the scrubber migrates pre-envelope
// records too, and any write since supersedes them. Share slots hold
// erasure shares or tombstones; reads call it only to spot the latter.
//
// The migration is sniffed, not versioned: a pre-envelope blob that
// happens to begin with the 5-byte prefix "p3r1B" or "p3r1T" is misparsed
// (13 bytes shaved off, or reported deleted). Legacy blobs here are sealed
// ciphertext, so the odds are those of 5 random bytes matching — about
// 2^-39 per blob — which we accept in exchange for not rewriting every
// shard on upgrade. Erasure shares are immune: their checksum rejects any
// misframed payload.
func decodeRecord(b []byte) (kind recordKind, epoch uint64, payload []byte) {
	if len(b) >= len(recordMagic)+9 && string(b[:4]) == recordMagic &&
		(recordKind(b[4]) == recordBlob || recordKind(b[4]) == recordTombstone) {
		return recordKind(b[4]), binary.BigEndian.Uint64(b[5:13]), b[13:]
	}
	return recordBlob, 0, b
}

// epochSource issues strictly increasing write epochs, seeded from the wall
// clock so epochs stay comparable across process restarts sharing the same
// shards. Within a process it never repeats even if the clock steps back.
type epochSource struct {
	last atomic.Uint64
}

func (e *epochSource) next() uint64 {
	for {
		now := uint64(time.Now().UnixNano())
		last := e.last.Load()
		if now <= last {
			now = last + 1
		}
		if e.last.CompareAndSwap(last, now) {
			return now
		}
	}
}
