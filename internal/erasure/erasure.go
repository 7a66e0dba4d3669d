// Package erasure implements a systematic Reed-Solomon erasure code over
// GF(2^8) for the self-healing secret store: Encode stripes a blob into k
// data shares plus n-k parity shares, and Reconstruct recovers the exact
// original bytes from ANY k of the n shares. "Systematic" means the first k
// shares are plain stripes of the data, so an undamaged store reassembles a
// blob with no field arithmetic at all.
//
// Every share carries a self-describing header — object ID, write epoch,
// scheme (k, n), share index, original data length, and a CRC-32C over
// header and payload — so a scrubber can inventory a shard from its shares
// alone, detect bit rot without the other shards, and never combine shares
// from different objects, writes, or schemes.
//
// The coding matrix is the standard Vandermonde construction made
// systematic: E = V(n,k) · V(k,k)⁻¹. Every k×k submatrix of a Vandermonde
// matrix with distinct evaluation points is invertible, and multiplying on
// the right by an invertible matrix preserves that, which is exactly the
// any-k-of-n decodability guarantee (property-tested exhaustively for the
// schemes the store uses).
package erasure

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// MaxShares bounds n: share indices must fit a byte, and Vandermonde
// evaluation points must stay distinct in GF(256).
const MaxShares = 255

// Share is one erasure-coded fragment of an object, self-describing enough
// to be scrubbed in isolation.
type Share struct {
	ID      string // object the share belongs to
	Epoch   uint64 // write epoch; shares of different epochs never combine
	K       int    // data shares needed to reconstruct
	N       int    // total shares the object was encoded into
	Index   int    // this share's position in [0, N); < K means data share
	DataLen int    // original (unpadded) object length in bytes
	Payload []byte // the stripe (Index < K) or parity bytes
}

// shareMagic starts every marshalled share.
const shareMagic = "p3es"

// shareVersion is the current wire version.
const shareVersion = 1

// castagnoli is the CRC-32C table shares are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a share whose stored CRC does not match its content —
// bit rot, a torn write, or hostile bytes. Scrubbers treat it as "share
// missing, slot reusable".
var ErrChecksum = errors.New("erasure: share checksum mismatch")

// ErrNotShare reports bytes that are not a marshalled share at all (wrong
// magic or truncated header).
var ErrNotShare = errors.New("erasure: not an erasure share")

// Marshal serializes the share: magic, CRC-32C over everything after the
// checksum field, then version/k/n/index, epoch, data length, the object ID
// (uvarint length prefix) and the payload.
func (s Share) Marshal() []byte {
	var hdr [4 + 4 + 4 + 8 + 8]byte
	idLen := binary.AppendUvarint(nil, uint64(len(s.ID)))
	buf := make([]byte, 0, len(hdr)+len(idLen)+len(s.ID)+len(s.Payload))
	buf = append(buf, shareMagic...)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, shareVersion, byte(s.K), byte(s.N), byte(s.Index))
	buf = binary.BigEndian.AppendUint64(buf, s.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.DataLen))
	buf = append(buf, idLen...)
	buf = append(buf, s.ID...)
	buf = append(buf, s.Payload...)
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	return buf
}

// ParseShare deserializes and integrity-checks a marshalled share. Bytes
// that are not a share return ErrNotShare; a share whose checksum does not
// cover its content returns ErrChecksum. The share's Payload aliases b.
func ParseShare(b []byte) (Share, error) {
	const fixed = 4 + 4 + 4 + 8 + 8
	if len(b) < fixed || string(b[:4]) != shareMagic {
		return Share{}, ErrNotShare
	}
	if crc32.Checksum(b[8:], castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return Share{}, ErrChecksum
	}
	if b[8] != shareVersion {
		return Share{}, fmt.Errorf("erasure: unsupported share version %d", b[8])
	}
	s := Share{
		K:       int(b[9]),
		N:       int(b[10]),
		Index:   int(b[11]),
		Epoch:   binary.BigEndian.Uint64(b[12:20]),
		DataLen: int(binary.BigEndian.Uint64(b[20:28])),
	}
	rest := b[fixed:]
	idLen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < idLen {
		return Share{}, ErrNotShare
	}
	s.ID = string(rest[n : n+int(idLen)])
	s.Payload = rest[n+int(idLen):]
	if err := validateScheme(s.K, s.N); err != nil {
		return Share{}, err
	}
	if s.Index < 0 || s.Index >= s.N {
		return Share{}, fmt.Errorf("erasure: share index %d outside scheme %d-of-%d", s.Index, s.K, s.N)
	}
	return s, nil
}

// validateScheme checks a (k, n) pair. Besides 1 <= k < n, it accepts the
// degenerate 1-of-1: a single checksummed copy, which is what one replica
// of a 1-of-r store holds.
func validateScheme(k, n int) error {
	if k < 1 || n < k || (n == k && k > 1) || n > MaxShares {
		return fmt.Errorf("erasure: invalid scheme k=%d n=%d (need 1 <= k < n <= %d, or k = n = 1)", k, n, MaxShares)
	}
	return nil
}

// codingCache memoizes the systematic coding matrix per (k, n): building
// one costs a matrix inversion, and every Put of a store reuses the same
// scheme.
var codingCache sync.Map // [2]int{k,n} -> matrix

// codingMatrix returns the n×k systematic coding matrix for the scheme: the
// top k rows are the identity, the bottom n-k rows generate parity.
func codingMatrix(k, n int) (matrix, error) {
	if err := validateScheme(k, n); err != nil {
		return nil, err
	}
	key := [2]int{k, n}
	if m, ok := codingCache.Load(key); ok {
		return m.(matrix), nil
	}
	v := vandermonde(n, k)
	top := newMatrix(k, k)
	for r := 0; r < k; r++ {
		copy(top[r], v[r])
	}
	inv, ok := top.invert()
	if !ok {
		// Unreachable: a k×k Vandermonde with distinct points is invertible.
		return nil, errors.New("erasure: Vandermonde top square singular")
	}
	m := v.mul(inv)
	codingCache.Store(key, m)
	return m, nil
}

// Encode stripes data into n shares under the given identity: k data
// stripes (zero-padded to equal length) and n-k parity stripes. Any k of
// the returned shares reconstruct data byte-identically. Full data stripes
// alias data, and for k = 1, whose coding coefficients are all 1, so do
// the parity stripes: every share of a 1-of-n code is a copy.
func Encode(id string, epoch uint64, data []byte, k, n int) ([]Share, error) {
	mat, err := codingMatrix(k, n)
	if err != nil {
		return nil, err
	}
	stripe := (len(data) + k - 1) / k
	rows := make([][]byte, n)
	for i := 0; i < k; i++ {
		lo := min(i*stripe, len(data))
		hi := min(lo+stripe, len(data))
		rows[i] = data[lo:hi:hi]
		if hi-lo < stripe {
			rows[i] = make([]byte, stripe)
			copy(rows[i], data[lo:hi])
		}
	}
	for p := k; p < n; p++ {
		if k == 1 {
			rows[p] = rows[0]
			continue
		}
		rows[p] = make([]byte, stripe)
		for i := 0; i < k; i++ {
			mulAddSlice(rows[p], rows[i], mat[p][i])
		}
	}
	shares := make([]Share, n)
	for i := range shares {
		shares[i] = Share{ID: id, Epoch: epoch, K: k, N: n, Index: i, DataLen: len(data), Payload: rows[i]}
	}
	return shares, nil
}

// Reconstruct recovers the original bytes from any subset of an object's
// shares holding at least K distinct indices. All shares must agree on
// identity (ID, Epoch), scheme and data length — mixing writes or objects
// is an error, never a wrong answer. Duplicated indices are tolerated (the
// first wins); damaged payloads surface as reconstruction errors only if
// the caller skipped ParseShare's checksum (Reconstruct trusts its input's
// headers but re-derives nothing).
func Reconstruct(shares []Share) ([]byte, error) {
	if len(shares) == 0 {
		return nil, errors.New("erasure: no shares")
	}
	ref := shares[0]
	if err := validateScheme(ref.K, ref.N); err != nil {
		return nil, err
	}
	stripe := (ref.DataLen + ref.K - 1) / ref.K
	// Deduplicate by index, verifying consistency with the first share.
	have := make(map[int][]byte, ref.K)
	for _, s := range shares {
		if s.ID != ref.ID || s.Epoch != ref.Epoch || s.K != ref.K || s.N != ref.N || s.DataLen != ref.DataLen {
			return nil, fmt.Errorf("erasure: mixed shares (object %q epoch %d vs %q epoch %d)",
				ref.ID, ref.Epoch, s.ID, s.Epoch)
		}
		if s.Index < 0 || s.Index >= ref.N || len(s.Payload) != stripe {
			return nil, fmt.Errorf("erasure: malformed share index %d (payload %d, want stripe %d)",
				s.Index, len(s.Payload), stripe)
		}
		if _, dup := have[s.Index]; !dup {
			have[s.Index] = s.Payload
		}
		if len(have) == ref.K {
			break
		}
	}
	if len(have) < ref.K {
		return nil, fmt.Errorf("erasure: %d distinct shares of %q, need %d", len(have), ref.ID, ref.K)
	}

	stripes := make([][]byte, ref.K)
	missingData := false
	for i := range stripes {
		p, ok := have[i]
		stripes[i], missingData = p, missingData || !ok
	}
	if !missingData {
		// Systematic fast path: all data stripes present. Join does not
		// zero the buffer it then fills.
		return bytes.Join(stripes, nil)[:ref.DataLen], nil
	}
	data := make([]byte, ref.K*stripe)

	// Solve for the data stripes from k available rows of the coding matrix.
	mat, err := codingMatrix(ref.K, ref.N)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, 0, ref.K)
	for i := 0; i < ref.N && len(idxs) < ref.K; i++ {
		if _, ok := have[i]; ok {
			idxs = append(idxs, i)
		}
	}
	sub := newMatrix(ref.K, ref.K)
	for r, idx := range idxs {
		copy(sub[r], mat[idx])
	}
	inv, ok := sub.invert()
	if !ok {
		// Unreachable by construction; guard anyway.
		return nil, errors.New("erasure: share submatrix singular")
	}
	for i := 0; i < ref.K; i++ {
		row := data[i*stripe : (i+1)*stripe]
		for r, idx := range idxs {
			mulAddSlice(row, have[idx], inv[i][r])
		}
	}
	return data[:ref.DataLen], nil
}
