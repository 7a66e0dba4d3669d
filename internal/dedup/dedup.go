// Package dedup implements content-addressed deduplication of public
// parts. The P3 design stores the public part of every photo in the
// untrusted PSP — which means millions of users re-uploading the same
// photo can share one stored blob, one cache entry, and one upload's
// bandwidth, as long as public parts are addressed by content rather
// than by uploader.
//
// Store is a PhotoService middleware: it hashes every uploaded public
// JPEG (SHA-256 of the canonical bytes the codec produced), uploads each
// distinct content exactly once to the wrapped provider, and hands every
// logical upload its own minted photo ID mapped onto the shared provider
// blob. Secret parts are untouched: each logical upload keeps its own
// sealed secret under its own ID, so the Disk/Sharded/Erasure secret
// store layering doesn't change at all.
//
// # Concurrency and delete safety
//
// Two invariants carry the whole design, and the property/race tests in
// this package pin both:
//
//   - A content hash is uploaded to the provider at most once per life
//     of the blob. Concurrent identical uploads coalesce onto one
//     in-flight provider upload (per-hash singleflight); without it, two
//     racers would both upload and one provider blob would be orphaned,
//     unreferenced by the index forever.
//   - A reference count never goes negative, and a provider blob is
//     never shared after its count hits zero. Delete tombstones the
//     entry and unlinks it from the hash index in the same critical
//     section that drops the last reference, so an upload racing the
//     delete can only miss and re-upload fresh — it can never adopt the
//     dying blob. Tombstones whose provider delete failed are parked and
//     retried by Scrub.
//
// The index itself is in-memory, like the proxy's serving caches: a
// restarted proxy re-uploads on first miss and re-converges. Metrics are
// exported as p3_dedup_* (see ARCHITECTURE.md).
package dedup

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"p3"
	"p3/internal/metrics"
)

// Option configures a Store.
type Option func(*config)

type config struct {
	registry *metrics.Registry
}

// WithRegistry points the store's p3_dedup_* series at a private registry
// instead of metrics.Default (tests; multi-store processes).
func WithRegistry(r *metrics.Registry) Option {
	return func(c *config) { c.registry = r }
}

// entry is one distinct public-part content: the provider blob it lives
// in and every logical photo ID referencing it.
type entry struct {
	hash string // content hash, hex
	size int64  // public part bytes (storage-saved accounting)
	dims [2]int // provider stored dims, when reported

	// Singleflight state for the first upload of this content: ready is
	// closed once the leader's provider upload finished; pspID/err are
	// valid only after that. Followers arriving mid-flight wait on ready
	// instead of racing a second provider upload.
	ready chan struct{}
	pspID string
	err   error

	// refs counts live logical IDs. Guarded by Store.mu.
	refs int

	// tombstone marks a dead entry: refs hit zero and the provider blob
	// is dying or dead. A tombstoned entry is already unlinked from
	// byHash, so it can never be shared again; pspDeleted records whether
	// the provider delete landed (Scrub retries the ones that failed).
	tombstone  bool
	pspDeleted bool
}

// Store deduplicates public parts in front of any PhotoService. It
// implements PhotoService, UploadDimsService and PhotoDeleter.
type Store struct {
	next p3.PhotoService

	mu     sync.Mutex
	byHash map[string]*entry // live + in-flight entries by content hash
	byID   map[string]*entry // logical photo ID → its entry
	tombs  []*entry          // dead entries awaiting provider delete
	seq    uint64            // logical ID minting

	uploads      metrics.Counter
	dupHits      metrics.Counter
	pspUploads   metrics.Counter
	deletes      metrics.Counter
	pspDeletes   metrics.Counter
	bytesLogical metrics.Counter
	bytesStored  metrics.Counter
	bytesSaved   metrics.Counter
	negativeRefs metrics.Counter // alarm: must stay zero forever
}

// New wraps next in a content-addressed dedup layer.
func New(next p3.PhotoService, opts ...Option) *Store {
	cfg := config{registry: metrics.Default}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Store{
		next:   next,
		byHash: make(map[string]*entry),
		byID:   make(map[string]*entry),
	}
	metrics.Export(cfg.registry, "p3_dedup", s.Stats, metrics.Label{Key: "store", Value: "dedup"})
	return s
}

// HashContent returns the content address of a public part: the hex
// SHA-256 of its canonical JPEG bytes.
func HashContent(jpegBytes []byte) string {
	sum := sha256.Sum256(jpegBytes)
	return hex.EncodeToString(sum[:])
}

// mintLocked creates a fresh logical ID referencing e. Caller holds mu
// and has already accounted e.refs.
func (s *Store) mintLocked(e *entry) string {
	s.seq++
	id := fmt.Sprintf("dd-%s-%d", e.hash[:16], s.seq)
	s.byID[id] = e
	return id
}

// minted reports whether id carries the layer's own minting shape. Such
// IDs never exist on the provider directly, so an unknown minted ID is a
// definitive not-found — forwarding it would hit providers whose delete
// is idempotent and falsely report success.
func minted(id string) bool { return strings.HasPrefix(id, "dd-") }

// UploadPhoto implements PhotoService: logical upload with dedup.
func (s *Store) UploadPhoto(ctx context.Context, jpegBytes []byte) (string, error) {
	id, _, _, err := s.upload(ctx, jpegBytes)
	return id, err
}

// UploadPhotoWithDims implements UploadDimsService. Duplicate uploads
// report the stored dimensions recorded when the content was first
// uploaded (0, 0 when the wrapped provider never reported any).
func (s *Store) UploadPhotoWithDims(ctx context.Context, jpegBytes []byte) (string, int, int, error) {
	return s.upload(ctx, jpegBytes)
}

func (s *Store) upload(ctx context.Context, jpegBytes []byte) (string, int, int, error) {
	hash := HashContent(jpegBytes)
	s.uploads.Inc()
	s.bytesLogical.Add(uint64(len(jpegBytes)))
	for {
		s.mu.Lock()
		if e, ok := s.byHash[hash]; ok {
			select {
			case <-e.ready:
				if e.err == nil {
					// Dup hit: adopt the shared blob. The increment happens in
					// the same critical section as the lookup, so a racing
					// delete either saw our reference or we saw its tombstone.
					e.refs++
					id := s.mintLocked(e)
					s.dupHits.Inc()
					s.bytesSaved.Add(uint64(len(jpegBytes)))
					s.mu.Unlock()
					return id, e.dims[0], e.dims[1], nil
				}
				// The leader failed and removed the entry; our pointer is
				// stale. Retry from the top (a fresh leader may succeed).
				s.mu.Unlock()
				continue
			default:
				// First upload still in flight: wait for the leader off-lock.
				s.mu.Unlock()
				select {
				case <-e.ready:
					continue
				case <-ctx.Done():
					return "", 0, 0, ctx.Err()
				}
			}
		}
		// Miss (or a tombstoned predecessor already unlinked): become the
		// leader for this content.
		e := &entry{hash: hash, ready: make(chan struct{})}
		s.byHash[hash] = e
		s.mu.Unlock()

		pspID, w, h, err := s.uploadNext(ctx, jpegBytes)
		s.mu.Lock()
		if err != nil {
			e.err = err
			if s.byHash[hash] == e {
				delete(s.byHash, hash)
			}
			close(e.ready)
			s.mu.Unlock()
			return "", 0, 0, err
		}
		e.pspID = pspID
		e.size = int64(len(jpegBytes))
		e.dims = [2]int{w, h}
		e.refs = 1
		id := s.mintLocked(e)
		close(e.ready)
		s.pspUploads.Inc()
		s.bytesStored.Add(uint64(len(jpegBytes)))
		s.mu.Unlock()
		return id, w, h, nil
	}
}

// uploadNext performs the single provider upload for a new content.
func (s *Store) uploadNext(ctx context.Context, jpegBytes []byte) (id string, w, h int, err error) {
	if ud, ok := s.next.(p3.UploadDimsService); ok {
		return ud.UploadPhotoWithDims(ctx, jpegBytes)
	}
	id, err = s.next.UploadPhoto(ctx, jpegBytes)
	return id, 0, 0, err
}

// FetchPhoto implements PhotoService: logical ID → shared provider blob.
// IDs the dedup layer never minted are forwarded untouched, so a store
// can front a provider holding a pre-dedup corpus.
func (s *Store) FetchPhoto(ctx context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.byID[id]
	var pspID string
	if ok {
		pspID = e.pspID
	}
	s.mu.Unlock()
	if !ok {
		if minted(id) {
			return nil, &p3.NotFoundError{Kind: "photo", ID: id}
		}
		return s.next.FetchPhoto(ctx, id, v)
	}
	return s.next.FetchPhoto(ctx, pspID, v)
}

// DeletePhoto implements PhotoDeleter: drop one logical reference;
// delete the provider blob only when the last reference goes. Deleting
// an ID the layer never minted forwards to the provider when it supports
// deletion.
//
// The tombstone transition and the byHash unlink happen atomically with
// the refs→0 decrement, so no concurrent upload can adopt the dying
// provider blob; the provider delete itself runs off-lock (it is I/O),
// and a failure parks the tombstone for Scrub to retry.
func (s *Store) DeletePhoto(ctx context.Context, id string) error {
	s.mu.Lock()
	e, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		if d, ok := s.next.(p3.PhotoDeleter); ok && !minted(id) {
			return d.DeletePhoto(ctx, id)
		}
		return &p3.NotFoundError{Kind: "photo", ID: id}
	}
	delete(s.byID, id)
	s.deletes.Inc()
	e.refs--
	if e.refs < 0 {
		// Impossible by construction (each logical ID is deletable once —
		// its byID link is consumed above); counted so a regression screams.
		s.negativeRefs.Inc()
		e.refs = 0
	}
	if e.refs > 0 {
		s.mu.Unlock()
		return nil
	}
	e.tombstone = true
	if s.byHash[e.hash] == e {
		delete(s.byHash, e.hash)
	}
	s.tombs = append(s.tombs, e)
	pspID := e.pspID
	s.mu.Unlock()

	err := s.deleteNext(ctx, pspID)
	s.mu.Lock()
	if err == nil {
		e.pspDeleted = true
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("dedup: deleting provider blob %q (parked for scrub retry): %w", pspID, err)
	}
	return nil
}

// deleteNext removes the provider blob, when the provider supports it. A
// provider without deletion counts as deleted: there is nothing more the
// dedup layer could ever do with the blob.
func (s *Store) deleteNext(ctx context.Context, pspID string) error {
	d, ok := s.next.(p3.PhotoDeleter)
	if !ok {
		return nil
	}
	if err := d.DeletePhoto(ctx, pspID); err != nil && !p3.IsNotFound(err) {
		return err
	}
	s.pspDeletes.Inc()
	return nil
}

// Stats is a snapshot of the dedup layer for /stats and the bench
// harness. The tagged fields are the p3_dedup_* series (metrics.Export).
type Stats struct {
	Uploads         uint64 `json:"uploads" metric:"counter" help:"Logical public-part uploads through the dedup layer."`
	DupHits         uint64 `json:"dup_hits" metric:"counter" help:"Uploads that shared an already-stored content hash."`
	ProviderUploads uint64 `json:"provider_uploads" metric:"counter" help:"Distinct contents actually uploaded to the provider."`
	Deletes         uint64 `json:"deletes" metric:"counter" help:"Logical photo deletions (reference drops)."`
	ProviderDeletes uint64 `json:"provider_deletes" metric:"counter" help:"Provider blobs deleted after their last reference dropped."`
	BytesLogical    uint64 `json:"bytes_logical" metric:"counter" help:"Public-part bytes uploaded logically (before dedup)."`
	BytesStored     uint64 `json:"bytes_stored" metric:"counter" help:"Public-part bytes actually sent to the provider."`
	BytesSaved      uint64 `json:"bytes_saved" metric:"counter" help:"Public-part bytes dedup kept off the provider."`
	NegativeRefs    uint64 `json:"negative_refs" metric:"counter" help:"Reference counts observed below zero (alarm metric; must stay 0)."`
	UniqueBlobs     int    `json:"unique_blobs" metric:"gauge" help:"Distinct contents currently stored."`
	LogicalPhotos   int    `json:"logical_photos" metric:"gauge" help:"Logical photo IDs currently live."`
	Tombstones      int    `json:"tombstones" metric:"gauge" help:"Dead entries awaiting provider delete."`
}

// Stats returns the current counters and index sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Uploads:         s.uploads.Value(),
		DupHits:         s.dupHits.Value(),
		ProviderUploads: s.pspUploads.Value(),
		Deletes:         s.deletes.Value(),
		ProviderDeletes: s.pspDeletes.Value(),
		BytesLogical:    s.bytesLogical.Value(),
		BytesStored:     s.bytesStored.Value(),
		BytesSaved:      s.bytesSaved.Value(),
		NegativeRefs:    s.negativeRefs.Value(),
		UniqueBlobs:     len(s.byHash),
		LogicalPhotos:   len(s.byID),
		Tombstones:      len(s.tombs),
	}
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	Tombstones     int `json:"tombstones"`      // parked tombstones examined
	RetriedDeletes int `json:"retried_deletes"` // provider deletes retried
	FailedDeletes  int `json:"failed_deletes"`  // retries that failed again
	Dropped        int `json:"dropped"`         // tombstones fully resolved
	RefErrors      int `json:"ref_errors"`      // refcount invariant violations found
}

// Scrub retries parked provider deletes and audits the refcount
// invariants (refcounts match the live ID set; nothing negative; no
// tombstone reachable from the hash index). It is safe to run
// concurrently with uploads and deletes.
func (s *Store) Scrub(ctx context.Context) (ScrubReport, error) {
	var rep ScrubReport
	// Snapshot the parked tombstones, retry their deletes off-lock.
	s.mu.Lock()
	parked := append([]*entry(nil), s.tombs...)
	s.mu.Unlock()
	rep.Tombstones = len(parked)
	for _, e := range parked {
		s.mu.Lock()
		done := e.pspDeleted
		pspID := e.pspID
		s.mu.Unlock()
		if !done {
			rep.RetriedDeletes++
			if err := s.deleteNext(ctx, pspID); err != nil {
				rep.FailedDeletes++
				continue
			}
			s.mu.Lock()
			e.pspDeleted = true
			s.mu.Unlock()
		}
	}
	// Drop fully resolved tombstones and audit the index.
	s.mu.Lock()
	kept := s.tombs[:0]
	for _, e := range s.tombs {
		if e.pspDeleted {
			rep.Dropped++
		} else {
			kept = append(kept, e)
		}
	}
	s.tombs = kept
	rep.RefErrors = s.auditLocked()
	s.mu.Unlock()
	return rep, nil
}

// auditLocked recomputes every entry's reference count from the live ID
// set and returns how many entries disagree with their counter or are
// otherwise inconsistent (live-but-tombstoned, negative, unreachable).
func (s *Store) auditLocked() int {
	counts := make(map[*entry]int, len(s.byHash))
	for _, e := range s.byID {
		counts[e]++
	}
	errs := 0
	for _, e := range s.byHash {
		if e.tombstone {
			errs++ // tombstones must be unlinked from byHash
		}
		select {
		case <-e.ready:
			if e.err == nil && (e.refs != counts[e] || e.refs <= 0) {
				errs++
			}
		default:
			// In-flight first upload: refs not yet accounted.
		}
	}
	for e, n := range counts {
		if e.refs != n || e.tombstone {
			errs++
		}
	}
	return errs
}

// CheckInvariants audits the index and returns an error describing any
// violation; the property and hammer tests call it after every phase.
func (s *Store) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.auditLocked(); n > 0 {
		return fmt.Errorf("dedup: %d refcount invariant violations", n)
	}
	if v := s.negativeRefs.Value(); v > 0 {
		return fmt.Errorf("dedup: %d negative refcount transitions observed", v)
	}
	return nil
}
