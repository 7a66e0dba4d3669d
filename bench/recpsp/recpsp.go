// Package recpsp is a recorded photo-sharing provider. A real psp.Server
// ingests each distinct public part and renders each requested variant
// once; the results are memoised by the SHA-256 of the uploaded bytes (a
// public part is deterministic for a given source and threshold). Replayed,
// an upload of known bytes mints a fresh ID aliasing the recorded entry and
// a fetch is a map lookup, so the simulator's Lanczos renders — 98 % of an
// upload's wall time against the live simulator — stay out of the measured
// window. Unknown content falls through to the simulator and is counted as
// a replay miss.
package recpsp

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"p3"
	"p3/internal/psp"
)

// entry is one distinct uploaded content and its rendered variants.
type entry struct {
	simID string // the simulator's ID for this content
	w, h  int    // stored dimensions the simulator reported
	size  int64  // bytes uploaded

	mu       sync.Mutex
	variants map[string][]byte // canonical variant query → served bytes
}

// PSP implements p3.PhotoService, p3.UploadDimsService and p3.PhotoDeleter
// over recorded simulator output.
type PSP struct {
	sim *psp.Server

	mu     sync.RWMutex
	byHash map[[sha256.Size]byte]*entry
	byID   map[string]*entry
	nextID int

	lookups   atomic.Int64 // uploads + fetches served
	misses    atomic.Int64 // of those, how many needed the simulator
	liveBytes atomic.Int64 // public-part bytes held, one copy per live ID as a real PSP stores them
}

// New returns an empty recorded PSP over a Facebook-like simulator.
func New() *PSP {
	return &PSP{
		sim:    psp.NewServer(psp.FacebookLike()),
		byHash: make(map[[sha256.Size]byte]*entry),
		byID:   make(map[string]*entry),
	}
}

// Stats is a snapshot of the replay counters.
type Stats struct {
	Lookups, Misses int64
	LiveBytes       int64
}

// Stats returns the current counters; callers difference two snapshots to
// get a window's replay-miss ratio.
func (p *PSP) Stats() Stats {
	return Stats{Lookups: p.lookups.Load(), Misses: p.misses.Load(), LiveBytes: p.liveBytes.Load()}
}

// Record ingests jpegBytes and renders every listed variant, without
// minting an ID, so a later upload of the same bytes and fetches of those
// variants replay.
func (p *PSP) Record(jpegBytes []byte, variants []p3.PhotoVariant) error {
	e, err := p.entryFor(jpegBytes)
	if err != nil {
		return err
	}
	for _, v := range variants {
		if _, err := p.render(e, v); err != nil {
			return err
		}
	}
	return nil
}

// entryFor returns the recorded entry for these bytes, ingesting them
// through the simulator on first sight. Two racing first sights may both
// ingest; the loser's simulator copy is deleted.
func (p *PSP) entryFor(jpegBytes []byte) (*entry, error) {
	sum := sha256.Sum256(jpegBytes)
	p.mu.RLock()
	e, ok := p.byHash[sum]
	p.mu.RUnlock()
	if ok {
		return e, nil
	}
	p.misses.Add(1)
	simID, w, h, err := p.sim.UploadWithDims(jpegBytes)
	if err != nil {
		return nil, err
	}
	e = &entry{simID: simID, w: w, h: h, size: int64(len(jpegBytes)), variants: make(map[string][]byte)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if won, ok := p.byHash[sum]; ok {
		_ = p.sim.Delete(simID) // lost the race; the winner's copy serves
		return won, nil
	}
	p.byHash[sum] = e
	return e, nil
}

// render returns one variant of e, asking the simulator on first request.
func (p *PSP) render(e *entry, v p3.PhotoVariant) ([]byte, error) {
	q := v.Query()
	key := q.Encode()
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := e.variants[key]; ok {
		return b, nil
	}
	p.misses.Add(1)
	b, err := p.sim.Photo(e.simID, q.Get("size"), q.Get("crop"), q.Get("w"), q.Get("h"))
	if err != nil {
		return nil, err
	}
	e.variants[key] = b
	return b, nil
}

// UploadPhoto implements p3.PhotoService.
func (p *PSP) UploadPhoto(ctx context.Context, jpegBytes []byte) (string, error) {
	id, _, _, err := p.UploadPhotoWithDims(ctx, jpegBytes)
	return id, err
}

// UploadPhotoWithDims implements p3.UploadDimsService: a fresh ID per
// upload, aliasing the recorded content.
func (p *PSP) UploadPhotoWithDims(_ context.Context, jpegBytes []byte) (string, int, int, error) {
	p.lookups.Add(1)
	e, err := p.entryFor(jpegBytes)
	if err != nil {
		return "", 0, 0, err
	}
	p.mu.Lock()
	p.nextID++
	id := fmt.Sprintf("r%08d", p.nextID)
	p.byID[id] = e
	p.mu.Unlock()
	p.liveBytes.Add(e.size)
	return id, e.w, e.h, nil
}

// FetchPhoto implements p3.PhotoService.
func (p *PSP) FetchPhoto(_ context.Context, id string, v p3.PhotoVariant) ([]byte, error) {
	p.lookups.Add(1)
	p.mu.RLock()
	e, ok := p.byID[id]
	p.mu.RUnlock()
	if !ok {
		return nil, &p3.NotFoundError{Kind: "photo", ID: id}
	}
	return p.render(e, v)
}

// DeletePhoto implements p3.PhotoDeleter. The recording outlives the ID.
func (p *PSP) DeletePhoto(_ context.Context, id string) error {
	p.mu.Lock()
	e, ok := p.byID[id]
	delete(p.byID, id)
	p.mu.Unlock()
	if !ok {
		return &p3.NotFoundError{Kind: "photo", ID: id}
	}
	p.liveBytes.Add(-e.size)
	return nil
}

// ServeHTTP speaks psp.Server's wire API (same routes, JSON and status
// codes), so p3.HTTPPhotoService can front the recording over loopback.
func (p *PSP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/upload":
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		id, sw, sh, err := p.UploadPhotoWithDims(ctx, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"id": id, "w": sw, "h": sh})
	case strings.HasPrefix(r.URL.Path, "/photo/") && (r.Method == http.MethodGet || r.Method == http.MethodDelete):
		id, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/photo/"))
		if err != nil {
			http.Error(w, "bad photo id", http.StatusBadRequest)
			return
		}
		if r.Method == http.MethodDelete {
			if err := p.DeletePhoto(ctx, id); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
		v, err := p3.ParsePhotoVariant(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b, err := p.FetchPhoto(ctx, id, v)
		if err != nil {
			status := http.StatusBadRequest
			if p3.IsNotFound(err) || errors.Is(err, psp.ErrNotFound) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "image/jpeg")
		_, _ = w.Write(b)
	default:
		http.NotFound(w, r)
	}
}
