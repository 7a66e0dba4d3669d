package psp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// BlobStore is the untrusted storage provider (Dropbox in the paper's
// deployment) holding encrypted secret parts, keyed by the photo ID the PSP
// assigned (§4.1: "this returns an ID, which is then used to name a file
// containing the secret part"). It never sees plaintext: blobs are sealed
// by core.SealSecret before upload.
//
//	PUT /blob/{name}   body: bytes
//	GET /blob/{name}
//	GET /blob/         → JSON array of every stored name
type BlobStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	gets  int
}

// NewBlobStore returns an empty store.
func NewBlobStore() *BlobStore {
	return &BlobStore{blobs: make(map[string][]byte)}
}

// ServeHTTP implements http.Handler. The blob name is decoded from the
// escaped path, so a client-escaped name like "a%2F..%2Fb" stays one opaque
// key instead of becoming path segments.
func (b *BlobStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/blob/") {
		http.NotFound(w, r)
		return
	}
	name, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/blob/"))
	if err == nil && name == "" && r.Method == http.MethodGet {
		b.mu.RLock()
		names := make([]string, 0, len(b.blobs))
		for name := range b.blobs {
			names = append(names, name)
		}
		b.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(names)
		return
	}
	if err != nil || name == "" {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		b.Put(name, data)
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		data, err := b.Get(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Write(data)
	case http.MethodDelete:
		b.Delete(name)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Put stores a blob.
func (b *BlobStore) Put(name string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[name] = append([]byte(nil), data...)
}

// Get fetches a blob.
func (b *BlobStore) Get(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.blobs[name]
	if !ok {
		return nil, fmt.Errorf("psp: no blob %q", name)
	}
	b.gets++
	return append([]byte(nil), data...), nil
}

// Delete removes a blob (a no-op for absent names).
func (b *BlobStore) Delete(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.blobs, name)
}

// Has reports whether a blob exists, without counting as a Get.
func (b *BlobStore) Has(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	_, ok := b.blobs[name]
	return ok
}

// GetCount reports successful Get calls; tests use it to verify the proxy's
// secret-part cache (§4.1: "the proxy can maintain a cache of downloaded
// secret parts").
func (b *BlobStore) GetCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gets
}
