package p3

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// PhotoService is a photo-sharing provider backend: it ingests public parts
// and serves their renditions. Implementations include the bundled HTTP
// client (NewHTTPPhotoService) speaking the PSP wire API, and in-process
// adapters for tests or embedded deployments.
//
// The service is untrusted: it only ever sees public parts, which are
// ordinary JPEGs to it.
type PhotoService interface {
	// UploadPhoto ingests a JPEG and returns the provider-assigned opaque
	// photo ID all variants are addressed by.
	UploadPhoto(ctx context.Context, jpegBytes []byte) (id string, err error)

	// FetchPhoto retrieves one rendition of a stored photo.
	FetchPhoto(ctx context.Context, id string, v PhotoVariant) ([]byte, error)
}

// SecretStore is a blob-store backend holding sealed secret parts under the
// photo ID the PSP assigned (§4.1). It is untrusted: blobs are AES-encrypted
// and MACed before they reach it.
type SecretStore interface {
	PutSecret(ctx context.Context, id string, blob []byte) error
	GetSecret(ctx context.Context, id string) ([]byte, error)
}

// NotFoundError reports that a backend holds no object under the given ID.
// Backends return it (wrapped or not) so callers can distinguish "missing"
// from "backend broken": the proxy maps it to 404 instead of 502, and the
// sharded store's read-repair falls through to the next replica on it.
type NotFoundError struct {
	Kind string // what is missing: "photo", "secret", ...
	ID   string
}

// Error implements the error interface.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("p3: no %s %q", e.Kind, e.ID)
}

// IsNotFound reports whether err (anywhere in its chain) is a NotFoundError.
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// PhotoDeleter is an optional PhotoService extension. The proxy uses it for
// best-effort cleanup when an upload stores the public part but then fails
// to store the secret part: without the secret part the photo can never be
// reconstructed, so leaving the public part behind only leaks storage.
type PhotoDeleter interface {
	DeletePhoto(ctx context.Context, id string) error
}

// SecretDeleter is an optional SecretStore extension for removing a sealed
// blob. Every bundled store implements it; it is split out so minimal
// read/write stores remain easy to plug in.
type SecretDeleter interface {
	DeleteSecret(ctx context.Context, id string) error
}

// SecretLister is an optional SecretStore extension enumerating every ID
// the store currently holds. The erasure store's scrubber and rebalancer
// need it to walk a shard's share inventory; stores that cannot enumerate
// (minimal HTTP blob stores) simply aren't scrubbed from that side.
// Implementations may omit IDs they cannot faithfully reproduce (the disk
// store's hash-named fallback for pathologically long IDs).
type SecretLister interface {
	ListSecrets(ctx context.Context) ([]string, error)
}

// UploadDimsService is an optional PhotoService extension for providers
// whose upload response reports the stored (post-ingest re-encode)
// dimensions, as Facebook-style APIs do. The proxy prefers it: knowing the
// stored dimensions at upload time warms its dims cache, so the first
// cropped view skips the full-size probe fetch otherwise needed to map crop
// coordinates. Implementations return storedW, storedH = 0, 0 when the
// provider did not report dimensions.
type UploadDimsService interface {
	UploadPhotoWithDims(ctx context.Context, jpegBytes []byte) (id string, storedW, storedH int, err error)
}

// CropRect is a crop request in stored-image pixel coordinates, applied
// before any resize.
type CropRect struct {
	X, Y, W, H int
}

// PhotoVariant selects which rendition of a stored photo to fetch. The zero
// value requests the stored full-size re-encode. Size selects a named static
// variant ("big", "small", "thumb" on a Facebook-like PSP) and takes
// precedence over the dynamic W/H/Crop fields. The bundled PSP requires W
// and H together for a dynamic resize.
type PhotoVariant struct {
	Size string    // named static variant, "" = none
	W, H int       // dynamic fit-within resize, 0 = unset
	Crop *CropRect // dynamic crop, nil = none
}

// Query renders the variant as the PSP wire API's query parameters.
func (v PhotoVariant) Query() url.Values {
	q := url.Values{}
	if v.Size != "" {
		q.Set("size", v.Size)
		return q
	}
	if v.Crop != nil {
		q.Set("crop", fmt.Sprintf("%d,%d,%d,%d", v.Crop.X, v.Crop.Y, v.Crop.W, v.Crop.H))
	}
	if v.W > 0 {
		q.Set("w", strconv.Itoa(v.W))
	}
	if v.H > 0 {
		q.Set("h", strconv.Itoa(v.H))
	}
	return q
}

// ParsePhotoVariant parses the PSP wire API's query parameters
// (size=big|small|thumb, w=&h=, crop=x,y,w,h) into a PhotoVariant.
func ParsePhotoVariant(q url.Values) (PhotoVariant, error) {
	v := PhotoVariant{Size: q.Get("size")}
	if cropStr := q.Get("crop"); cropStr != "" {
		parts := strings.Split(cropStr, ",")
		if len(parts) != 4 {
			return PhotoVariant{}, fmt.Errorf("p3: bad crop %q", cropStr)
		}
		var vals [4]int
		for i, part := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 {
				return PhotoVariant{}, fmt.Errorf("p3: bad crop %q", cropStr)
			}
			vals[i] = n
		}
		if vals[2] == 0 || vals[3] == 0 {
			return PhotoVariant{}, fmt.Errorf("p3: empty crop %q", cropStr)
		}
		v.Crop = &CropRect{X: vals[0], Y: vals[1], W: vals[2], H: vals[3]}
	}
	for _, dim := range []struct {
		s   string
		dst *int
	}{{q.Get("w"), &v.W}, {q.Get("h"), &v.H}} {
		if dim.s == "" {
			continue
		}
		n, err := strconv.Atoi(dim.s)
		if err != nil || n <= 0 {
			return PhotoVariant{}, fmt.Errorf("p3: bad dimension %q", dim.s)
		}
		*dim.dst = n
	}
	return v, nil
}

// MemorySecretStore is an in-process SecretStore for tests and
// single-binary deployments. The zero value is not usable; call
// NewMemorySecretStore.
type MemorySecretStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemorySecretStore returns an empty in-memory store.
func NewMemorySecretStore() *MemorySecretStore {
	return &MemorySecretStore{blobs: make(map[string][]byte)}
}

// PutSecret implements SecretStore.
func (m *MemorySecretStore) PutSecret(_ context.Context, id string, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[id] = append([]byte(nil), blob...)
	return nil
}

// GetSecret implements SecretStore.
func (m *MemorySecretStore) GetSecret(_ context.Context, id string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	blob, ok := m.blobs[id]
	if !ok {
		return nil, &NotFoundError{Kind: "secret", ID: id}
	}
	return append([]byte(nil), blob...), nil
}

// DeleteSecret implements SecretDeleter. Deleting an absent blob is not an
// error.
func (m *MemorySecretStore) DeleteSecret(_ context.Context, id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, id)
	return nil
}

// ListSecrets implements SecretLister.
func (m *MemorySecretStore) ListSecrets(_ context.Context) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]string, 0, len(m.blobs))
	for id := range m.blobs {
		ids = append(ids, id)
	}
	return ids, nil
}
