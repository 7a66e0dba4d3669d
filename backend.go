package p3

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
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
// store's hash-named blobs for pathologically long IDs that were written
// before it kept an ID sidecar beside each).
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
// precedence over the dynamic W/H/Crop fields: the parsers clear them when
// Size is set, and Query and AppendQuery ignore them. The bundled PSP
// requires W and H together for a dynamic resize.
type PhotoVariant struct {
	Size string    // named static variant, "" = none
	W, H int       // dynamic fit-within resize, 0 = unset
	Crop *CropRect // dynamic crop, nil = none
}

// Query renders the variant as the PSP wire API's query parameters: the
// parse of AppendQuery's rendering, which always parses.
func (v PhotoVariant) Query() url.Values {
	q, _ := url.ParseQuery(string(v.AppendQuery(nil)))
	return q
}

// AppendQuery appends the variant's wire query to b and returns the
// extended slice, in url.Values.Encode's form (keys sorted, values
// query-escaped, so a crop's commas are %2C) without building the map. It
// is the one rendering of a variant, and canonical: equivalent requests
// ("w=10&h=20" and "h=20&w=10") render alike.
func (v PhotoVariant) AppendQuery(b []byte) []byte {
	if v.Size != "" {
		return appendQueryEscape(append(b, "size="...), v.Size)
	}
	sep := ""
	if c := v.Crop; c != nil {
		b = append(b, "crop="...)
		for i, n := range [4]int{c.X, c.Y, c.W, c.H} {
			if i > 0 {
				b = append(b, "%2C"...)
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		sep = "&"
	}
	if v.H > 0 {
		b = strconv.AppendInt(append(append(b, sep...), "h="...), int64(v.H), 10)
		sep = "&"
	}
	if v.W > 0 {
		b = strconv.AppendInt(append(append(b, sep...), "w="...), int64(v.W), 10)
	}
	return b
}

// appendQueryEscape appends url.QueryEscape(s) to b.
func appendQueryEscape(b []byte, s string) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			b = append(b, c)
		case c == ' ':
			b = append(b, '+')
		default:
			b = append(b, '%', upperHex[c>>4], upperHex[c&15])
		}
	}
	return b
}

// variantParams are the wire API's variant parameters, in the order
// parseVariant takes their values.
var variantParams = [4]string{"size", "crop", "w", "h"}

// ParsePhotoVariant parses the PSP wire API's query parameters
// (size=big|small|thumb, w=&h=, crop=x,y,w,h) into a PhotoVariant.
func ParsePhotoVariant(q url.Values) (PhotoVariant, error) {
	var vals [4]string
	for i, k := range variantParams {
		vals[i] = q.Get(k)
	}
	return parseVariant(vals)
}

// ParsePhotoVariantQuery is ParsePhotoVariant of url.ParseQuery(rawQuery),
// with the ParseQuery error ignored as url.URL.Query ignores it, read
// straight from the raw query without building the map: the first value
// of a parameter wins, pairs containing ';' or a bad %-escape are skipped,
// and '+' and %XX are unescaped.
func ParsePhotoVariantQuery(rawQuery string) (PhotoVariant, error) {
	var vals [4]string
	var seen [4]bool
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, val, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		i := slices.Index(variantParams[:], k)
		if i < 0 || seen[i] {
			continue
		}
		if vals[i], err = url.QueryUnescape(val); err == nil {
			seen[i] = true
		}
	}
	return parseVariant(vals)
}

// parseVariant is the one parse behind both sources: vals holds the first
// value of each of variantParams ("" when absent). Every given parameter
// is checked; a Size then clears the dynamic fields, so the rendition, its
// cache key and the reconstruction operator all follow Size alone.
func parseVariant(vals [4]string) (PhotoVariant, error) {
	v := PhotoVariant{Size: vals[0]}
	var crop *CropRect
	if s := vals[1]; s != "" {
		var n [4]int
		rest := s
		for i := range n {
			var part string
			var more bool
			part, rest, more = strings.Cut(rest, ",")
			if more != (i < 3) {
				return PhotoVariant{}, fmt.Errorf("p3: bad crop %q", s)
			}
			x, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || x < 0 {
				return PhotoVariant{}, fmt.Errorf("p3: bad crop %q", s)
			}
			n[i] = x
		}
		if n[2] == 0 || n[3] == 0 {
			return PhotoVariant{}, fmt.Errorf("p3: empty crop %q", s)
		}
		crop = &CropRect{X: n[0], Y: n[1], W: n[2], H: n[3]}
	}
	var err error
	if v.W, err = parseDim(vals[2]); err != nil {
		return PhotoVariant{}, err
	}
	if v.H, err = parseDim(vals[3]); err != nil {
		return PhotoVariant{}, err
	}
	if v.Size != "" {
		v.W, v.H = 0, 0
	} else {
		v.Crop = crop
	}
	return v, nil
}

// parseDim parses a w= or h= value; "" is unset (0).
func parseDim(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("p3: bad dimension %q", s)
	}
	return n, nil
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
